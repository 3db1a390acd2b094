"""Automatic mining of multi-reference arithmetic rules (future-work extension).

The paper's multi-reference encoding (§2.3) needs a hand-written
configuration: which reference columns form groups A/B/C and which group
combinations are valid reconstruction rules.  Its conclusion explicitly lists
"automatic correlation detection, especially for our non-hierarchical
encoding scheme with multiple reference columns" as future work.  This module
implements that step:

1. **Group discovery** (:func:`discover_groups`): find the *base group* — the
   largest set of candidate columns whose sum explains a large share of the
   target rows — and treat every remaining candidate column as its own
   optional group, mirroring the paper's A (base) / B / C (optional
   surcharges) structure.
2. **Rule mining** (:func:`mine_rules`): enumerate combinations of the base
   group with subsets of the optional groups, measure each combination's
   exact-match coverage, and greedily keep the combinations that explain the
   most yet-unexplained rows until either the code budget (2 bits → four
   rules) is exhausted or the remaining rows are below the outlier budget.
3. :func:`mine_multi_reference_config` packages the result as a
   :class:`~repro.core.multi_reference.MultiReferenceConfig` that can be fed
   straight into a compression plan.

On the synthetic Taxi data the miner recovers exactly the paper's Table 1
configuration (groups A/B/C and the four rules) without being told anything
beyond "these are the candidate reference columns".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..encodings.base import ensure_int_array
from ..errors import ValidationError
from ..storage.table import Table
from .multi_reference import ArithmeticRule, MultiReferenceConfig, ReferenceGroup

__all__ = [
    "MinedRule",
    "RuleMiningResult",
    "discover_groups",
    "mine_rules",
    "mine_multi_reference_config",
]

#: Default maximum number of rules (2-bit codes, as in the paper).
DEFAULT_MAX_RULES = 4

#: Default fraction of rows that may remain unexplained (outliers).
DEFAULT_OUTLIER_BUDGET = 0.01

#: Minimum coverage improvement required to move a column out of the base
#: group and into its own optional group.
_MIN_COVERAGE_GAIN = 0.001


@dataclass(frozen=True)
class MinedRule:
    """One mined reconstruction rule and its coverage statistics."""

    groups: tuple[str, ...]
    coverage: float
    marginal_coverage: float

    @property
    def label(self) -> str:
        return " + ".join(self.groups)


@dataclass
class RuleMiningResult:
    """Outcome of rule mining: groups, chosen rules, residual outlier rate."""

    groups: dict[str, tuple[str, ...]]
    rules: list[MinedRule]
    outlier_fraction: float
    n_rows: int

    @property
    def explained_fraction(self) -> float:
        return 1.0 - self.outlier_fraction

    def to_config(self) -> MultiReferenceConfig:
        """Convert into a config usable by :class:`MultiReferenceEncoding`."""
        reference_groups = tuple(
            ReferenceGroup(name, columns) for name, columns in self.groups.items()
        )
        rules = tuple(ArithmeticRule(rule.groups) for rule in self.rules)
        return MultiReferenceConfig(groups=reference_groups, rules=rules)

    def describe(self) -> str:
        lines = []
        for name, columns in self.groups.items():
            lines.append(f"group {name}: {', '.join(columns)}")
        for rule in self.rules:
            lines.append(
                f"rule {rule.label}: covers {rule.coverage:.2%} "
                f"(+{rule.marginal_coverage:.2%} new rows)"
            )
        lines.append(f"outliers: {self.outlier_fraction:.2%} of {self.n_rows} rows")
        return "\n".join(lines)


def _as_int_columns(columns: Mapping[str, Sequence]) -> dict[str, np.ndarray]:
    return {name: ensure_int_array(values) for name, values in columns.items()}


def discover_groups(target: np.ndarray, candidates: Mapping[str, np.ndarray],
                    min_gain: float = _MIN_COVERAGE_GAIN) -> dict[str, tuple[str, ...]]:
    """Partition candidate reference columns into a base group and optional groups.

    The base group starts as *all* candidate columns.  In every round the
    column whose removal (into its own optional group) raises the achievable
    exact-match coverage the most is moved out, as long as the improvement
    exceeds ``min_gain``; columns whose removal does not help stay in the base
    group.  "Achievable coverage" is the share of rows explained by the base
    sum combined with any subset of at most two optional columns — the rule
    arity the paper uses (A, A+B, A+C, A+B+C).  On the Taxi data this recovers
    the paper's A/B/C split without supervision.
    """
    tgt = ensure_int_array(target)
    columns = _as_int_columns(candidates)
    if not columns:
        raise ValidationError("rule mining needs at least one candidate column")
    for name, values in columns.items():
        if values.shape != tgt.shape:
            raise ValidationError(
                f"candidate column {name!r} length does not match the target"
            )

    names = list(columns)

    def coverage(r: np.ndarray, optional: Sequence[str]) -> float:
        """Share of rows the base explains, alone or plus one or two optional columns.

        ``r`` is the base's residual ``target − base sum``: the base plus
        ``c_i`` (and ``c_j``) explains a row where ``r − c_i`` is zero (equals
        ``c_j``).  int64 equality holds modulo 2^64 either way.
        """
        covered = r == 0
        after = {name: r - columns[name] for name in optional}
        for name in optional:
            covered |= after[name] == 0
        for first, second in itertools.combinations(optional, 2):
            covered |= after[first] == columns[second]
        return float(covered.mean()) if tgt.size else 0.0

    def spread(r: np.ndarray) -> float:
        """Median ``|target − base sum|``, the tie-break between equal coverages.

        While coverage is still zero it steers the search away from columns
        (timestamps, counters) whose magnitude alone rules them out of the
        arithmetic.
        """
        return float(np.median(np.abs(r))) if tgt.size else 0.0

    base = list(names)
    r_base = tgt.copy()
    for name in base:
        r_base -= columns[name]
    current_coverage, current_residual = coverage(r_base, []), spread(r_base)
    while len(base) > 1:
        # Moving ``name`` out of the base adds it back into the residual.
        residuals = {name: r_base + columns[name] for name in base}
        coverages = {
            name: coverage(residuals[name], [n for n in names if n not in base or n == name])
            for name in base
        }
        top = max(coverages.values())
        # The first of the best-covering candidates with the least spread.
        spreads = {name: spread(residuals[name]) for name in base if coverages[name] == top}
        best_name = min(spreads, key=spreads.__getitem__)
        best_coverage, best_residual = top, spreads[best_name]
        improves_coverage = best_coverage > current_coverage + min_gain
        improves_residual = (
            best_coverage >= current_coverage - min_gain
            and best_residual < current_residual - 1e-9
        )
        if not improves_coverage and not improves_residual:
            break
        base = [n for n in base if n != best_name]
        r_base = residuals[best_name]
        current_coverage, current_residual = best_coverage, best_residual

    groups: dict[str, tuple[str, ...]] = {"A": tuple(base)}
    letter = ord("B")
    for name in names:
        if name not in base:
            groups[chr(letter)] = (name,)
            letter += 1
    return groups


def mine_rules(
    target: np.ndarray,
    candidates: Mapping[str, np.ndarray],
    groups: Mapping[str, tuple[str, ...]] | None = None,
    max_rules: int = DEFAULT_MAX_RULES,
    outlier_budget: float = DEFAULT_OUTLIER_BUDGET,
) -> RuleMiningResult:
    """Mine up to ``max_rules`` reconstruction rules for ``target``.

    Rules are combinations "base group (+ optional groups)" ranked by how many
    still-unexplained rows they match; mining stops when the code budget is
    used up, no candidate adds coverage, or the residue drops below
    ``outlier_budget``.
    """
    if max_rules < 1:
        raise ValidationError("max_rules must be at least 1")
    if not 0.0 <= outlier_budget < 1.0:
        raise ValidationError("outlier_budget must be in [0, 1)")

    tgt = ensure_int_array(target)
    columns = _as_int_columns(candidates)
    group_map = dict(groups) if groups is not None else discover_groups(tgt, columns)

    group_sums: dict[str, np.ndarray] = {}
    for name, members in group_map.items():
        total = np.zeros_like(tgt)
        for member in members:
            if member not in columns:
                raise ValidationError(f"group {name!r} references unknown column {member!r}")
            total = total + columns[member]
        group_sums[name] = total

    base_name = next(iter(group_map))
    optional = [name for name in group_map if name != base_name]

    # Candidate rules: base alone, base + each optional subset.
    candidate_rules: list[tuple[str, ...]] = [(base_name,)]
    for size in range(1, len(optional) + 1):
        for subset in itertools.combinations(optional, size):
            candidate_rules.append((base_name,) + subset)

    # A rule matches where its residual ``target − Σ groups`` is zero.  Each
    # rule's residual is its prefix rule's minus one group sum, so a
    # depth-first walk holds one residual per level instead of one sum per rule.
    # Pending entries: (rule, its prefix's residual, the group it adds, the
    # first optional group it may be extended by).
    hits: dict[tuple[str, ...], np.ndarray] = {}
    pending = [((base_name,), tgt, base_name, 0)]
    while pending:
        rule, prefix_residual, added, start = pending.pop()
        residual = prefix_residual - group_sums[added]
        hits[rule] = residual == 0
        pending.extend(
            (rule + (optional[i],), residual, optional[i], i + 1)
            for i in range(start, len(optional))
        )
    predictions = {rule: hits[rule] for rule in candidate_rules}

    unexplained = np.ones(tgt.size, dtype=bool)
    mined: list[MinedRule] = []
    while len(mined) < max_rules and unexplained.size:
        best_rule = None
        best_gain = 0
        for rule, matches in predictions.items():
            if any(rule == m.groups for m in mined):
                continue
            gain = int(np.count_nonzero(matches & unexplained))
            if gain > best_gain:
                best_gain = gain
                best_rule = rule
        if best_rule is None or best_gain == 0:
            break
        coverage = float(predictions[best_rule].mean()) if tgt.size else 0.0
        marginal = best_gain / tgt.size if tgt.size else 0.0
        mined.append(
            MinedRule(groups=best_rule, coverage=coverage, marginal_coverage=marginal)
        )
        unexplained &= ~predictions[best_rule]
        if tgt.size and unexplained.mean() <= outlier_budget:
            break

    outlier_fraction = float(unexplained.mean()) if tgt.size else 0.0
    # Keep only the groups actually used by the mined rules (plus the base).
    used = {base_name}
    for rule in mined:
        used.update(rule.groups)
    pruned_groups = {name: group_map[name] for name in group_map if name in used}
    return RuleMiningResult(
        groups=pruned_groups,
        rules=mined,
        outlier_fraction=outlier_fraction,
        n_rows=int(tgt.size),
    )


def mine_multi_reference_config(table: Table, target: str,
                                candidates: Sequence[str] | None = None,
                                max_rules: int = DEFAULT_MAX_RULES,
                                outlier_budget: float = DEFAULT_OUTLIER_BUDGET
                                ) -> tuple[MultiReferenceConfig, RuleMiningResult]:
    """Mine a ready-to-use multi-reference config for ``target`` in ``table``.

    ``candidates`` defaults to every other integer-like column of the table.
    Returns both the config and the mining diagnostics.
    """
    if target not in table.schema:
        raise ValidationError(f"unknown target column {target!r}")
    if candidates is None:
        candidates = [
            spec.name
            for spec in table.schema
            if spec.dtype.is_integer_like and spec.name != target
        ]
    candidate_columns = {name: table.column(name) for name in candidates}
    result = mine_rules(
        table.column(target), candidate_columns,
        max_rules=max_rules, outlier_budget=outlier_budget,
    )
    if not result.rules:
        raise ValidationError(
            f"no arithmetic rule explains column {target!r} from {list(candidates)}"
        )
    return result.to_config(), result
