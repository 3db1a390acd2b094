"""Automatic correlation detection (the paper's future-work extension).

The paper's conclusion envisions "automatic correlation detection, especially
for our non-hierarchical encoding scheme with multiple reference columns".
This module implements pragmatic detectors for all three horizontal schemes:

* :func:`bounded_difference_score` — is ``(a − b)`` much narrower than ``a``?
  If so, non-hierarchical diff-encoding of ``a`` w.r.t. ``b`` pays off.
* :func:`hierarchy_score` — does grouping column ``a`` by column ``b`` reduce
  the per-group distinct count enough that hierarchical encoding wins?
* :func:`arithmetic_rule_coverage` — what fraction of rows does a candidate
  multi-reference rule set explain, and how many outliers remain?

:class:`CorrelationDetector` sweeps a table's column pairs with these scores
and returns ranked :class:`EncodingSuggestion` objects, which
:class:`repro.core.plan.CompressionPlan` can consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..bitpack import required_bits
from ..encodings.base import ensure_int_array
from ..encodings.selector import BestOfSelector
from ..errors import ValidationError
from ..storage.table import Table
from .hierarchical import ColumnCodes, PairStatistics
from .multi_reference import MultiReferenceConfig

__all__ = [
    "bounded_difference_score",
    "hierarchy_score",
    "arithmetic_rule_coverage",
    "EncodingSuggestion",
    "CorrelationDetector",
]


@dataclass(frozen=True)
class EncodingSuggestion:
    """A proposed horizontal encoding with its estimated benefit."""

    kind: str  # "non_hierarchical" | "hierarchical" | "multi_reference"
    target: str
    references: tuple[str, ...]
    estimated_saving_bytes: int
    estimated_saving_rate: float
    detail: str = ""

    def __str__(self) -> str:
        refs = ", ".join(self.references)
        return (
            f"{self.target} <- {self.kind}({refs}): "
            f"save {self.estimated_saving_bytes} bytes "
            f"({self.estimated_saving_rate:.1%}) {self.detail}"
        )


def bounded_difference_score(target: np.ndarray, reference: np.ndarray) -> dict:
    """Bit-width comparison between a column and its difference to a reference.

    Returns a dict with the vertical bit width of ``target`` (after FOR), the
    bit width of ``target − reference``, and the implied per-row bit saving.
    """
    tgt = np.asarray(target, dtype=np.int64)
    ref = np.asarray(reference, dtype=np.int64)
    if tgt.shape != ref.shape:
        raise ValidationError("target and reference must have the same length")
    if tgt.size == 0:
        return {"target_bits": 0, "diff_bits": 0, "bits_saved_per_row": 0}
    target_bits = required_bits(int(tgt.max() - tgt.min()))
    diffs = tgt - ref
    diff_bits = required_bits(int(diffs.max() - diffs.min()))
    return {
        "target_bits": target_bits,
        "diff_bits": diff_bits,
        "bits_saved_per_row": target_bits - diff_bits,
    }


def hierarchy_score(target: Sequence, reference: Sequence) -> dict:
    """How hierarchical is the pair (reference → target)?

    Reports the global distinct count of ``target``, the largest per-group
    distinct count, and the implied per-row bit saving for the code stream
    (global dictionary code width vs group-local code width).
    """
    if len(target) != len(reference):
        raise ValidationError("target and reference must have the same length")
    stats = PairStatistics.of(ColumnCodes.of(target), ColumnCodes.of(reference))
    return {
        "global_distinct": stats.n_targets,
        "max_group_distinct": stats.max_fanout,
        "n_groups": stats.n_groups,
        "bits_saved_per_row": stats.global_code_bits - stats.local_code_bits,
    }


def _fanout_bound(n_targets: int, n_groups: int) -> int:
    """Most bits per row that grouping ``n_targets`` values ``n_groups`` ways can save.

    Every target value lies in some group, so by pigeonhole the largest
    group holds at least ``ceil(n_targets / n_groups)`` of them.
    """
    if n_groups == 0:
        return 0
    least_fanout = -(-n_targets // n_groups)
    return required_bits(max(n_targets - 1, 0)) - required_bits(least_fanout - 1)


def arithmetic_rule_coverage(
    target: np.ndarray,
    references: Mapping[str, np.ndarray],
    config: MultiReferenceConfig,
) -> dict:
    """Fraction of rows each rule explains, plus the leftover outlier fraction."""
    tgt = np.asarray(target, dtype=np.int64)
    predictions = config.rule_predictions(
        {name: np.asarray(values, dtype=np.int64) for name, values in references.items()}
    )
    matched = np.zeros(tgt.size, dtype=bool)
    coverage: dict[str, float] = {}
    for rule, prediction in zip(config.rules, predictions):
        hit = ~matched & (prediction == tgt)
        coverage[rule.label] = float(hit.sum() / tgt.size) if tgt.size else 0.0
        matched |= hit
    outlier_fraction = float((~matched).sum() / tgt.size) if tgt.size else 0.0
    return {"rule_coverage": coverage, "outlier_fraction": outlier_fraction}


class CorrelationDetector:
    """Scan a table for column pairs worth encoding horizontally."""

    def __init__(
        self,
        selector: BestOfSelector | None = None,
        min_saving_rate: float = 0.05,
        sample_rows: int | None = 200_000,
    ):
        """``sample_rows`` caps how many rows the detector inspects per column
        pair (sizes are extrapolated linearly); ``None`` disables sampling."""
        self._selector = selector if selector is not None else BestOfSelector()
        self._min_saving_rate = min_saving_rate
        self._sample_rows = sample_rows

    def _sampled(self, table: Table) -> Table:
        if self._sample_rows is None or table.n_rows <= self._sample_rows:
            return table
        return table.slice(0, self._sample_rows)

    def suggest(self, table: Table) -> list[EncodingSuggestion]:
        """Rank non-hierarchical and hierarchical candidates for all column pairs."""
        sample = self._sampled(table)
        scale = table.n_rows / sample.n_rows if sample.n_rows else 1.0
        suggestions: list[EncodingSuggestion] = []

        integer_columns = [
            spec.name for spec in table.schema if spec.dtype.is_integer_like
        ]
        all_columns = list(table.schema.names)

        baseline_sizes = {
            name: self._selector.best_size(sample.column(name), sample.dtype(name))
            for name in all_columns
        }
        ints = {name: ensure_int_array(sample.column(name)) for name in integer_columns}

        # Non-hierarchical candidates: ordered pairs of integer-like columns.
        from .diff_encoding import estimate_diff_encoded_size

        for target in integer_columns:
            for reference in integer_columns:
                if target == reference:
                    continue
                diff_size = estimate_diff_encoded_size(ints[target], ints[reference])
                baseline = baseline_sizes[target]
                saving = baseline - diff_size
                rate = saving / baseline if baseline else 0.0
                if rate >= self._min_saving_rate:
                    score = bounded_difference_score(ints[target], ints[reference])
                    suggestions.append(
                        EncodingSuggestion(
                            kind="non_hierarchical",
                            target=target,
                            references=(reference,),
                            estimated_saving_bytes=int(saving * scale),
                            estimated_saving_rate=rate,
                            detail=f"{score['target_bits']}b -> {score['diff_bits']}b per row",
                        )
                    )

        # Hierarchical candidates: any target grouped by any other column.
        # Each column is factorised once; a pair costs one sort of its codes,
        # and none when the pigeonhole bound shows it cannot save a bit.
        codes = {name: ColumnCodes.of(sample.column(name)) for name in all_columns}
        for target in all_columns:
            for reference in all_columns:
                if target == reference:
                    continue
                if _fanout_bound(codes[target].n_distinct, codes[reference].n_distinct) <= 0:
                    continue
                stats = PairStatistics.of(codes[target], codes[reference])
                if stats.global_code_bits <= stats.local_code_bits:
                    continue
                baseline = baseline_sizes[target]
                saving = baseline - stats.size_bytes
                rate = saving / baseline if baseline else 0.0
                if rate >= self._min_saving_rate:
                    suggestions.append(
                        EncodingSuggestion(
                            kind="hierarchical",
                            target=target,
                            references=(reference,),
                            estimated_saving_bytes=int(saving * scale),
                            estimated_saving_rate=rate,
                            detail=(
                                f"{stats.n_targets} distinct globally, "
                                f"<= {stats.max_fanout} per group"
                            ),
                        )
                    )

        suggestions.sort(key=lambda s: s.estimated_saving_bytes, reverse=True)
        return suggestions

    def best_per_target(self, table: Table) -> dict[str, EncodingSuggestion]:
        """The single best suggestion for each target column (if any)."""
        best: dict[str, EncodingSuggestion] = {}
        for suggestion in self.suggest(table):
            current = best.get(suggestion.target)
            if (
                current is None
                or suggestion.estimated_saving_bytes > current.estimated_saving_bytes
            ):
                best[suggestion.target] = suggestion
        return best
