"""Non-hierarchical encoding with multiple reference columns — paper §2.3.

The target column (Taxi's ``total_amount``) is expressed through a small set
of *arithmetic rules* over groups of reference columns.  The paper's Taxi
configuration partitions eight monetary columns into three groups::

    A = {mta_tax, fare_amount, improvement_surcharge, extra,
         tip_amount, tolls_amount}
    B = {congestion_surcharge}
    C = {airport_fee}

and uses the four rules A, A+B, A+C, A+B+C (Table 1).  Each row then stores a
2-bit rule code; rows matching no rule go to the outlier region (Fig. 4) as
``(row index, original value)`` pairs, so no third code bit or sentinel value
is ever needed.

Values are fixed-point integers (cents); exact equality is used for rule
matching, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..bitpack import BitPackedArray, required_bits
from ..encodings.base import ensure_int_array
from ..errors import ConfigurationError, DecodingError, EncodingError
from .base import HorizontalEncodedColumn, ReferenceValues
from .outliers import OutlierStore

__all__ = [
    "ReferenceGroup",
    "ArithmeticRule",
    "MultiReferenceConfig",
    "MultiReferenceEncodedColumn",
    "MultiReferenceEncoding",
    "RuleStatistics",
]

#: Fixed per-column metadata: counts, widths, rule table header.
_METADATA_BYTES = 16

#: Bytes charged per rule descriptor (group bitmap + padding).
_BYTES_PER_RULE = 4


@dataclass(frozen=True)
class ReferenceGroup:
    """A named group of reference columns whose values are summed."""

    name: str
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("reference group name must be non-empty")
        if not self.columns:
            raise ConfigurationError(
                f"reference group {self.name!r} must contain at least one column"
            )

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Sum of this group's columns, element-wise."""
        total = None
        for col in self.columns:
            if col not in columns:
                raise EncodingError(
                    f"reference group {self.name!r} needs column {col!r}"
                )
            values = ensure_int_array(columns[col])
            if total is None:
                total = values.copy()
            else:
                total += values
        assert total is not None
        return total


@dataclass(frozen=True)
class ArithmeticRule:
    """One reconstruction rule: the sum of a subset of reference groups."""

    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("an arithmetic rule must use at least one group")
        if len(set(self.groups)) != len(self.groups):
            raise ConfigurationError(f"duplicate groups in rule {self.groups}")

    @property
    def label(self) -> str:
        """Human-readable representation, e.g. ``"A + B"`` as in Table 1."""
        return " + ".join(self.groups)

    def evaluate(self, group_sums: Mapping[str, np.ndarray]) -> np.ndarray:
        total = None
        for name in self.groups:
            if name not in group_sums:
                raise EncodingError(f"rule {self.label!r} needs group {name!r}")
            values = group_sums[name]
            total = values.copy() if total is None else total + values
        assert total is not None
        return total


@dataclass(frozen=True)
class MultiReferenceConfig:
    """Groups plus the ordered rule list (order defines the binary codes)."""

    groups: tuple[ReferenceGroup, ...]
    rules: tuple[ArithmeticRule, ...]

    def __post_init__(self) -> None:
        group_names = {g.name for g in self.groups}
        if len(group_names) != len(self.groups):
            raise ConfigurationError("reference group names must be unique")
        for rule in self.rules:
            unknown = set(rule.groups) - group_names
            if unknown:
                raise ConfigurationError(
                    f"rule {rule.label!r} uses unknown groups {sorted(unknown)}"
                )
        if not self.rules:
            raise ConfigurationError("at least one arithmetic rule is required")

    @property
    def reference_columns(self) -> tuple[str, ...]:
        """Every reference column used by any group, in group order."""
        names: list[str] = []
        for group in self.groups:
            for col in group.columns:
                if col not in names:
                    names.append(col)
        return tuple(names)

    @property
    def code_bit_width(self) -> int:
        """Bits needed for the rule code (2 for the paper's four rules)."""
        return max(required_bits(len(self.rules) - 1), 1)

    def group_sums(self, columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Evaluate every group on the given reference column values."""
        return {g.name: g.evaluate(columns) for g in self.groups}

    def rule_predictions(self, columns: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        """Evaluate every rule on the given reference column values."""
        sums = self.group_sums(columns)
        return [rule.evaluate(sums) for rule in self.rules]

    def group_usage(self) -> list[tuple[ReferenceGroup, np.ndarray | None]]:
        """Each group some rule uses, with the rule codes that use it.

        ``None`` stands for "every rule"; otherwise an ``int64`` array
        indexed by rule code, 1 where that rule uses the group and 0 where
        it does not.  Groups no rule uses are left out.
        """
        usage: list[tuple[ReferenceGroup, np.ndarray | None]] = []
        for group in self.groups:
            uses = np.array([group.name in rule.groups for rule in self.rules], dtype=np.int64)
            if uses.all():
                usage.append((group, None))
            elif uses.any():
                usage.append((group, uses))
        return usage


@dataclass
class RuleStatistics:
    """Per-rule match shares, mirroring the paper's Table 1."""

    labels: list[str]
    codes: list[str]
    probabilities: list[float]
    outlier_probability: float
    rows: int = field(default=0)

    def as_rows(self) -> list[tuple[str, str, float]]:
        """(label, binary code, probability) triples plus the outlier row."""
        rows = list(zip(self.labels, self.codes, self.probabilities))
        rows.append(("None", "outlier", self.outlier_probability))
        return rows


class MultiReferenceEncodedColumn(HorizontalEncodedColumn):
    """Target column stored as per-row rule codes plus an outlier region."""

    encoding_name = "multi_reference"

    def __init__(
        self,
        target: np.ndarray,
        references: Mapping[str, np.ndarray],
        config: MultiReferenceConfig,
    ):
        tgt = ensure_int_array(target)
        self._config = config
        self.reference_names = config.reference_columns
        for name in self.reference_names:
            if name not in references:
                raise EncodingError(f"missing reference column {name!r}")
            if len(references[name]) != tgt.size:
                raise EncodingError(
                    f"reference column {name!r} length does not match target"
                )

        predictions = config.rule_predictions(references)
        codes = np.zeros(tgt.size, dtype=np.int64)
        matched = np.zeros(tgt.size, dtype=bool)
        for code, prediction in enumerate(predictions):
            hit = ~matched & (prediction == tgt)
            codes[hit] = code
            matched |= hit

        self._outliers = OutlierStore.from_mask(~matched, tgt)
        self._match_counts = [
            int(np.sum(codes[matched] == code)) for code in range(len(config.rules))
        ]
        self._codes = BitPackedArray.from_values(codes, config.code_bit_width)

    # -- properties ------------------------------------------------------------

    @property
    def config(self) -> MultiReferenceConfig:
        return self._config

    @property
    def outliers(self) -> OutlierStore:
        return self._outliers

    @property
    def code_bit_width(self) -> int:
        return self._codes.bit_width

    @property
    def n_values(self) -> int:
        return self._codes.n_values

    @property
    def size_bytes(self) -> int:
        return (
            self._codes.size_bytes
            + self._outliers.size_bytes
            + _BYTES_PER_RULE * len(self._config.rules)
            + _METADATA_BYTES
        )

    def rule_statistics(self) -> RuleStatistics:
        """Observed rule mixture (the reproduction of Table 1)."""
        n = self.n_values
        width = self._config.code_bit_width
        labels = [rule.label for rule in self._config.rules]
        codes = [format(i, f"0{width}b") for i in range(len(self._config.rules))]
        if n == 0:
            probabilities = [0.0] * len(labels)
            outlier_probability = 0.0
        else:
            probabilities = [count / n for count in self._match_counts]
            outlier_probability = self._outliers.n_outliers / n
        return RuleStatistics(
            labels=labels,
            codes=codes,
            probabilities=probabilities,
            outlier_probability=outlier_probability,
            rows=n,
        )

    # -- decoding ---------------------------------------------------------------

    def gather_with_reference(
        self, positions: np.ndarray, reference_values: ReferenceValues
    ) -> np.ndarray:
        """Reconstruct each row as the sum of the groups its rule uses.

        One ``int64`` accumulator over reference *groups*: a group every
        rule uses is added unconditionally, a group only some rules use is
        summed, multiplied by its 0/1 rule mask ``uses[code]`` and added,
        and a group no rule uses is never read.  ``int64`` addition wraps
        modulo 2**64, so the order of the additions cannot change a bit of
        the result.  Outliers are patched last.
        """
        self._check_reference_values(positions, reference_values)
        pos = np.asarray(positions, dtype=np.int64)
        columns = {
            name: ensure_int_array(reference_values[name])
            for name in self.reference_names
        }
        codes = self._codes.gather(pos)
        if codes.size and codes.max() >= len(self._config.rules):
            raise DecodingError("rule code out of range; corrupted column?")
        reconstructed = np.zeros(pos.size, dtype=np.int64)
        for group, uses in self._group_usage():
            if uses is None:
                for name in group.columns:
                    reconstructed += columns[name]
            else:
                masked = group.evaluate(columns)
                masked *= uses[codes]
                reconstructed += masked
        return self._outliers.apply(pos, reconstructed)

    def _group_usage(self) -> list[tuple[ReferenceGroup, np.ndarray | None]]:
        """:meth:`MultiReferenceConfig.group_usage`, memoised under a
        ``_cached`` attribute (excluded from serialization)."""
        cached = getattr(self, "_cached_group_usage", None)
        if cached is None:
            cached = self._cached_group_usage = self._config.group_usage()
        return cached

    def gather_codes(self, positions: np.ndarray) -> np.ndarray:
        """Positional access to the raw rule codes."""
        return self._codes.gather(np.asarray(positions, dtype=np.int64))


class MultiReferenceEncoding:
    """Scheme object for multi-reference diff-encoding (paper §2.3)."""

    name = "multi_reference"

    def __init__(self, config: MultiReferenceConfig):
        self.config = config

    def encode(self, target, references: Mapping[str, np.ndarray]) -> MultiReferenceEncodedColumn:
        """Encode ``target`` against the configured reference groups."""
        column = MultiReferenceEncodedColumn(target, references, self.config)
        column.encoding_name = self.name
        return column

    def estimate_size(self, target, references: Mapping[str, np.ndarray]) -> int:
        """Size estimate (encodes and measures; rule matching dominates anyway)."""
        return self.encode(target, references).size_bytes

    def __repr__(self) -> str:
        rules = ", ".join(rule.label for rule in self.config.rules)
        return f"MultiReferenceEncoding(rules=[{rules}])"
