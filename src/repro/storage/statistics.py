"""Per-block, per-column statistics (zone maps) for scan pruning.

Every :class:`~repro.storage.block.CompressedBlock` can carry a
:class:`BlockStatistics` object computed at compression time: one
:class:`ColumnStatistics` per column with the value range, the null-free row
count, and a distinct-count estimate.  The query layer tests structured
predicates (:mod:`repro.query.predicates`) against these statistics to skip
whole blocks before any decoding — the classic zone-map trick that makes
selective scans over sorted or clustered columns (TPC-H dates, DMV
registration years) fast despite the compressed layout.

Two flavours of bounds exist:

* *exact* bounds, computed from the raw values of a block chunk;
* *derived* bounds for diff-encoded columns, obtained without touching the
  target values: ``min(target) >= min(reference) + min(delta)`` and
  ``max(target) <= max(reference) + max(delta)``, widened by the outlier
  region if one exists.  Derived bounds are conservative: they always
  contain the true range.  That is enough both to prune (a value outside
  the superset is outside the block) and to prove a block full (a superset
  inside ``[low, high]``, or equal to ``{v}``, puts every row there too).
  They are flagged with ``exact_bounds=False`` because they cannot *name*
  the block's minimum or maximum, so ``min``/``max`` aggregates over a
  fully-covered block still decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = ["ColumnStatistics", "BlockStatistics", "LazyBlockStatistics", "fits_int64"]

#: Bytes charged per column for min/max/sum (3 x 8), counts (2 x 4) and flags.
_BYTES_PER_COLUMN = 8 + 8 + 8 + 4 + 4 + 4


def fits_int64(n: int, magnitude: int, power: int = 1) -> bool:
    """Whether ``n`` terms of at most ``magnitude ** power`` sum within int64.

    The one overflow guard of the tree: a vectorised int64 reduction of
    ``Σ x**power`` is exact iff this holds for ``magnitude >= max|x|``;
    otherwise the reduction must run in Python integers (or, for a
    zone-map statistic, not be recorded at all).
    """
    return n * magnitude**power < 1 << 63


def _comparable(a, b) -> bool:
    """Whether two scalars can be ordered (guards int-vs-str comparisons)."""
    if isinstance(a, str) != isinstance(b, str):
        return False
    return True


def _unordered(bound) -> bool:
    """Whether ``bound`` is NaN: ordered against nothing, so no value lies
    on either side of it and a range it bounds is empty."""
    return isinstance(bound, (float, np.floating)) and bound != bound


@dataclass(frozen=True)
class ColumnStatistics:
    """Zone-map statistics of one column within one block.

    ``min_value``/``max_value`` are ``None`` for empty blocks.  String columns
    carry lexicographic bounds.  ``delta_min``/``delta_max`` record the stored
    difference range of a diff-encoded column (the quantity the bounds of a
    derived zone map are built from).
    """

    row_count: int
    min_value: int | str | None = None
    max_value: int | str | None = None
    distinct_count: int | None = None
    delta_min: int | None = None
    delta_max: int | None = None
    exact_bounds: bool = True
    #: Exact sum of an integer column's values (``None`` for string columns
    #: and for derived zone maps, whose bounds never touched the raw values).
    #: Lets the query layer answer ``sum`` over a fully-covered block from
    #: metadata alone, the same way ``min``/``max`` use the exact bounds.
    sum_value: int | None = None

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise ValidationError("row_count must be non-negative")
        if self.row_count > 0 and (self.min_value is None) != (self.max_value is None):
            raise ValidationError("min_value and max_value must be set together")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_values(
        cls, values: np.ndarray | Sequence, distinct: bool | str = True
    ) -> "ColumnStatistics":
        """Statistics computed from raw (uncompressed) column values.

        ``distinct`` controls the distinct-count field: ``True`` computes it
        exactly (a full sort / hash of the block), ``"estimate"`` derives a
        free upper bound from the integer value range (``None`` for string
        columns), ``False`` skips it.  Compression uses ``"estimate"`` so
        zone maps cost no extra pass over the data.
        """
        n = len(values)
        if n == 0:
            return cls(row_count=0)
        if isinstance(values, np.ndarray):
            lo, hi = int(values.min()), int(values.max())
            total = (
                int(values.sum(dtype=np.int64))
                if fits_int64(n, max(abs(lo), abs(hi)))
                else None
            )
        else:
            lo, hi = min(values), max(values)
            total = None
        if distinct == "estimate":
            n_distinct = None if isinstance(lo, str) else min(n, int(hi) - int(lo) + 1)
        elif distinct:
            if isinstance(values, np.ndarray):
                n_distinct = int(np.unique(values).size)
            else:
                n_distinct = len(set(values))
        else:
            n_distinct = None
        return cls(
            row_count=n,
            min_value=lo,
            max_value=hi,
            distinct_count=n_distinct,
            sum_value=total,
        )

    @classmethod
    def from_reference_and_deltas(
        cls,
        reference: "ColumnStatistics",
        delta_min: int,
        delta_max: int,
        row_count: int,
        outlier_values: np.ndarray | None = None,
        sum_value: int | None = None,
    ) -> "ColumnStatistics":
        """Conservative bounds for a diff-encoded column.

        The target never strays outside ``[ref_min + delta_min,
        ref_max + delta_max]``; outlier rows are stored verbatim, so their
        values widen the range directly.  No target value is ever touched.

        ``sum_value``, when given, must be the *exact* column total — the
        caller derives it as ``sum(reference) + sum(deltas)`` (plus the
        outlier correction) without decoding the target.  Unlike the bounds
        it is therefore allowed to answer aggregates affirmatively.
        """
        if row_count == 0:
            return cls(row_count=0, delta_min=0, delta_max=0, exact_bounds=False)
        if reference.min_value is None or isinstance(reference.min_value, str):
            raise ValidationError("derived bounds need integer reference statistics")
        lo = int(reference.min_value) + int(delta_min)
        hi = int(reference.max_value) + int(delta_max)
        if outlier_values is not None and len(outlier_values):
            lo = min(lo, int(np.min(outlier_values)))
            hi = max(hi, int(np.max(outlier_values)))
        if lo < -(1 << 63) or hi >= 1 << 63:
            # Some row's ``reference + difference`` wrapped around int64 and
            # may land anywhere in it: only the whole range still contains it.
            lo, hi = -(1 << 63), (1 << 63) - 1
        # The caller sums the reference, the differences and the outlier
        # corrections in int64; each term is bounded by one of these.
        magnitude = (
            max(abs(lo), abs(hi))
            + (reference.magnitude or 0)
            + max(abs(int(delta_min)), abs(int(delta_max)))
        )
        if sum_value is not None and not fits_int64(row_count, magnitude):
            sum_value = None
        return cls(
            row_count=row_count,
            min_value=lo,
            max_value=hi,
            distinct_count=None,
            delta_min=int(delta_min),
            delta_max=int(delta_max),
            exact_bounds=False,
            sum_value=None if sum_value is None else int(sum_value),
        )

    # -- predicate support ----------------------------------------------------

    @property
    def has_bounds(self) -> bool:
        return self.min_value is not None

    @property
    def magnitude(self) -> int | None:
        """``max|x|`` over the block from the integer bounds, or ``None``.

        Derived bounds over-report the range, never under-report it, so
        the magnitude is always safe as an overflow bound.
        """
        if self.min_value is None or isinstance(self.min_value, str):
            return None
        return max(abs(int(self.min_value)), abs(int(self.max_value)))

    def may_contain(self, value) -> bool:
        """Whether the block can contain ``value`` (False prunes the block)."""
        if self.row_count == 0:
            return False
        if not self.has_bounds or not _comparable(self.min_value, value):
            return True
        return self.min_value <= value <= self.max_value

    def overlaps(self, low, high) -> bool:
        """Whether the block's range intersects ``[low, high]``.

        ``None`` on either side means the range is unbounded on that side.
        """
        if self.row_count == 0 or _unordered(low) or _unordered(high):
            return False
        if not self.has_bounds:
            return True
        if low is not None:
            if not _comparable(self.max_value, low):
                return True
            if self.max_value < low:
                return False
        if high is not None:
            if not _comparable(self.min_value, high):
                return True
            if self.min_value > high:
                return False
        return True

    def contained_in(self, low, high) -> bool:
        """Whether every row's value provably lies within ``[low, high]``.

        Derived (conservative) bounds affirm this as well as exact ones:
        they may over-report the range but never under-report it, so a
        superset inside ``[low, high]`` puts every row inside it.
        """
        if self.row_count == 0 or not self.has_bounds:
            return False
        if _unordered(low) or _unordered(high):
            return False
        if low is not None:
            if not _comparable(self.min_value, low) or self.min_value < low:
                return False
        if high is not None:
            if not _comparable(self.max_value, high) or self.max_value > high:
                return False
        return True

    def is_constant(self, value) -> bool:
        """Whether every row provably equals ``value``.

        Derived bounds qualify too: a superset of the values equal to
        ``{value}`` leaves no room for any other value.
        """
        return (
            self.row_count > 0
            and self.has_bounds
            and self.min_value == value == self.max_value
        )

    # -- aggregate support ----------------------------------------------------

    def aggregate_value(self, kind: str):
        """The exact value of an aggregate over *every* row, or ``None``.

        ``kind`` names a moment of :mod:`repro.query.aggregates`
        (``"count"``, ``"sum"``, ``"min"``, ``"max"``; ``"sumsq"`` is never
        recorded).  Used by the query compiler to answer aggregates over
        blocks the planner classified *fully covered* without decoding a
        value.  This is the one place derived zone maps stay silent:
        they over-report the *range*, so their bounds are not the block's
        ``min``/``max`` even where they prove it fully covered.
        ``sum_value`` is only ever recorded when it is exact (within
        int64, see :func:`fits_int64`; including the ``sum(reference) +
        sum(deltas)`` derivation for diff-encoded columns), so it may
        affirm even alongside conservative bounds.
        Unknown kinds and missing statistics return ``None``, which the
        caller treats as "decode and reduce".
        """
        if kind == "count":
            return self.row_count
        if kind == "sum":
            return self.sum_value
        if not self.exact_bounds:
            return None
        if kind == "min":
            return self.min_value
        if kind == "max":
            return self.max_value
        return None

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "row_count": self.row_count,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "distinct_count": self.distinct_count,
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "exact_bounds": self.exact_bounds,
            "sum_value": self.sum_value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStatistics":
        return cls(
            row_count=data["row_count"],
            min_value=data["min_value"],
            max_value=data["max_value"],
            distinct_count=data["distinct_count"],
            delta_min=data["delta_min"],
            delta_max=data["delta_max"],
            exact_bounds=data["exact_bounds"],
            # Absent in blocks serialised before the sum statistic existed
            # (format v2 blocks stay readable; they just cannot stat-answer
            # sums).
            sum_value=data.get("sum_value"),
        )


class BlockStatistics:
    """The zone map of one block: per-column :class:`ColumnStatistics`."""

    def __init__(self, columns: Mapping[str, ColumnStatistics]):
        self._columns = dict(columns)

    def column(self, name: str) -> ColumnStatistics | None:
        """Statistics for ``name``, or ``None`` when none were recorded."""
        return self._columns.get(name)

    def _as_mapping(self) -> dict:
        """Every column's parsed statistics (lazy subclasses parse here)."""
        return self._columns

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def size_bytes(self) -> int:
        """Approximate on-disk footprint of the zone map (not charged to the
        block's compressed size; reported separately)."""
        columns = self._as_mapping()
        string_bounds = sum(
            len(s.min_value) + len(s.max_value)
            for s in columns.values()
            if isinstance(s.min_value, str)
        )
        return _BYTES_PER_COLUMN * len(columns) + string_bounds

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockStatistics) and self._as_mapping() == other._as_mapping()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}=[{s.min_value!r}, {s.max_value!r}]"
            for name, s in self._as_mapping().items()
        )
        return f"{type(self).__name__}({parts})"

    def to_dict(self) -> dict:
        return {name: stats.to_dict() for name, stats in self._as_mapping().items()}

    @classmethod
    def from_dict(cls, data: dict) -> "BlockStatistics":
        return cls({name: ColumnStatistics.from_dict(stats) for name, stats in data.items()})


class LazyBlockStatistics(BlockStatistics):
    """A zone map whose per-column statistics parse on first access.

    The table footer of a wide table carries one serialised
    :class:`ColumnStatistics` dict per (block, column); parsing all of them
    at open time is wasted work for queries that reference a handful of
    columns.  This subclass keeps the raw footer dicts and materialises a
    column's statistics the first time :meth:`column` asks for it — the
    planner therefore only ever parses the zone maps of predicate columns.
    Whole-map operations (equality, ``to_dict``, ``size_bytes``) parse
    everything via :meth:`_as_mapping`.
    """

    def __init__(self, raw: Mapping[str, dict]):
        self._raw = dict(raw)
        self._columns: dict[str, ColumnStatistics] = {}

    def column(self, name: str) -> ColumnStatistics | None:
        stats = self._columns.get(name)
        if stats is None:
            state = self._raw.get(name)
            if state is None:
                return None
            stats = self._columns[name] = ColumnStatistics.from_dict(state)
        return stats

    def _as_mapping(self) -> dict:
        for name in self._raw:
            self.column(name)
        return self._columns

    def __contains__(self, name: str) -> bool:
        return name in self._raw

    def __len__(self) -> int:
        return len(self._raw)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._raw)

    @property
    def parsed_column_names(self) -> tuple[str, ...]:
        """Columns whose statistics have been parsed so far (for tests)."""
        return tuple(self._columns)
