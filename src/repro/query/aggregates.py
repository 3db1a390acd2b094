"""The aggregate algebra: five moments, seven aggregates, one parser.

The only module of the query layer, the server and the CLI that knows what
an aggregate *is*; everything else moves opaque :class:`Moment` rows and
:class:`AggregateFunction` descriptors around.

A **moment** is a reduction whose partials merge exactly and in any order.
Each of the five rows of :data:`MOMENTS` — ``count``, ``sum``, ``sumsq``,
``min``, ``max`` — defines it once, for every shape the data arrives in:

* ``from_values(values, bound=None)`` — gathered values (an integer array;
  ``count``/``min``/``max`` also take a string list);
* ``scatter_by_group(values, inverse, n_groups, bound=None)`` — one partial
  per group, ``inverse[i]`` being row ``i``'s group;
* ``merge(a, b)`` and ``empty`` — folding partials, and the partial of no
  rows.  (Lifting from a zone map is ``ColumnStatistics.aggregate_value``,
  which speaks the same names and returns ``None`` for what it cannot affirm.)

Σx and Σx² are exact: the vectorised int64 reduction runs only when
``n·max|x|`` (``n·max|x|²``) fits — ``bound`` is the caller's ``max|x|``,
normally the block's zone-map magnitude, so the guard costs no pass over
the data — and Python integers take over otherwise.

An **aggregate** names the moments it needs over its column and finalises
their merged values at output.  Adding one is a subclass; nothing else —
compiler, kernels, server, CLI — needs an edit::

    @dataclass(frozen=True, repr=False)
    class MeanSquare(AggregateFunction):
        column: str
        kind = "mean_square"
        moments = ("sumsq", "count")
        needs_int = True

        def finalize(self, total_sq, n):
            return None if n == 0 else total_sq / n
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from ..errors import ValidationError
from ..storage.statistics import fits_int64

__all__ = [
    "Moment",
    "MOMENTS",
    "AggregateFunction",
    "AggregateSpec",
    "Count",
    "Sum",
    "Min",
    "Max",
    "Avg",
    "Var",
    "Std",
    "AGGREGATES",
    "moment_slots",
    "parse_aggregate",
]


@dataclass(frozen=True)
class Moment:
    """One exactly-mergeable reduction (see the module docstring)."""

    name: str
    from_values: Callable[..., Any]
    scatter_by_group: Callable[..., list]
    merge: Callable[[Any, Any], Any]
    empty: Any


def _power_sum(name: str, power: int) -> Moment:
    """Σ x**power — in int64 when that is exact, in Python ints otherwise."""

    def terms(values: Any, bound: int | None) -> tuple[np.ndarray, type]:
        if not isinstance(values, np.ndarray):
            raise ValidationError(f"cannot {name} a string column")
        if bound is None:
            bound = max(abs(int(values.min(initial=0))), abs(int(values.max(initial=0))))
        dtype: type = np.int64 if fits_int64(len(values), bound, power) else object
        cast = values.astype(dtype, copy=False)
        return (cast if power == 1 else cast * cast), dtype

    def from_values(values: Any, bound: int | None = None) -> int:
        return int(terms(values, bound)[0].sum())

    def scatter(values: Any, inverse: np.ndarray, n_groups: int, bound: int | None = None) -> list:
        powers, dtype = terms(values, bound)
        out = np.zeros(n_groups, dtype=dtype)
        np.add.at(out, inverse, powers)
        return out.tolist()

    return Moment(name, from_values, scatter, operator.add, 0)


def _extreme(name: str, ufunc: np.ufunc, pick: Callable[..., Any], fill: int) -> Moment:
    """min / max — ``ufunc`` over integer arrays, ``pick`` over strings and partials."""

    def merge(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return b if a is None else a
        return pick(a, b)

    def from_values(values: Any, bound: int | None = None) -> Any:
        if len(values) == 0:
            return None
        return int(ufunc.reduce(values)) if isinstance(values, np.ndarray) else pick(values)

    def scatter(values: Any, inverse: np.ndarray, n_groups: int, bound: int | None = None) -> list:
        if isinstance(values, np.ndarray):
            out = np.full(n_groups, fill)
            ufunc.at(out, inverse, values)
            seen = np.bincount(inverse, minlength=n_groups).tolist()
            return [value if n else None for value, n in zip(out.tolist(), seen)]
        partials: list = [None] * n_groups
        for group, value in zip(inverse, values):
            partials[group] = merge(partials[group], value)
        return partials

    return Moment(name, from_values, scatter, merge, None)


#: The moment table — the single definition of every reduction.
MOMENTS: dict[str, Moment] = {
    moment.name: moment
    for moment in (
        Moment(
            "count",
            from_values=lambda values, bound=None: len(values),
            scatter_by_group=lambda values, inverse, n_groups, bound=None: (
                np.bincount(inverse, minlength=n_groups).tolist()
            ),
            merge=operator.add,
            empty=0,
        ),
        _power_sum("sum", 1),
        _power_sum("sumsq", 2),
        _extreme("min", np.minimum, min, int(np.iinfo(np.int64).max)),
        _extreme("max", np.maximum, max, int(np.iinfo(np.int64).min)),
    )
}


class AggregateFunction:
    """Base of the aggregate function descriptors.

    ``kind`` names the function and ``column`` its input (``None`` reduces
    the qualifying rows themselves, as ``count`` does).  ``moments`` lists
    the :data:`MOMENTS` needed over that column and :meth:`finalize` turns
    their merged values, passed in that order, into the output value;
    ``needs_int`` rejects string inputs at compile time.  Instances are
    immutable descriptors; the compiler decides per block whether a moment
    is answered from statistics or by gather-and-reduce.
    """

    kind: str = ""
    column: str | None = None
    moments: tuple[str, ...] = ()
    needs_int: bool = False

    def finalize(self, *values: Any) -> Any:
        return values[0]

    def describe(self) -> str:
        return f"{self.kind}({self.column if self.column is not None else '*'})"

    def to_json(self) -> dict:
        """The wire form ``{"fn": kind, "column": ...}`` :func:`parse_aggregate` reads."""
        if self.column is None:
            return {"fn": self.kind}
        return {"fn": self.kind, "column": self.column}

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True, repr=False)
class Count(AggregateFunction):
    """``count(*)`` — the number of qualifying rows."""

    kind = "count"
    moments = ("count",)


class _ColumnAggregate(AggregateFunction):
    def __post_init__(self) -> None:
        if not self.column:
            raise ValidationError(f"{self.kind} needs a non-empty input column name")


@dataclass(frozen=True, repr=False)
class Sum(_ColumnAggregate):
    """``sum(column)`` over the qualifying rows (integer columns only)."""

    column: str
    kind = "sum"
    moments = ("sum",)
    needs_int = True


@dataclass(frozen=True, repr=False)
class Min(_ColumnAggregate):
    """``min(column)`` over the qualifying rows (``None`` when there are none)."""

    column: str
    kind = "min"
    moments = ("min",)


@dataclass(frozen=True, repr=False)
class Max(_ColumnAggregate):
    """``max(column)`` over the qualifying rows (``None`` when there are none)."""

    column: str
    kind = "max"
    moments = ("max",)


@dataclass(frozen=True, repr=False)
class Avg(_ColumnAggregate):
    """``avg(column)`` — exact Σx over the row count, divided only at output.

    A fully-covered block is therefore answered from its zone map exactly
    like ``sum`` (diff-encoded columns included: their Σx is derived from
    the reference and the stored deltas).  ``None`` over an empty selection.
    """

    column: str
    kind = "avg"
    moments = ("sum", "count")
    needs_int = True

    def finalize(self, *values: Any) -> float | None:
        total, n = values
        return None if n == 0 else total / n


@dataclass(frozen=True, repr=False)
class Var(_ColumnAggregate):
    """``var(column)`` — population variance, ``(n·Σx² − (Σx)²) / n²``.

    The numerator is all-integer, so every partial is exact and merge order
    cannot change the result.  ``None`` over an empty selection.
    """

    column: str
    kind = "var"
    moments = ("count", "sum", "sumsq")
    needs_int = True

    def finalize(self, *values: Any) -> float | None:
        n, total, total_sq = values
        # max(): the one float division must not round to a tiny negative.
        return None if n == 0 else max((n * total_sq - total * total) / (n * n), 0.0)


@dataclass(frozen=True, repr=False)
class Std(Var):
    """``std(column)`` — population standard deviation (√ of :class:`Var`)."""

    kind = "std"

    def finalize(self, *values: Any) -> float | None:
        variance = super().finalize(*values)
        return None if variance is None else math.sqrt(variance)


#: (output name, function) pairs, in output order.
AggregateSpec = tuple[tuple[str, AggregateFunction], ...]

#: Function name -> class: what the CLI and the wire protocol can spell.
AGGREGATES: dict[str, type[AggregateFunction]] = {
    cls.kind: cls for cls in (Count, Sum, Min, Max, Avg, Var, Std)
}


def moment_slots(
    aggregates: AggregateSpec,
) -> tuple[list[tuple[str | None, Moment]], list[tuple[int, ...]]]:
    """The distinct ``(column, moment)`` pairs a query needs, plus wiring.

    Pairs come in first-use order — ``sum(x)``, ``avg(x)`` and ``var(x)``
    share one Σx — and each aggregate gets the indices of its moments among
    them (the arguments of its ``finalize``).
    """
    index: dict[tuple[str | None, str], int] = {}
    slots = [
        tuple(index.setdefault((fn.column, name), len(index)) for name in fn.moments)
        for _, fn in aggregates
    ]
    unknown = [name for _, name in index if name not in MOMENTS]
    if unknown:
        raise ValidationError(f"unknown moment {unknown[0]!r} (expected one of {list(MOMENTS)})")
    return [(column, MOMENTS[name]) for column, name in index], slots


def parse_aggregate(fn_name: object, column: object = None) -> AggregateFunction:
    """An aggregate from its textual spec (CLI ``--agg``, JSON ``fn``/``column``)."""
    cls = AGGREGATES.get(fn_name) if isinstance(fn_name, str) else None
    if cls is None:
        raise ValidationError(
            f"unknown aggregate function {fn_name!r} (expected one of {', '.join(AGGREGATES)})"
        )
    if not fields(cls):  # type: ignore[arg-type]
        if column is not None:
            raise ValidationError(f"{cls.kind} takes no input column, got {column!r}")
        return cls()
    if not isinstance(column, str) or not column:
        raise ValidationError(f"{cls.kind} needs an input column name")
    return cls(column)  # type: ignore[call-arg]
