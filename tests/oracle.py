"""Reference answers computed over a source ``Table``'s raw columns.

The query engine must answer exactly what a full decode answers.  This
module is that answer, written without the engine: predicates are decided
row by row on Python values, the seven aggregates reduce Python ints (so
Σx and Σx² never wrap), groups come out in ascending key order and
order-by ranks rows by ``(key, row id)`` — ties in ascending row order,
for descending keys too.

The engine-side reference is :func:`decode_engine`: an engine whose empty
kernel registry declines every column, so every predicate, aggregate,
group-by and top-k runs the decode fallback a declined kernel takes.
:class:`Opaque` is the leaf that no zone map and no kernel can answer.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.query import (
    AggregateFunction,
    And,
    Between,
    Engine,
    EngineConfig,
    Eq,
    In,
    KernelRegistry,
    Not,
    Or,
    Predicate,
)
from repro.storage import Table


def decode_engine(config: EngineConfig | None = None) -> Engine:
    """An engine with no compressed-domain kernel: decode, then compare."""
    return Engine(config, kernels=KernelRegistry())


class Opaque(Predicate):
    """A Python condition on one column's decoded values.

    It states no comparison and has no zone-map test, so the planner scans
    every block for it and every kernel declines it.  Tests use it to force
    the decode path, or to make some blocks slow.  ``description`` must
    pin the condition down: it is the fingerprint.
    """

    def __init__(self, column: str, condition: Callable[[np.ndarray], Any], description: str):
        self.column = column
        self.condition = condition
        self.description = description

    def columns(self) -> tuple[str, ...]:
        return (self.column,)

    def evaluate(self, values) -> np.ndarray:
        return np.asarray(self.condition(np.asarray(values[self.column])), dtype=bool)

    def describe(self) -> str:
        return self.description


def _comparable(value: Any, constant: Any) -> bool:
    # A constant of the other type (string against integer) matches no row.
    return isinstance(value, str) == isinstance(constant, str)


def matches(predicate: Predicate, row: Mapping[str, Any]) -> bool:
    """Whether one row (column name -> Python value) satisfies ``predicate``."""
    if isinstance(predicate, Not):
        return not matches(predicate.child, row)
    if isinstance(predicate, And):
        return all(matches(child, row) for child in predicate.children)
    if isinstance(predicate, Or):
        return any(matches(child, row) for child in predicate.children)
    value = row[predicate.column]
    if isinstance(predicate, Opaque):
        return bool(predicate.evaluate({predicate.column: [value]})[0])
    if isinstance(predicate, Eq):
        return _comparable(value, predicate.value) and value == predicate.value
    if isinstance(predicate, In):
        return any(_comparable(value, c) and value == c for c in predicate.values)
    if isinstance(predicate, Between):
        low, high = predicate.low, predicate.high
        return (low is None or (_comparable(value, low) and low <= value)) and (
            high is None or (_comparable(value, high) and value <= high)
        )
    raise TypeError(f"no oracle for {type(predicate).__name__}")


def column(table: Table, name: str) -> list:
    """A column's raw values as Python ints or strs."""
    values = table.column(name)
    return [v if isinstance(v, str) else int(v) for v in values]


def rows(table: Table, names: Sequence[str]) -> list[dict[str, Any]]:
    columns = {name: column(table, name) for name in names}
    return [
        {name: columns[name][i] for name in names} for i in range(table.n_rows)
    ]


def filter_rows(table: Table, predicate: Predicate | None) -> list[int]:
    """The ascending row ids that satisfy ``predicate`` (all rows for ``None``)."""
    if predicate is None:
        return list(range(table.n_rows))
    return [i for i, row in enumerate(rows(table, predicate.columns())) if matches(predicate, row)]


def aggregate(fn: AggregateFunction, values: list) -> Any:
    """One aggregate over the selected rows' Python values."""
    n = len(values)
    if fn.kind == "count":
        return n
    if fn.kind == "sum":
        return sum(values)
    if fn.kind == "min":
        return min(values, default=None)
    if fn.kind == "max":
        return max(values, default=None)
    if fn.kind == "avg":
        return None if n == 0 else sum(values) / n
    variance = None
    if n:
        total, total_sq = sum(values), sum(v * v for v in values)
        variance = max((n * total_sq - total * total) / (n * n), 0.0)
    if fn.kind == "var":
        return variance
    assert fn.kind == "std", fn.kind
    return None if variance is None else math.sqrt(variance)


def group_by(
    table: Table,
    predicate: Predicate | None,
    keys: Sequence[str],
    aggregates: Mapping[str, AggregateFunction],
) -> dict[str, list]:
    """``PlanResult.columns`` of ``where(predicate).group_by(*keys).agg(...)``.

    Groups come out in ascending key order; with no ``keys`` there is one
    group, also when no row qualifies.
    """
    selected = filter_rows(table, predicate)
    key_columns = [column(table, name) for name in keys]
    groups: dict[tuple, list[int]] = {} if keys else {(): []}
    for i in selected:
        groups.setdefault(tuple(values[i] for values in key_columns), []).append(i)
    ordered = sorted(groups)
    out: dict[str, list] = {name: [key[p] for key in ordered] for p, name in enumerate(keys)}
    for name, fn in aggregates.items():
        values = None if fn.column is None else column(table, fn.column)
        out[name] = [
            aggregate(fn, groups[key] if values is None else [values[i] for i in groups[key]])
            for key in ordered
        ]
    return out


def order_by(
    table: Table,
    predicate: Predicate | None,
    name: str,
    descending: bool = False,
    limit: int | None = None,
) -> list[int]:
    """Row ids of ``where(predicate).order_by(name, desc=descending).limit(limit)``.

    Rows rank by key, and equal keys by ascending row id in both directions.
    """
    keys = column(table, name)
    # ``sorted(..., reverse=True)`` keeps equal elements in input order.
    ranked = sorted(filter_rows(table, predicate), key=keys.__getitem__, reverse=descending)
    return ranked if limit is None else ranked[:limit]
