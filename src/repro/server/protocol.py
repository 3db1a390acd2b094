"""Wire protocol: JSON requests in, JSON-ready results out.

The request body is a small JSON object that lowers 1:1 onto a
:class:`~repro.query.plan.LazyQuery` chain::

    {
      "table": "trips",
      "where": {"op": "and", "children": [
          {"op": "between", "column": "ship", "lo": 8100, "hi": 8200},
          {"op": "not", "child": {"op": "eq", "column": "flag", "value": "R"}}
      ]},
      "group_by": ["tag"],
      "aggregates": {"n": {"fn": "count"}, "total": {"fn": "sum", "column": "fare"}},
      "limit": 100
    }

``select`` (a list of column names) and ``aggregates``/``group_by`` are
mutually exclusive, exactly as in the fluent API.  An aggregate's ``fn`` is
one of ``count`` (which takes no ``column``), ``sum``, ``min``, ``max``,
``avg``, ``var`` and ``std``.  ``order_by`` (a column
name, or ``{"column": ..., "desc": true}``) orders the output rows; with
``k`` (a row count that requires ``order_by`` and replaces ``limit``) the
pair lowers onto the engine's fused top-k path.  ``having`` is a predicate
over the aggregation's *output* columns.  All of these are
fingerprint-canonical: two requests meaning the same query produce the
same plan fingerprint, so the service's result cache keeps working.  An
optional ``"trace": true`` flag asks the service to attach the executed
query's span tree (a :class:`~repro.query.tracing.QueryTrace` dict) to the
response body.  Parsing is strict:
unknown keys, unknown predicate ops and malformed shapes raise
:class:`~repro.errors.ValidationError`, which the HTTP layer maps to 400 —
the engine never sees a malformed request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..query.aggregates import AggregateFunction, parse_aggregate
from ..query.plan import LazyQuery, PlanResult
from ..query.predicates import And, Between, Eq, In, Not, Or, Predicate

__all__ = ["QueryRequest", "build_query", "encode_result", "parse_predicate", "parse_request"]

_REQUEST_KEYS = {
    "table",
    "where",
    "select",
    "group_by",
    "aggregates",
    "having",
    "order_by",
    "k",
    "limit",
    "trace",
}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _column_of(node: dict, op: str) -> str:
    column = node.get("column")
    _expect(isinstance(column, str) and column != "", f"{op!r} predicate needs a 'column' string")
    assert isinstance(column, str)
    return column


def _scalar(node: dict, key: str, op: str) -> "int | str":
    _expect(key in node, f"{op!r} predicate needs {key!r}")
    value = node[key]
    _expect(
        isinstance(value, (int, str)) and not isinstance(value, bool),
        f"{op!r} predicate {key!r} must be an integer or string",
    )
    assert isinstance(value, (int, str))
    return value


def parse_predicate(node: object) -> Predicate:
    """A JSON predicate node as a :class:`~repro.query.predicates.Predicate`.

    Ops: ``eq`` (column, value), ``between`` (column, lo, hi), ``in``
    (column, values), ``and``/``or`` (children), ``not`` (child).
    """
    _expect(isinstance(node, dict), "predicate nodes must be JSON objects")
    assert isinstance(node, dict)
    op = node.get("op")
    _expect(isinstance(op, str), "predicate nodes need an 'op' string")
    if op == "eq":
        return Eq(_column_of(node, op), _scalar(node, "value", op))
    if op == "between":
        return Between(_column_of(node, op), _scalar(node, "lo", op), _scalar(node, "hi", op))
    if op == "in":
        values = node.get("values")
        _expect(
            isinstance(values, list) and len(values) > 0,
            "'in' predicate needs a non-empty 'values' list",
        )
        for value in values:
            _expect(
                isinstance(value, (int, str)) and not isinstance(value, bool),
                "'in' predicate values must be integers or strings",
            )
        return In(_column_of(node, op), values)
    if op in ("and", "or"):
        children = node.get("children")
        _expect(
            isinstance(children, list) and len(children) >= 2,
            f"{op!r} predicate needs a 'children' list with at least two nodes",
        )
        parsed = [parse_predicate(child) for child in children]
        return And(*parsed) if op == "and" else Or(*parsed)
    if op == "not":
        _expect("child" in node, "'not' predicate needs a 'child' node")
        return Not(parse_predicate(node["child"]))
    raise ValidationError(f"unknown predicate op {op!r}")


def _parse_aggregate(name: str, node: object) -> AggregateFunction:
    _expect(isinstance(node, dict), f"aggregate {name!r} must be a JSON object")
    assert isinstance(node, dict)
    try:
        return parse_aggregate(node.get("fn"), node.get("column"))
    except ValidationError as error:
        raise ValidationError(f"aggregate {name!r}: {error}") from None


@dataclass(frozen=True)
class QueryRequest:
    """A validated query request, ready to lower onto a ``LazyQuery``."""

    table: str
    where: Predicate | None = None
    select: tuple[str, ...] | None = None
    group_by: tuple[str, ...] = ()
    aggregates: tuple[tuple[str, AggregateFunction], ...] = ()
    #: HAVING predicate over the aggregation's output columns.
    having: Predicate | None = None
    #: Sort column; ``k`` (the JSON top-k row count) folds into ``limit``,
    #: so an ordered-and-limited request always takes the fused top-k path.
    order_by: str | None = None
    order_desc: bool = False
    limit: int | None = None
    #: Attach the per-request span tree to the response body.
    trace: bool = False


def parse_request(payload: object) -> QueryRequest:
    """Validate a decoded JSON body into a :class:`QueryRequest`."""
    _expect(isinstance(payload, dict), "request body must be a JSON object")
    assert isinstance(payload, dict)
    unknown = set(payload) - _REQUEST_KEYS
    _expect(not unknown, f"unknown request key(s): {sorted(unknown)}")
    table = payload.get("table")
    _expect(isinstance(table, str) and table != "", "request needs a 'table' name")

    where = None
    if payload.get("where") is not None:
        where = parse_predicate(payload["where"])

    select: tuple[str, ...] | None = None
    if payload.get("select") is not None:
        raw_select = payload["select"]
        _expect(
            isinstance(raw_select, list)
            and len(raw_select) > 0
            and all(isinstance(c, str) and c for c in raw_select),
            "'select' must be a non-empty list of column names",
        )
        select = tuple(raw_select)

    group_by: tuple[str, ...] = ()
    if payload.get("group_by") is not None:
        raw_group = payload["group_by"]
        _expect(
            isinstance(raw_group, list)
            and len(raw_group) > 0
            and all(isinstance(c, str) and c for c in raw_group),
            "'group_by' must be a non-empty list of column names",
        )
        group_by = tuple(raw_group)

    aggregates: tuple[tuple[str, AggregateFunction], ...] = ()
    if payload.get("aggregates") is not None:
        raw_aggs = payload["aggregates"]
        _expect(
            isinstance(raw_aggs, dict) and len(raw_aggs) > 0,
            "'aggregates' must be a non-empty object of name -> {fn, column}",
        )
        aggregates = tuple(
            (name, _parse_aggregate(name, node)) for name, node in raw_aggs.items()
        )

    _expect(
        not (select and (group_by or aggregates)),
        "'select' cannot be combined with 'group_by'/'aggregates'",
    )
    _expect(not (group_by and not aggregates), "'group_by' needs 'aggregates'")

    having = None
    if payload.get("having") is not None:
        _expect(bool(aggregates), "'having' needs 'aggregates'")
        having = parse_predicate(payload["having"])

    order_by: str | None = None
    order_desc = False
    if payload.get("order_by") is not None:
        raw_order = payload["order_by"]
        if isinstance(raw_order, str):
            _expect(raw_order != "", "'order_by' column name must be non-empty")
            order_by = raw_order
        else:
            _expect(
                isinstance(raw_order, dict) and not (set(raw_order) - {"column", "desc"}),
                "'order_by' must be a column name or {'column': ..., 'desc': bool}",
            )
            assert isinstance(raw_order, dict)
            column = raw_order.get("column")
            _expect(
                isinstance(column, str) and column != "",
                "'order_by' needs a 'column' string",
            )
            assert isinstance(column, str)
            order_by = column
            desc = raw_order.get("desc", False)
            _expect(isinstance(desc, bool), "'order_by' 'desc' must be a boolean")
            order_desc = bool(desc)
        _expect(
            not (group_by or aggregates),
            "'order_by' cannot be combined with 'group_by'/'aggregates'",
        )

    limit = payload.get("limit")
    if limit is not None:
        _expect(
            isinstance(limit, int) and not isinstance(limit, bool) and limit >= 0,
            "'limit' must be a non-negative integer",
        )

    k = payload.get("k")
    if k is not None:
        _expect(
            isinstance(k, int) and not isinstance(k, bool) and k >= 0,
            "'k' must be a non-negative integer",
        )
        _expect(order_by is not None, "'k' needs 'order_by'")
        _expect(limit is None, "'k' replaces 'limit'; send one or the other")
        limit = k

    trace = payload.get("trace", False)
    _expect(isinstance(trace, bool), "'trace' must be a boolean")
    assert isinstance(trace, bool)
    return QueryRequest(
        table=table,
        where=where,
        select=select,
        group_by=group_by,
        aggregates=aggregates,
        having=having,
        order_by=order_by,
        order_desc=order_desc,
        limit=limit,
        trace=trace,
    )


def build_query(lazy: LazyQuery, request: QueryRequest) -> LazyQuery:
    """Apply a validated request to a fresh ``LazyQuery`` chain."""
    if request.where is not None:
        lazy = lazy.where(request.where)
    if request.select is not None:
        lazy = lazy.select(*request.select)
    if request.group_by:
        lazy = lazy.group_by(*request.group_by)
    if request.aggregates:
        lazy = lazy.agg(**dict(request.aggregates))
    if request.having is not None:
        lazy = lazy.having(request.having)
    if request.order_by is not None:
        lazy = lazy.order_by(request.order_by, desc=request.order_desc)
    if request.limit is not None:
        lazy = lazy.limit(request.limit)
    return lazy


def _json_value(value: object) -> object:
    """One output cell as a plain JSON type (numpy scalars included)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    if isinstance(value, bytes):
        return value.decode("utf-8")
    return value


def encode_result(result: PlanResult) -> dict:
    """A :class:`~repro.query.plan.PlanResult` as a JSON-ready dict."""
    columns = {}
    for name, values in result.columns.items():
        if isinstance(values, np.ndarray):
            # .tolist() converts numeric dtypes to plain ints/floats; string
            # and object arrays still need the per-cell normalisation.
            if values.dtype.kind in ("U", "S", "O"):
                columns[name] = [_json_value(v) for v in values.tolist()]
            else:
                columns[name] = values.tolist()
        else:
            columns[name] = [_json_value(v) for v in values]
    return {"columns": columns, "n_rows": result.n_rows}
