"""Wire protocol: JSON requests in, JSON-ready results out.

A request body is a query :class:`~repro.query.plan.Plan` in its JSON
grammar (:meth:`Plan.from_json <repro.query.plan.Plan.from_json>`) plus the
table it runs on and an optional trace flag::

    {
      "table": "trips",
      "where": {"op": "and", "children": [
          {"op": "between", "column": "ship", "lo": 8100, "hi": null},
          {"op": "not", "child": {"op": "eq", "column": "flag", "value": "R"}}
      ]},
      "group_by": ["tag"],
      "aggregates": {"n": {"fn": "count"}, "total": {"fn": "sum", "column": "fare"}},
      "limit": 100
    }

Predicate nodes are ``eq`` (column, value), ``between`` (column, lo, hi —
both keys required, ``null`` opens that side), ``in`` (column, values),
``and``/``or`` (two or more children) and ``not`` (child); constants are
integers or strings.  ``select`` (a list of column names) and
``aggregates``/``group_by`` are mutually exclusive.  An aggregate's ``fn``
is one of ``count`` (which takes no ``column``), ``sum``, ``min``, ``max``,
``avg``, ``var`` and ``std``; the object's key order is the output column
order.  ``order_by`` (a column name, or ``{"column": ..., "desc": true}``)
orders the output rows; with ``k`` (a row count that requires ``order_by``
and replaces ``limit``) the pair runs as the engine's fused top-k.
``having`` is a predicate over the aggregation's *output* columns.

The plan's fingerprint is its canonical JSON text, so two requests meaning
the same query share a result-cache entry and no two different ones do.
An optional ``"trace": true`` flag asks the service to attach the executed
query's span tree (a :class:`~repro.query.tracing.QueryTrace` dict) to the
response body.  Parsing is strict: unknown keys, unknown predicate ops and
malformed shapes raise :class:`~repro.errors.ValidationError`, which the
HTTP layer maps to 400 — the engine never sees a malformed request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import expect
from ..query.plan import LazyQuery, Plan, PlanResult

__all__ = ["QueryRequest", "build_query", "encode_result", "parse_request"]


@dataclass(frozen=True)
class QueryRequest:
    """A validated query request: the table, its plan and the trace flag."""

    table: str
    plan: Plan
    #: Attach the per-request span tree to the response body.
    trace: bool = False


def parse_request(payload: object) -> QueryRequest:
    """Validate a decoded JSON body into a :class:`QueryRequest`."""
    expect(isinstance(payload, dict), "request body must be a JSON object")
    assert isinstance(payload, dict)
    table = payload.get("table")
    expect(isinstance(table, str) and table != "", "request needs a 'table' name")
    trace = payload.get("trace", False)
    expect(isinstance(trace, bool), "'trace' must be a boolean")
    body = {key: value for key, value in payload.items() if key not in ("table", "trace")}
    return QueryRequest(table=table, plan=Plan.from_json(body), trace=trace)


def build_query(lazy: LazyQuery, request: QueryRequest) -> LazyQuery:
    """A fresh ``LazyQuery`` chain running the request's plan."""
    return lazy.with_plan(request.plan)


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
