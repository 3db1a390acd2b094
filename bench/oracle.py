"""The benchmark's reference evaluator: plain numpy over the generated inputs.

Nothing here goes through the program's planner, kernels, statistics or
encodings: a table is a dict of numpy arrays, a predicate is a boolean mask
over whole columns, an aggregate is a numpy reduction.  Queries are
described in the server's JSON plan grammar (the one neutral description
both the in-process builder and the HTTP workload share), and the expected
answer has the shape ``repro.server.protocol.encode_result`` produces, so one
comparison serves the in-process and the HTTP workloads alike.

Every check returns ``True``/``False``; a mismatch is counted as a failed
op by the caller, never raised.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["TableOracle", "same_result", "same_columns"]


class TableOracle:
    """Reference answers for JSON plans over one generated table."""

    def __init__(self, table: Any) -> None:
        self.n_rows = int(table.n_rows)
        self._columns: dict[str, np.ndarray] = {}
        for name in table.column_names:
            values = table.column(name)
            if isinstance(values, list):
                self._columns[name] = np.asarray(values, dtype=object)
            else:
                self._columns[name] = np.asarray(values)
        #: Per-column sort order, built on first ``eq`` use, so that the
        #: thousands of distinct point lookups cost a binary search each
        #: instead of a full-column comparison.
        self._sorted: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- predicates ------------------------------------------------------------

    def _eq_rows(self, column: str, value: Any) -> np.ndarray:
        if column not in self._sorted:
            order = np.argsort(self._columns[column], kind="stable")
            self._sorted[column] = (order, self._columns[column][order])
        order, ordered = self._sorted[column]
        lo = int(np.searchsorted(ordered, value, side="left"))
        hi = int(np.searchsorted(ordered, value, side="right"))
        return np.sort(order[lo:hi])

    def rows(self, where: Mapping[str, Any] | None) -> np.ndarray:
        """Ascending ids of the rows a JSON predicate selects."""
        if where is None:
            return np.arange(self.n_rows, dtype=np.int64)
        if where["op"] == "eq":
            return self._eq_rows(where["column"], where["value"])
        return np.flatnonzero(self._mask(where))

    def _mask(self, node: Mapping[str, Any]) -> np.ndarray:
        op = node["op"]
        if op == "eq":
            return self._columns[node["column"]] == node["value"]
        if op == "between":
            values = self._columns[node["column"]]
            return (values >= node["lo"]) & (values <= node["hi"])
        if op == "in":
            return np.isin(self._columns[node["column"]], np.asarray(node["values"]))
        if op == "and":
            return np.logical_and.reduce([self._mask(c) for c in node["children"]])
        if op == "or":
            return np.logical_or.reduce([self._mask(c) for c in node["children"]])
        if op == "not":
            return ~self._mask(node["child"])
        raise ValueError(f"oracle does not know predicate op {op!r}")

    # -- plans -----------------------------------------------------------------

    @staticmethod
    def _reduce(fn: str, values: np.ndarray | None, n: int) -> Any:
        if fn == "count" or values is None:
            return n
        if fn == "sum":
            return int(values.sum(dtype=np.int64)) if n else 0
        if n == 0:
            return None
        if fn == "min":
            return int(values.min())
        if fn == "max":
            return int(values.max())
        if fn == "avg":
            return int(values.sum(dtype=np.int64)) / n
        raise ValueError(f"oracle does not know aggregate {fn!r}")

    def answer(self, plan: Mapping[str, Any]) -> dict[str, Any]:
        """The expected ``{"columns": ..., "n_rows": ...}`` body for ``plan``."""
        rows = self.rows(plan.get("where"))
        aggregates: Mapping[str, Mapping[str, str]] = plan.get("aggregates") or {}
        if aggregates:
            group_by: Sequence[str] = plan.get("group_by") or ()
            if not group_by:
                columns = {
                    name: [
                        self._reduce(
                            spec["fn"],
                            self._columns[spec["column"]][rows] if "column" in spec else None,
                            int(rows.size),
                        )
                    ]
                    for name, spec in aggregates.items()
                }
                return {"columns": columns, "n_rows": 1}
            (key,) = group_by  # the benchmark only groups by one column
            order = np.argsort(self._columns[key][rows], kind="stable")
            rows = rows[order]
            keys = self._columns[key][rows]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if rows.size else []
            bounds = list(starts) + [rows.size]
            columns = {key: [keys[i].item() for i in starts]}
            for name, spec in aggregates.items():
                values = self._columns[spec["column"]][rows] if "column" in spec else None
                columns[name] = [
                    self._reduce(spec["fn"], None if values is None else values[lo:hi], hi - lo)
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
            return {"columns": columns, "n_rows": len(starts)}

        order_by = plan.get("order_by")
        if order_by is not None:
            column = order_by["column"] if isinstance(order_by, dict) else order_by
            desc = bool(order_by.get("desc", False)) if isinstance(order_by, dict) else False
            keys = self._columns[column][rows]
            # Ties keep ascending row id, which is the engine's contract.
            order = np.lexsort((rows, -keys if desc else keys))
            rows = rows[order]
        limit = plan.get("k", plan.get("limit"))
        if limit is not None:
            rows = rows[: int(limit)]
        select = plan.get("select") or list(self._columns)
        return {
            "columns": {name: self._columns[name][rows].tolist() for name in select},
            "n_rows": int(rows.size),
        }

    def gather(self, names: Sequence[str], row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """The values ``materialize_columns`` must return for ``row_ids``."""
        return {name: self._columns[name][row_ids] for name in names}


def _same_value(got: Any, want: Any) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-9)
    return bool(got == want)


def same_result(got: Mapping[str, Any], want: Mapping[str, Any]) -> bool:
    """Compare two ``encode_result``-shaped bodies (floats to 1e-9 relative)."""
    try:
        if got.get("n_rows") != want["n_rows"]:
            return False
        if set(got["columns"]) != set(want["columns"]):
            return False
        for name, expected in want["columns"].items():
            actual = list(got["columns"][name])
            if len(actual) != len(expected):
                return False
            if not all(_same_value(a, e) for a, e in zip(actual, expected)):
                return False
        return True
    except (KeyError, TypeError, AttributeError):
        return False


def same_columns(got: Mapping[str, Any], want: Mapping[str, np.ndarray]) -> bool:
    """Compare materialised columns (arrays or string lists) with the oracle's."""
    try:
        if set(got) != set(want):
            return False
        for name, expected in want.items():
            actual = got[name]
            if expected.dtype == object:
                if list(actual) != expected.tolist():
                    return False
            elif not np.array_equal(np.asarray(actual), expected):
                return False
        return True
    except (KeyError, TypeError, ValueError):
        return False
