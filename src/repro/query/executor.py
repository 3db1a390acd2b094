"""Imperative query facade over the lazy logical-plan pipeline.

:class:`QueryExecutor` offers ``scan``/``filter``/``select``/``count`` as
direct calls: each builds a small logical plan (:mod:`repro.query.plan`)
and hands it to its engine's :class:`~repro.query.plan.QueryCompiler`,
which lowers it onto the structured scan pipeline — the memoizing
:class:`~repro.query.scan.ScanPlanner` prunes blocks against their zone
maps, the morsel-driven :class:`~repro.query.parallel.ParallelEngine`
evaluates the surviving blocks (``workers=1`` inline, ``workers > 1`` on a
persistent thread pool, bit-identical either way), and ``count`` is lowered
to an :class:`~repro.query.plan.Aggregate` node so fully-covered blocks are
answered from metadata alone.

The fluent lazy API (:meth:`~repro.storage.relation.Relation.query`)
exposes the same pipeline plus aggregation, group-by, limits and
``explain()``.

Every predicate scan produces a :class:`~repro.query.scan.ScanMetrics`
describing how much work the zone maps and the code-space paths saved; the
most recent one is available as :attr:`QueryExecutor.last_scan_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import UnknownColumnError
from ..storage.relation import Relation
from .engine import Engine, EngineConfig, resolve_engine
from .plan import Aggregate, Count, Filter, LogicalNode, Project, QueryCompiler, Scan
from .predicates import Predicate
from .scan import QueryOutput, ScanMetrics, materialize_columns
from .selection import SelectionVector

__all__ = ["Predicate", "QueryExecutor", "QueryResult"]


@dataclass
class QueryResult:
    """Materialised projection plus the row ids that qualified."""

    row_ids: np.ndarray
    columns: QueryOutput
    metrics: ScanMetrics | None = None

    @property
    def n_rows(self) -> int:
        return int(self.row_ids.size)

    def column(self, name: str):
        if name not in self.columns:
            raise UnknownColumnError(name, tuple(self.columns))
        return self.columns[name]


class QueryExecutor:
    """Filter + project queries over a compressed relation.

    Runs on a shared :class:`~repro.query.engine.Engine` (``engine=``,
    whose memoized compiler and worker pool the executor then uses) or on
    a private engine built from an :class:`~repro.query.engine.
    EngineConfig` (``config=``; defaults when omitted) — one or the other,
    not both.
    """

    def __init__(
        self,
        relation: Relation,
        engine: Engine | None = None,
        config: EngineConfig | None = None,
    ):
        self._relation = relation
        self._engine, self._owns_engine = resolve_engine(engine, config)
        self._compiler = self._engine.compiler_for(relation)
        self._last_metrics: ScanMetrics | None = None

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def workers(self) -> int:
        return self._compiler.workers

    @property
    def compiler(self) -> QueryCompiler:
        """The shared plan compiler (memoized planner + worker pool)."""
        return self._compiler

    def close(self) -> None:
        """Close the executor's private engine; a shared ``engine=`` is left alone.

        Long-lived processes that create many parallel executors should
        call this (or use the executor as a context manager) instead of
        waiting for garbage collection to release the worker threads.
        """
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def last_scan_metrics(self) -> ScanMetrics | None:
        """Metrics of the most recent ``filter``/``select``/``count`` call."""
        return self._last_metrics

    # -- positional access ----------------------------------------------------

    def materialize(
        self, columns: Sequence[str], selection: SelectionVector | np.ndarray
    ) -> QueryOutput:
        """Materialise a projection at explicitly selected rows."""
        return materialize_columns(self._relation, columns, selection)

    # -- predicate scans -------------------------------------------------------

    def _filter_plan(self, predicate: Predicate) -> LogicalNode:
        return Filter(Scan(self._relation), predicate)

    def scan(self, predicate: Predicate) -> tuple[np.ndarray, ScanMetrics]:
        """Global row ids satisfying ``predicate`` plus the scan metrics."""
        # A plan without a Project node materialises nothing but row ids.
        result = self._compiler.execute(self._filter_plan(predicate))
        self._last_metrics = result.metrics
        return result.row_ids, result.metrics

    def filter(self, predicate: Predicate) -> np.ndarray:
        """Global row ids of the rows satisfying ``predicate``."""
        row_ids, _ = self.scan(predicate)
        return row_ids

    def select(self, columns: Sequence[str], predicate: Predicate | None = None) -> QueryResult:
        """SELECT ``columns`` [WHERE ``predicate``] over the whole relation."""
        plan: LogicalNode = Scan(self._relation)
        if predicate is not None:
            plan = Filter(plan, predicate)
        plan = Project(plan, tuple(columns))
        result = self._compiler.execute(plan)
        self._last_metrics = result.metrics
        return QueryResult(row_ids=result.row_ids, columns=result.columns, metrics=result.metrics)

    def count(self, predicate: Predicate) -> int:
        """Number of rows satisfying ``predicate``.

        Lowered to an ``Aggregate`` plan: blocks the zone maps prove fully
        covered are counted from metadata, scanned blocks contribute their
        predicate-mask cardinality, and no row ids or projection output are
        ever allocated.
        """
        plan = Aggregate(self._filter_plan(predicate), aggregates=(("count", Count()),))
        result = self._compiler.execute(plan)
        self._last_metrics = result.metrics
        return int(result.scalar("count"))
