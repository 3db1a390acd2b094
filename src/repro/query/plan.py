"""Lazy logical query plans: builder, compiler, and aggregate pushdown.

This is the one front door of the query engine.  A query is *described*
first — as a small tree of logical nodes (:class:`Scan`,
:class:`Filter`, :class:`Project`, :class:`Aggregate`, :class:`Sort`,
:class:`TopK`, :class:`Limit`) built with the fluent :class:`LazyQuery`
API::

    result = (
        relation.query()
        .where(Between("ship", 8_100, 8_200))
        .agg(n=Count(), total=Sum("fare"))
        .execute()
    )

— and only executed when a terminal (:meth:`LazyQuery.execute`,
:meth:`LazyQuery.count`) runs.  Nothing is decoded while the query is being
composed, which is what lets the :class:`QueryCompiler` push work *down*
before any value is materialised:

* **predicate pushdown** — the filter is handed to the memoizing
  :class:`~repro.query.scan.ScanPlanner`, so zone maps prune blocks, and
  the surviving blocks are evaluated one per task on the engine's worker
  pool, where dictionary leaves run in code space;
* **projection pushdown** — only the columns a node actually references
  are ever decoded; a plan without a projection materialises nothing but
  row ids;
* **aggregation pushdown** — every aggregate is a finalisation over the
  exactly-mergeable moments of :mod:`~repro.query.aggregates`, and each
  moment is resolved per block through one cascade: the per-block
  :class:`~repro.storage.statistics.ColumnStatistics` of a *fully covered*
  block (no row decoded), then the selected runs of an RLE column, then
  gathered values; a group-by on a dictionary-encoded column aggregates in
  code space, deferring the string-heap materialisation to one decode per
  distinct group;
* **limit pushdown** — ``limit(k)`` truncates the row-id stream *before*
  the projection is materialised;
* **top-k pushdown** — ``order_by(col).limit(k)`` compiles to a fused
  :class:`TopK` that keeps a bounded set of ``k`` candidates per block
  (RLE columns answer in run space) and visits blocks in zone-map bound
  order, stopping as soon as no remaining block's bound can beat the
  current ``k``-th candidate — on a clustered column most blocks are
  never touched, and on a :class:`~repro.storage.disk.DiskRelation`
  never even fetched.

:meth:`LazyQuery.explain` renders the logical tree together with the
planner's per-block prune/full/scan decisions, so the effect of every
pushdown is visible before (or without) running the query.
"""

from __future__ import annotations

import heapq
import operator
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..encodings.dictionary import DictEncodedStringColumn
from ..errors import UnknownColumnError, ValidationError
from ..storage.block import CompressedBlock
from ..storage.relation import Relation
from .aggregates import (
    AggregateFunction,
    AggregateSpec,
    Avg,
    Count,
    Max,
    Min,
    Moment,
    Std,
    Sum,
    Var,
    moment_slots,
)
from .kernels import DEFAULT_KERNELS, KernelRegistry
from .parallel import parallel_map
from .predicates import And, Predicate
from .scan import (
    BlockDecision,
    ScanMetrics,
    ScanPlanner,
    evaluate_block_predicate,
    materialize_block_columns,
    materialize_columns,
    resolve_block,
)
from .tracing import NullTracer, QueryTrace, Tracer, activate, current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .engine import Engine, EngineConfig

__all__ = [
    "AggregateFunction",
    "Count",
    "Sum",
    "Min",
    "Max",
    "Avg",
    "Var",
    "Std",
    "LogicalNode",
    "Scan",
    "Filter",
    "Project",
    "Aggregate",
    "Sort",
    "TopK",
    "Limit",
    "render_plan",
    "CompiledQuery",
    "PlanResult",
    "QueryCompiler",
    "LazyQuery",
]


# ---------------------------------------------------------------------------
# logical plan nodes
# ---------------------------------------------------------------------------


class LogicalNode:
    """A node of the logical plan tree (a linear chain ending in a Scan)."""

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True, repr=False)
class Scan(LogicalNode):
    """Leaf: read a compressed relation."""

    relation: Relation

    def describe(self) -> str:
        relation = self.relation
        return (
            f"Scan [{len(relation.schema.names)} columns x {relation.n_rows:,} rows "
            f"in {relation.n_blocks} block(s)]"
        )


@dataclass(frozen=True, repr=False)
class Filter(LogicalNode):
    """Keep the child's rows satisfying a predicate."""

    child: LogicalNode
    predicate: Predicate

    def describe(self) -> str:
        return f"Filter [{self.predicate.describe()}]"


@dataclass(frozen=True, repr=False)
class Project(LogicalNode):
    """Materialise only the named columns of the child's rows."""

    child: LogicalNode
    columns: tuple[str, ...]

    def describe(self) -> str:
        return f"Project [{', '.join(self.columns)}]"


@dataclass(frozen=True, repr=False)
class Aggregate(LogicalNode):
    """Reduce the child's rows to named aggregates, optionally per group."""

    child: LogicalNode
    aggregates: AggregateSpec
    group_by: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = ", ".join(f"{name}={fn.describe()}" for name, fn in self.aggregates)
        if self.group_by:
            return f"Aggregate [{parts} group by {', '.join(self.group_by)}]"
        return f"Aggregate [{parts}]"


@dataclass(frozen=True, repr=False)
class Sort(LogicalNode):
    """Order the child's output rows by one column.

    Ordering is total and deterministic: equal keys keep ascending global
    row id, so every execution strategy (serial, parallel, out-of-core)
    produces bit-identical output.
    """

    child: LogicalNode
    column: str
    descending: bool = False

    def describe(self) -> str:
        return f"Sort [{self.column} {'desc' if self.descending else 'asc'}]"


@dataclass(frozen=True, repr=False)
class TopK(LogicalNode):
    """:class:`Sort` fused with :class:`Limit`: the ``k`` best rows by one column.

    Semantically identical to ``Limit(Sort(...), k)`` but executed as a
    bounded per-block candidate set merged across blocks, with zone-map
    bounds ordering the block visits and terminating the scan early.
    """

    child: LogicalNode
    column: str
    k: int
    descending: bool = False

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"TopK [{self.column} {direction}, k={self.k}]"


@dataclass(frozen=True, repr=False)
class Limit(LogicalNode):
    """Keep at most ``n`` of the child's output rows."""

    child: LogicalNode
    n: int

    def describe(self) -> str:
        return f"Limit [{self.n}]"


def render_plan(node: LogicalNode) -> str:
    """The logical tree as an indented multi-line string (root first)."""
    lines: list[str] = []
    depth = 0
    current: LogicalNode | None = node
    while current is not None:
        lines.append("  " * depth + current.describe())
        current = getattr(current, "child", None)
        depth += 1
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compiled form and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledQuery:
    """A validated, flattened logical plan ready for physical execution.

    ``projection=None`` means no :class:`Project` node was present: the
    query materialises nothing but row ids (the lazy default for
    ``filter``-style calls).
    """

    relation: Relation
    predicate: Predicate | None
    projection: tuple[str, ...] | None
    group_by: tuple[str, ...]
    aggregates: AggregateSpec
    limit: int | None
    #: HAVING predicate, evaluated over the *aggregated* output rows — its
    #: column names are aggregation output names, not physical columns.
    having: Predicate | None = None
    #: Sort column (physical), ``None`` for unordered plans.  With a
    #: ``limit`` the pair executes as a fused zone-map-driven top-k.
    order_by: str | None = None
    descending: bool = False

    def referenced_columns(self) -> tuple[str, ...]:
        """Every column the physical query will read, in first-use order.

        The HAVING predicate is deliberately absent: it references
        aggregation *output* names, which are validated separately.
        """
        seen: list[str] = []
        sources: list[str] = []
        if self.predicate is not None:
            sources.extend(self.predicate.columns())
        sources.extend(self.group_by)
        for _, fn in self.aggregates:
            if fn.column is not None:
                sources.append(fn.column)
        if self.order_by is not None:
            sources.append(self.order_by)
        sources.extend(self.projection or ())
        for name in sources:
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def gather_columns(self) -> tuple[str, ...]:
        """The group-by and aggregate input columns, in first-use order.

        This is the per-block required-column set of the *gather* side of an
        aggregation — what a block must materialise beyond the predicate
        columns.  A column-granular table fetches only these columns'
        sub-segments for blocks whose aggregates statistics cannot answer.
        """
        seen: list[str] = []
        for name in self.group_by:
            if name not in seen:
                seen.append(name)
        for _, fn in self.aggregates:
            if fn.column is not None and fn.column not in seen:
                seen.append(fn.column)
        return tuple(seen)

    def fingerprint(self) -> str:
        """A stable cache key for the whole plan.

        Combines the (canonical) predicate fingerprint with the projection,
        grouping, aggregate and limit shape of the plan.  Two plans with
        equal fingerprints over the same relation state (same
        ``cache_token``) produce bit-identical results, which is what lets
        the query service key its result cache on
        ``(table, plan fingerprint)``.
        """
        pred = "" if self.predicate is None else self.predicate.fingerprint()
        having = "" if self.having is None else self.having.fingerprint()
        projection = "*none*" if self.projection is None else ",".join(self.projection)
        aggregates = ";".join(
            f"{name}:{fn.kind}:{fn.column or ''}" for name, fn in self.aggregates
        )
        order = (
            ""
            if self.order_by is None
            else f"{self.order_by}:{'desc' if self.descending else 'asc'}"
        )
        return (
            f"Plan[pred={pred}|proj={projection}|group={','.join(self.group_by)}"
            f"|aggs={aggregates}|having={having}|order={order}"
            f"|limit={'' if self.limit is None else self.limit}]"
        )


@dataclass
class PlanResult:
    """The output of one executed plan.

    ``columns`` maps output names to value sequences: materialised column
    arrays/lists for projections, per-group key and aggregate value lists
    for aggregations (one entry per group, sorted by group key; exactly one
    entry when there is no group-by).  ``row_ids`` carries the qualifying
    global row ids for non-aggregate plans (``None`` after an aggregation —
    rows were reduced away); they are ascending except under a
    :class:`Sort`/:class:`TopK`, where they follow the requested order.
    """

    columns: dict[str, "np.ndarray | list"]
    row_ids: np.ndarray | None = None
    metrics: ScanMetrics | None = None

    @property
    def n_rows(self) -> int:
        if self.row_ids is not None:
            return int(self.row_ids.size)
        if self.columns:
            return len(next(iter(self.columns.values())))
        return 0

    def column(self, name: str) -> "np.ndarray | list":
        if name not in self.columns:
            raise UnknownColumnError(name, tuple(self.columns))
        return self.columns[name]

    def scalar(self, name: str) -> Any:
        """The single value of an ungrouped aggregate output."""
        values = self.column(name)
        if len(values) != 1:
            raise ValidationError(
                f"column {name!r} holds {len(values)} values, not a scalar; "
                "scalar() is for ungrouped aggregates"
            )
        return values[0]


# ---------------------------------------------------------------------------
# physical execution
# ---------------------------------------------------------------------------

def _combine_filters(predicates: list[Predicate]) -> Predicate | None:
    """Stacked Filter nodes (root -> leaf order) as one conjunction.

    Bottom-up order is kept, matching how the filters would have applied.
    """
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(*reversed(predicates))


class QueryCompiler:
    """Lower logical plans onto the ScanPlanner and per-block tasks.

    One compiler serves one relation under one
    :class:`~repro.query.engine.EngineConfig`; it owns the memoizing
    planner, so repeated queries reuse zone-map decisions.  It owns no
    threads: per-block tasks run on the ``pool`` an
    :class:`~repro.query.engine.Engine` hands it, and inline without one.
    """

    def __init__(
        self,
        relation: Relation,
        config: "EngineConfig | None" = None,
        kernels: KernelRegistry | None = None,
        pool: Executor | None = None,
    ) -> None:
        if config is None:
            from .engine import EngineConfig

            config = EngineConfig()
        self._relation = relation
        self._kernels = kernels if kernels is not None else DEFAULT_KERNELS
        self._workers = config.resolved_workers()
        self._planner = ScanPlanner(relation)
        self._pool = pool

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def planner(self) -> ScanPlanner:
        return self._planner

    # -- compilation -----------------------------------------------------------

    def compile(self, plan: LogicalNode) -> CompiledQuery:
        """Flatten and validate a logical plan against this relation."""
        schema = self._relation.schema
        where: list[Predicate] = []
        having_parts: list[Predicate] = []
        projection: tuple[str, ...] | None = None
        group_by: tuple[str, ...] = ()
        aggregates: AggregateSpec = ()
        limit: int | None = None
        order_by: str | None = None
        descending = False
        order_limit: int | None = None

        # Flatten the chain root -> leaf first: a Filter's meaning depends
        # on whether it sits above or below the Aggregate (HAVING over the
        # aggregated rows vs WHERE over the stored rows), which a single
        # forward walk cannot know yet.
        nodes: list[LogicalNode] = []
        node: LogicalNode = plan
        while not isinstance(node, Scan):
            nodes.append(node)
            child = getattr(node, "child", None)
            if child is None:
                raise ValidationError(f"unsupported logical node {type(node).__name__}")
            node = child
        aggregate_position = next(
            (i for i, n in enumerate(nodes) if isinstance(n, Aggregate)), None
        )

        # Walking root -> leaf, node kinds must come in canonical order —
        # Limit(Sort|TopK(Filter*(Aggregate|Project(Filter*(Scan))))) — so
        # the flattened form executes exactly the semantics the tree
        # expresses.  Out-of-order chains (a Limit below an Aggregate, a
        # Sort below a Project) would silently mean something else, so
        # they are rejected.
        ranks = {Limit: 5, Sort: 4, TopK: 4, Aggregate: 2, Project: 2}
        previous_rank = 6
        for position, current in enumerate(nodes):
            if isinstance(current, Filter):
                is_having = aggregate_position is not None and position < aggregate_position
                rank = 3 if is_having else 1
            else:
                is_having = False
                maybe_rank = ranks.get(type(current))
                if maybe_rank is None:
                    raise ValidationError(
                        f"unsupported logical node {type(current).__name__}"
                    )
                rank = maybe_rank
            if rank > previous_rank:
                raise ValidationError(
                    "logical nodes must nest as "
                    "Limit(Sort|TopK(Filter*(Aggregate|Project(Filter*(Scan))))); "
                    f"found {type(current).__name__} below a node it must enclose"
                )
            previous_rank = rank
            if isinstance(current, Limit):
                if limit is not None:
                    raise ValidationError("a plan may contain at most one Limit node")
                if current.n < 0:
                    raise ValidationError("limit must be non-negative")
                limit = current.n
            elif isinstance(current, (Sort, TopK)):
                if order_by is not None:
                    raise ValidationError("a plan may contain at most one Sort or TopK node")
                order_by = current.column
                descending = current.descending
                if isinstance(current, TopK):
                    if current.k < 0:
                        raise ValidationError("top-k needs a non-negative k")
                    order_limit = current.k
            elif isinstance(current, Aggregate):
                if aggregates:
                    raise ValidationError("a plan may contain at most one Aggregate node")
                if not current.aggregates:
                    raise ValidationError("Aggregate needs at least one aggregate function")
                aggregates = current.aggregates
                group_by = current.group_by
            elif isinstance(current, Project):
                if projection is not None:
                    raise ValidationError("a plan may contain at most one Project node")
                projection = current.columns
            else:
                assert isinstance(current, Filter)
                (having_parts if is_having else where).append(current.predicate)
        if node.relation is not self._relation:
            raise ValidationError("plan scans a different relation than the compiler was built for")
        if aggregates and projection is not None:
            raise ValidationError("Project and Aggregate cannot appear in the same plan")
        if group_by and not aggregates:
            raise ValidationError("group_by needs at least one aggregate")
        if order_by is not None and aggregates:
            raise ValidationError(
                "Sort/TopK cannot be combined with aggregation; order the grouped "
                "output in the caller"
            )
        if order_limit is not None:
            # A TopK is a fused Sort+Limit; an additional enclosing Limit
            # keeps whichever bound is tighter.
            limit = order_limit if limit is None else min(limit, order_limit)

        predicate = _combine_filters(where)
        having = _combine_filters(having_parts)

        compiled = CompiledQuery(
            relation=self._relation,
            predicate=predicate,
            projection=projection,
            group_by=group_by,
            aggregates=aggregates,
            limit=limit,
            having=having,
            order_by=order_by,
            descending=descending,
        )
        for name in compiled.referenced_columns():
            if name not in schema:
                raise UnknownColumnError(name, schema.names)
        output_names = list(group_by)
        for name, fn in aggregates:
            if name in output_names:
                raise ValidationError(f"duplicate output column {name!r} in aggregation")
            output_names.append(name)
            if fn.needs_int and fn.column is not None and schema.dtype(fn.column).is_string:
                raise ValidationError(
                    f"{fn.kind}() needs an integer column, {fn.column!r} is a string"
                )
        if having is not None:
            for name in having.columns():
                if name not in output_names:
                    raise ValidationError(
                        f"having references {name!r}, which is not an output column "
                        "of the aggregation"
                    )
        return compiled

    # -- execution -------------------------------------------------------------

    def execute(
        self, plan: "LogicalNode | CompiledQuery", tracer: "Tracer | None" = None
    ) -> PlanResult:
        """Run a (logical or already compiled) plan and materialise its output.

        ``tracer``, when given, becomes the ambient tracer for the whole
        execution (planner, workers, storage fetches included) and records
        the root ``execute`` span; otherwise the caller's ambient tracer —
        usually :data:`~repro.query.tracing.TRACE_DISABLED` — is kept.
        """
        compiled = plan if isinstance(plan, CompiledQuery) else self.compile(plan)
        active: "Tracer | NullTracer" = tracer if tracer is not None else current_tracer()
        with activate(active):
            with active.span("execute") as root:
                if compiled.aggregates:
                    result = self._execute_aggregate(compiled)
                else:
                    result = self._execute_select(compiled)
                if active.enabled:
                    root.annotate(rows=result.n_rows)
                return result

    def explain(self, plan: LogicalNode, analyze: bool = False) -> str:
        """Render ``plan`` plus the planner's per-block decisions.

        The physical section lists the columns the query could decode at
        most (projection pushdown), the combined predicate, and one line
        per block with its prune/full/scan verdict and global row range.
        ``analyze=True`` additionally *runs* the query under a fresh
        :class:`~repro.query.tracing.Tracer` and appends per-stage wall
        time, rows and bytes plus the recorded span tree — the classic
        ``EXPLAIN ANALYZE``.
        """
        compiled = self.compile(plan)
        lines = ["== logical plan ==", render_plan(plan), "", "== physical scan =="]
        referenced = compiled.referenced_columns()
        lines.append(
            f"columns decoded at most: {', '.join(referenced) if referenced else '(none)'}"
        )
        if compiled.predicate is None:
            lines.append("predicate: (none — every block fully covered)")
        else:
            lines.append(f"predicate: {compiled.predicate.describe()}")
        scan_plan = self._planner.plan(compiled.predicate)
        pruned = scan_plan.count_of(BlockDecision.PRUNE)
        full = scan_plan.count_of(BlockDecision.FULL)
        scanned = scan_plan.count_of(BlockDecision.SCAN)
        lines.append(
            f"blocks: {scan_plan.n_blocks} total — {pruned} pruned, "
            f"{full} fully covered, {scanned} scanned"
        )
        offset = 0
        for index, decision in enumerate(scan_plan.decisions):
            n_rows = self._relation.block(index).n_rows
            end = offset + max(n_rows - 1, 0)
            lines.append(f"  block {index:>4} rows {offset:>10,}..{end:<10,} {decision}")
            offset += n_rows
        if analyze:
            lines.extend(self._explain_analyze(compiled))
        return "\n".join(lines)

    #: Stage display order for ``EXPLAIN ANALYZE``; unknown stages follow
    #: alphabetically, so custom span names still show up.
    _STAGE_ORDER = (
        "execute",
        "plan",
        "scan",
        "predicate",
        "fetch",
        "io",
        "gather",
        "aggregate",
        "sort",
        "topk",
    )

    def _explain_analyze(self, compiled: CompiledQuery) -> list[str]:
        """Run ``compiled`` traced and render the per-stage analysis section."""
        tracer = Tracer()
        result = self.execute(compiled, tracer=tracer)
        trace = QueryTrace.from_tracer(tracer)
        summary = trace.stage_summary()
        lines = ["", "== execution (analyze) =="]
        lines.append(f"wall time: {trace.duration_seconds * 1e3:.3f} ms")
        lines.append(f"rows out: {result.n_rows:,}")
        if result.metrics is not None:
            lines.append(f"scan: {result.metrics.describe()}")
        lines.append(f"{'stage':<12} {'calls':>7} {'time (ms)':>12} {'rows':>14} {'bytes':>14}")
        ordered = [name for name in self._STAGE_ORDER if name in summary]
        ordered += sorted(set(summary) - set(self._STAGE_ORDER))
        for name in ordered:
            stage = summary[name]
            lines.append(
                f"{name:<12} {stage['calls']:>7} {stage['seconds'] * 1e3:>12.3f} "
                f"{stage['rows']:>14,} {stage['bytes']:>14,}"
            )
        lines.extend(["", "== span tree =="])
        lines.append(trace.render_tree())
        return lines

    def _execute_select(self, compiled: CompiledQuery) -> PlanResult:
        """Row ids of a non-aggregating query, then its projection.

        ``order_by`` with a ``limit`` is a fused top-k: blocks are visited
        in zone-map bound order with an early exit, and each visited block
        hands back at most ``k`` candidates chosen by partition, not by
        sorting the block — no full sort runs, per block or overall.
        ``order_by`` alone sorts every selected row; a bare ``limit``
        truncates the row-id stream before anything is materialised.
        """
        metrics: ScanMetrics | None
        if compiled.order_by is not None and compiled.limit is not None:
            row_ids, metrics = self._topk_row_ids(compiled)
        else:
            if compiled.predicate is None:
                row_ids = np.arange(self._relation.n_rows, dtype=np.int64)
                metrics = None
            else:
                row_ids, metrics = self._scan_row_ids(compiled)
            if compiled.order_by is not None:
                row_ids = self._sorted_row_ids(compiled, row_ids)
            if compiled.limit is not None:
                # Limit pushdown: truncate the row-id stream before any value
                # of the projection is materialised.
                row_ids = row_ids[: compiled.limit]
        if compiled.projection is None:
            columns: dict[str, "np.ndarray | list"] = {}
        else:
            columns = materialize_columns(
                self._relation, compiled.projection, row_ids, pool=self._pool
            )
        return PlanResult(columns=columns, row_ids=row_ids, metrics=metrics)

    def _scan_row_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, ScanMetrics]:
        """Ascending global row ids satisfying the plan's predicate, plus metrics."""
        tracer = current_tracer()
        with tracer.span("scan") as span:
            tasks, metrics = self._classify_blocks(compiled.predicate)
            prefetcher = self._make_prefetcher(compiled, tasks)
            results = parallel_map(
                lambda task: self._select_block(compiled.predicate, prefetcher, *task),
                tasks,
                self._pool,
            )
            for _, partial in results:
                metrics.merge(partial)
            if tracer.enabled:
                span.annotate(rows=metrics.rows_matched, blocks=metrics.blocks_scanned)
            if not results:
                return np.zeros(0, dtype=np.int64), metrics
            return np.concatenate([row_ids for row_ids, _ in results]), metrics

    def _select_block(
        self,
        predicate: Predicate | None,
        prefetcher: "Callable[[int], None] | None",
        index: int,
        offset: int,
        full: bool,
    ) -> tuple[np.ndarray, ScanMetrics]:
        """Worker body: one block's qualifying global row ids plus metrics."""
        if prefetcher is not None:
            prefetcher(index)
        block = self._relation.block(index)
        partial = ScanMetrics()
        mask, n_selected = self._block_selection(block, predicate, full, partial)
        if mask is None:
            return np.arange(offset, offset + n_selected, dtype=np.int64), partial
        return np.flatnonzero(mask) + offset, partial

    # -- ordering and top-k ------------------------------------------------------

    def _sorted_row_ids(self, compiled: CompiledQuery, row_ids: np.ndarray) -> np.ndarray:
        """``row_ids`` reordered by the sort column (full materialise-and-sort).

        The order criterion is total: equal keys keep ascending global row
        id, which every stable sort below preserves because the gathered
        keys arrive in ascending row-id order.
        """
        if row_ids.size <= 1:
            return row_ids
        with current_tracer().span("sort", rows=int(row_ids.size)):
            assert compiled.order_by is not None
            keys = materialize_columns(
                self._relation, (compiled.order_by,), row_ids, pool=self._pool
            )[compiled.order_by]
            if isinstance(keys, np.ndarray):
                # ``~x`` (= ``-x - 1``) reverses int64 order without the
                # overflow ``-x`` has at ``-2**63``.
                sort_keys = ~keys if compiled.descending else keys
                return row_ids[np.argsort(sort_keys, kind="stable")]
            # String keys: Python's sort is stable and ``reverse=True`` does
            # not reorder equal elements, so ties stay in row-id order.
            order = sorted(
                range(len(keys)), key=lambda i: keys[i], reverse=compiled.descending
            )
            return row_ids[np.asarray(order, dtype=np.int64)]

    def _topk_row_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, ScanMetrics]:
        """The ``k`` best row ids by the sort column, zone-map-driven.

        Blocks are visited in order of the sort column's min (ascending) or
        max (descending) zone-map bound, one worker-sized wave at a time;
        each visited block contributes at most ``k`` ``(key, row id)``
        candidates (RLE columns in run space, everything else gathered).
        The scan stops as soon as no remaining block's bound can *strictly*
        beat the current ``k``-th candidate — a tie could still displace it
        on the ascending-row-id tie-break, so ties keep scanning.  Blocks
        never visited are re-classified as pruned: on an out-of-core
        relation their data was never fetched.
        """
        column = compiled.order_by
        assert column is not None
        k = compiled.limit if compiled.limit is not None else 0
        tracer = current_tracer()
        with tracer.span("topk", column=column, k=k) as span:
            entries, metrics = self._classify_blocks(compiled.predicate)
            if k == 0 or not entries:
                for index, _, full in entries:
                    self._reclassify_pruned(metrics, full)
                return np.zeros(0, dtype=np.int64), metrics

            def bound(index: int) -> "int | str | None":
                """The block's best-possible key, or ``None`` (always visit)."""
                stats = self._relation.block(index).column_statistics(column)
                if stats is None:
                    return None
                # Derived (non-exact) bounds still *contain* the true range,
                # so ordering/stopping on them is safe — merely less tight.
                return stats.max_value if compiled.descending else stats.min_value

            bounds = [bound(index) for index, _, _ in entries]
            # Unknown bounds first (they must always be visited), then most
            # promising first.  The sign flip makes "promising" uniform.
            sign = -1 if compiled.descending else 1

            def visit_key(position: int) -> "tuple[int, Any]":
                b = bounds[position]
                if b is None:
                    return (0, 0)
                return (1, sign * b) if not isinstance(b, str) else (1, b)

            if compiled.descending and any(isinstance(b, str) for b in bounds):
                # String bounds cannot be sign-flipped; sort descending ones
                # separately (None-first is preserved by the stable sort).
                order = sorted(
                    range(len(entries)),
                    key=lambda p: (bounds[p] is not None, bounds[p] or ""),
                )
                known = [p for p in order if bounds[p] is not None]
                order = [p for p in order if bounds[p] is None] + known[::-1]
            else:
                order = sorted(range(len(entries)), key=visit_key)

            wave = max(1, min(self._workers, len(entries)))
            candidates: list[tuple[Any, int]] = []
            position = 0
            while position < len(order):
                if len(candidates) == k:
                    next_bound = bounds[order[position]]
                    kth_key = candidates[-1][0]
                    if next_bound is not None and (
                        next_bound < kth_key if compiled.descending else next_bound > kth_key
                    ):
                        break
                batch = order[position : position + wave]
                position += len(batch)
                results = parallel_map(
                    lambda entry: self._topk_block(compiled, *entry, k),
                    [entries[p] for p in batch],
                    self._pool,
                )
                for pairs, partial in results:
                    metrics.merge(partial)
                    candidates.extend(pairs)
                candidates = _topk_pairs(candidates, k, compiled.descending)
            for p in order[position:]:
                self._reclassify_pruned(metrics, entries[p][2])
            if tracer.enabled:
                span.annotate(
                    rows=len(candidates),
                    blocks=position,
                    skipped=len(order) - position,
                )
            return (
                np.asarray([row_id for _, row_id in candidates], dtype=np.int64),
                metrics,
            )

    @staticmethod
    def _reclassify_pruned(metrics: ScanMetrics, full: bool) -> None:
        """Account a block the top-k early exit never visited as pruned."""
        if full:
            metrics.blocks_full -= 1
        else:
            metrics.blocks_scanned -= 1
        metrics.blocks_pruned += 1

    def _topk_block(
        self,
        compiled: CompiledQuery,
        index: int,
        offset: int,
        full: bool,
        k: int,
    ) -> tuple[list[tuple[Any, int]], ScanMetrics]:
        """Worker body: one block's ``k`` best ``(key, global row id)`` pairs.

        The pairs come back already in final rank order.  An RLE sort
        column answers in run space — each run contributes its value once
        and only the winning runs' positions are expanded; otherwise the
        key column is gathered at the selected positions and ranked by
        :func:`_ranked_positions` — a partition to the ``k``-th key, a
        stable sort of only the keys strictly before it, then the ``k``-th
        key's first ties in row order — never a sort of more than ``k``
        keys, however many the block holds or share a value.
        """
        block = self._relation.block(index)
        partial = ScanMetrics()
        mask, n_selected = self._block_selection(block, compiled.predicate, full, partial)
        if n_selected == 0:
            return [], partial
        column = compiled.order_by
        assert column is not None
        block = resolve_block(block, columns=(column,))
        kernel_mask = mask if mask is not None else np.ones(block.n_rows, dtype=bool)
        run_space = self._kernels.topk(block, column, kernel_mask, k, compiled.descending)
        if run_space is not None:
            values, positions = run_space
            partial.rows_kernel_aggregated += n_selected
            return (
                [(int(v), int(offset + p)) for v, p in zip(values, positions)],
                partial,
            )
        positions = np.arange(block.n_rows) if mask is None else np.flatnonzero(mask)
        gathered = self._gather_inputs(block, (column,), positions, partial)
        keys = gathered[column]
        if isinstance(keys, np.ndarray):
            best = _ranked_positions(keys, k, compiled.descending)
            return (
                [(int(keys[i]), int(offset + positions[i])) for i in best],
                partial,
            )
        pairs = list(zip(keys, (positions + offset).tolist()))
        if compiled.descending:
            # ``nlargest`` with a key is documented equivalent to a stable
            # reverse sort, so ties keep ascending (row) input order.
            return heapq.nlargest(k, pairs, key=lambda pair: pair[0]), partial
        return heapq.nsmallest(k, pairs), partial

    # -- aggregate execution ---------------------------------------------------

    def _classify_blocks(
        self, predicate: Predicate | None
    ) -> tuple[list[tuple[int, int, bool]], ScanMetrics]:
        """Plan the scan: ``(block index, row offset, fully covered)`` tasks.

        Tasks come in block order, pruned blocks omitted; the metrics carry
        the block totals and per-decision counts.  Select, aggregate and
        top-k all start here, so their block decisions never diverge.
        ``predicate=None`` classifies every block as fully covered.
        """
        plan = self._planner.plan(predicate)
        metrics = ScanMetrics(n_blocks=plan.n_blocks, rows_total=self._relation.n_rows)
        tasks: list[tuple[int, int, bool]] = []
        offset = 0
        for index, decision in enumerate(plan.decisions):
            if decision == BlockDecision.PRUNE:
                metrics.blocks_pruned += 1
            elif decision == BlockDecision.FULL:
                metrics.blocks_full += 1
                tasks.append((index, offset, True))
            else:
                metrics.blocks_scanned += 1
                tasks.append((index, offset, False))
            offset += self._relation.block(index).n_rows
        return tasks, metrics

    def _block_selection(
        self, block: CompressedBlock, predicate: Predicate | None, full: bool, partial: ScanMetrics
    ) -> tuple[np.ndarray | None, int]:
        """The block's qualifying-row mask (``None`` = all rows) and count."""
        if full or predicate is None:
            partial.rows_matched += block.n_rows
            return None, block.n_rows
        mask = evaluate_block_predicate(
            block, predicate, metrics=partial, kernels=self._kernels
        )
        n_selected = int(np.count_nonzero(mask))
        partial.rows_matched += n_selected
        return mask, n_selected

    def _gather_inputs(
        self,
        block: CompressedBlock,
        names: Sequence[str],
        positions: np.ndarray,
        partial: ScanMetrics,
    ) -> "dict[str, np.ndarray | list]":
        """Materialise aggregate/group inputs at the selected positions.

        Charged to ``rows_gathered`` (``rows_decoded`` stays a pure
        predicate-decode counter) plus ``string_heap_decodes`` per
        dictionary-encoded string column actually materialised.  An
        out-of-core proxy materialises only ``names`` (plus dependency
        closure) — column-granular on format-v3 tables.
        """
        with current_tracer().span("gather", rows=int(positions.size), columns=len(names)):
            block = resolve_block(block, columns=names)
            partial.rows_gathered += int(positions.size)
            for name in names:
                if isinstance(block.columns.get(name), DictEncodedStringColumn):
                    partial.string_heap_decodes += int(positions.size)
            return materialize_block_columns(block, names, positions)

    def _make_prefetcher(
        self, compiled: CompiledQuery, tasks: list[tuple[int, int, bool]]
    ) -> "Callable[[int], None] | None":
        """A per-block read-ahead hint for the select and aggregate paths.

        Each task's worker body calls the hint with its block index; the
        hint prefetches the *next scan-classified* block's required columns
        (predicate + gather inputs; a select has no gather inputs) while
        the current block's kernel runs.  Fully-covered blocks are skipped
        as targets — they need no predicate data, and statistics usually
        answer their aggregates, so prefetching them would waste reads.
        """
        prefetch = getattr(self._relation, "prefetch_block_columns", None)
        if prefetch is None or len(tasks) < 2:
            return None
        columns: list[str] = []
        if compiled.predicate is not None:
            columns.extend(compiled.predicate.columns())
        for name in compiled.gather_columns():
            if name not in columns:
                columns.append(name)
        required = tuple(columns)
        next_scan: dict[int, int | None] = {}
        following: int | None = None
        for index, _, full in reversed(tasks):
            next_scan[index] = following
            if not full:
                following = index

        def hint(index: int) -> None:
            target = next_scan.get(index)
            if target is not None:
                prefetch(target, required)

        return hint

    def _execute_aggregate(self, compiled: CompiledQuery) -> PlanResult:
        tasks, metrics = self._classify_blocks(compiled.predicate)
        prefetcher = self._make_prefetcher(compiled, tasks)
        pairs, slots = moment_slots(compiled.aggregates)
        results = parallel_map(
            lambda task: self._aggregate_block(compiled, pairs, task[0], task[2], prefetcher),
            tasks,
            self._pool,
        )
        # A group's state is one partial per (column, moment) pair; the
        # ungrouped query is the single group ``()``.
        merged: dict = {}
        any_code_space = False
        for groups, used_code_space, partial in results:
            metrics.merge(partial)
            any_code_space = any_code_space or used_code_space
            for key, state in groups.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = state
                else:
                    for slot, (_, moment) in enumerate(pairs):
                        existing[slot] = moment.merge(existing[slot], state[slot])
        if not compiled.group_by and not merged:
            merged[()] = [moment.empty for _, moment in pairs]  # no row qualified

        keys = sorted(merged)
        if compiled.having is None and compiled.limit is not None:
            # Without a HAVING the limit can truncate before any key is
            # decoded; a HAVING must see every group first.
            keys = keys[: compiled.limit]
        single = len(compiled.group_by) == 1
        if (
            single
            and any_code_space
            and self._relation.schema.dtype(compiled.group_by[0]).is_string
        ):
            # The group keys travelled as raw heap byte slices; this is the
            # one decode per distinct group the code-space path deferred.
            metrics.string_heap_decodes += len(keys)
        columns: dict[str, "np.ndarray | list"] = {}
        for position, name in enumerate(compiled.group_by):
            columns[name] = [_output_key(key if single else key[position]) for key in keys]
        for (name, fn), wiring in zip(compiled.aggregates, slots):
            columns[name] = [fn.finalize(*[merged[key][slot] for slot in wiring]) for key in keys]
        if compiled.having is not None:
            columns = _apply_having(columns, compiled.having)
            if compiled.limit is not None:
                columns = {name: values[: compiled.limit] for name, values in columns.items()}
        return PlanResult(columns=columns, row_ids=None, metrics=metrics)

    def _aggregate_block(
        self,
        compiled: CompiledQuery,
        pairs: "list[tuple[str | None, Moment]]",
        index: int,
        full: bool,
        prefetcher: "Callable[[int], None] | None",
    ) -> tuple[dict, bool, ScanMetrics]:
        """Worker body: one block's per-group moment partials plus metrics."""
        tracer = current_tracer()
        with tracer.span("aggregate", block=index) as span:
            if prefetcher is not None:
                prefetcher(index)
            block = self._relation.block(index)
            partial = ScanMetrics()
            mask, n_selected = self._block_selection(block, compiled.predicate, full, partial)
            groups: dict = {}
            used_code_space = False
            if n_selected:
                groups, used_code_space = self._reduce_block(
                    compiled, pairs, block, mask, n_selected, full, partial
                )
            if tracer.enabled:
                span.annotate(rows=partial.rows_matched, groups=len(groups))
            return groups, used_code_space, partial

    def _reduce_block(
        self,
        compiled: CompiledQuery,
        pairs: "list[tuple[str | None, Moment]]",
        block: CompressedBlock,
        mask: "np.ndarray | None",
        n_selected: int,
        full: bool,
        partial: ScanMetrics,
    ) -> tuple[dict, bool]:
        """Every needed moment of one block's (non-empty) selection, per group.

        Each ``(column, moment)`` pair goes down one cascade — zone map,
        selected runs, gathered values — taking the first stage that
        answers.  The first two reduce the selection as a whole, so they
        apply to the ungrouped query only; the zone map answers only a
        fully-covered block, and a column whose kernel declines
        (``selected_runs`` is ``None``) falls through to the gather.
        Whatever is left shares a single gather with the group-key columns.
        """
        source = block  # zone maps are read off the (possibly out-of-core) original
        group_by = compiled.group_by
        keys: list = []
        inverse: np.ndarray | None = None  # row -> group index; None: one group
        used_code_space = False
        gather_names: list[str] = []
        if group_by:
            # Grouping always touches block data; materialise an out-of-core
            # proxy once — column-granular tables fetch only the group keys
            # and aggregate inputs.
            block = resolve_block(block, columns=compiled.gather_columns())
            grouping = self._compressed_group_keys(block, group_by, mask, n_selected, partial)
            if grouping is None:
                gather_names = list(group_by)
            else:
                keys, inverse, used_code_space = grouping

        # slot -> the group's partial (ungrouped) or one partial per group;
        # ``None`` marks "not answered yet" — no group is ever empty here.
        resolved: list = [None] * len(pairs)
        # Zone map: a fully-covered block reduces all of its rows, so exact
        # statistics answer without decoding anything.
        lift = not group_by and full
        pending = []
        for slot, (column, moment) in enumerate(pairs):
            if column is None:
                continue
            stats = source.column_statistics(column) if lift else None
            if stats is not None:
                resolved[slot] = stats.aggregate_value(moment.name)
            if resolved[slot] is None:
                pending.append(slot)
        # max|x| off the zone map keeps Σx and Σx² exact without a pass over
        # the data (None: the moment measures the values itself).
        bounds: dict = {}
        for slot in pending:
            stats = source.column_statistics(pairs[slot][0])
            bounds[pairs[slot][0]] = None if stats is None else stats.magnitude
        if pending and not group_by:
            # Run space: an RLE input hands back (run values, selected
            # count per run) once per column; nothing is gathered.
            block = resolve_block(block, columns=list(bounds))
            runs = {name: self._kernels.selected_runs(block, name, mask) for name in bounds}
            for slot in pending[:]:
                column, moment = pairs[slot]
                if runs[column] is not None:
                    resolved[slot] = moment.from_runs(*runs[column], bounds[column])
                    pending.remove(slot)
            for answered in runs.values():
                if answered is not None:
                    partial.rows_kernel_aggregated += n_selected
        gathered: dict = {}
        if pending or gather_names:
            names = list(dict.fromkeys(gather_names + [pairs[slot][0] for slot in pending]))
            positions = np.arange(block.n_rows) if mask is None else np.flatnonzero(mask)
            gathered = self._gather_inputs(block, names, positions, partial)
            if gather_names:
                keys, inverse = _python_group_keys(group_by, gathered)
        for slot, (column, moment) in enumerate(pairs):
            if resolved[slot] is not None:
                continue
            # A column-less moment reduces the selected rows themselves.
            if inverse is None:
                values: Any = range(n_selected) if column is None else gathered[column]
                resolved[slot] = moment.from_values(values, bounds.get(column))
            else:
                values = inverse if column is None else gathered[column]
                resolved[slot] = moment.scatter_by_group(
                    values, inverse, len(keys), bounds.get(column)
                )
        if inverse is None:
            return {(): resolved}, False
        return dict(zip(keys, map(list, zip(*resolved)))), used_code_space

    def _compressed_group_keys(
        self,
        block: CompressedBlock,
        group_by: tuple[str, ...],
        mask: "np.ndarray | None",
        n_selected: int,
        partial: ScanMetrics,
    ) -> "tuple[list, np.ndarray, bool] | None":
        """``(keys, inverse, keys are heap slices)`` without gathering, or ``None``.

        A single column whose kernel groups in its compressed domain: a
        dictionary column by its distinct packed codes (string keys stay
        raw heap byte slices — the caller owes one decode per distinct
        group), an RLE column by its surviving run values.
        """
        if len(group_by) != 1:
            return None
        grouping = self._kernels.group_keys(block, group_by[0], mask)
        if grouping is None:
            return None
        keys, inverse = grouping
        partial.rows_kernel_aggregated += n_selected
        return keys, inverse, bool(keys) and isinstance(keys[0], bytes)


def _python_group_keys(group_by: tuple[str, ...], gathered: dict) -> tuple[list, np.ndarray]:
    """Hashable group keys + per-row group index from decoded group columns.

    A single group column is vectorized: an integer column whose values
    span fewer slots than it has rows is counted with ``np.bincount`` over
    ``value - min`` (one linear pass), anything else goes through
    ``np.unique``; both give ascending keys and the same inverse.  Only
    multi-column grouping falls back to a per-row Python loop over key
    tuples.  Single string columns normalise to UTF-8 bytes so keys merge
    with the byte slices the code-space path produces for other blocks of
    the same relation (per-block encodings may differ).
    """
    if len(group_by) == 1:
        values = gathered[group_by[0]]
        arr = values if isinstance(values, np.ndarray) else np.asarray(values)
        if arr.dtype.kind in ("i", "u") and arr.size:
            low = int(arr.min())
            if int(arr.max()) - low < arr.size:
                offsets = (arr - low).astype(np.intp, copy=False)
                present = np.flatnonzero(np.bincount(offsets))
                slot = np.zeros(present[-1] + 1, dtype=np.intp)
                slot[present] = np.arange(present.size)
                return [low + offset for offset in present.tolist()], slot[offsets]
        unique, inverse = np.unique(arr, return_inverse=True)
        if arr.dtype.kind in ("U", "S"):
            keys: list = [str(u).encode("utf-8") for u in unique]
        else:
            keys = [int(u) for u in unique]
        return keys, inverse
    columns = [
        gathered[name] if isinstance(gathered[name], np.ndarray) else list(gathered[name])
        for name in group_by
    ]
    mapping: dict = {}
    inverse = np.empty(len(columns[0]), dtype=np.int64)
    for i, key in enumerate(zip(*columns)):
        inverse[i] = mapping.setdefault(key, len(mapping))
    return list(mapping), inverse


def _topk_pairs(
    pairs: "list[tuple[Any, int]]", k: int, descending: bool
) -> "list[tuple[Any, int]]":
    """The ``k`` best ``(key, row id)`` pairs under the total order criterion.

    Ascending ranks by ``(key, row id)`` directly; descending needs key
    descending but row id still *ascending* on ties, which two stable
    passes deliver for any key type (strings cannot be negated).
    """
    if descending:
        by_row = sorted(pairs, key=lambda pair: pair[1])
        return sorted(by_row, key=lambda pair: pair[0], reverse=True)[:k]
    return sorted(pairs)[:k]


def _ranked_positions(keys: np.ndarray, k: int, descending: bool) -> np.ndarray:
    """Positions of the ``k`` best integer ``keys``, best first, ties by position.

    The result equals the first ``k`` of a full stable sort, and no sort ever
    sees more than ``k`` keys: with more than ``k`` keys, ``np.partition``
    finds the ``k``-th key, the (fewer than ``k``) positions whose key is
    strictly before it are stable-sorted, and the ``k``-th key's first ties
    fill the rest — already in ascending position order.  ``~x``
    (= ``-x - 1``) reverses int64 order for descending without the overflow
    ``-x`` has at ``-2**63``.
    """
    sort_keys = ~keys if descending else keys
    if not 0 < k < sort_keys.size:
        return np.argsort(sort_keys[:k], kind="stable")
    kth = np.partition(sort_keys, k - 1)[k - 1]
    before = np.flatnonzero(sort_keys < kth)
    ties = np.flatnonzero(sort_keys == kth)[: k - before.size]
    return np.concatenate([before[np.argsort(sort_keys[before], kind="stable")], ties])


def _apply_having(
    columns: "dict[str, np.ndarray | list]", predicate: Predicate
) -> "dict[str, np.ndarray | list]":
    """Filter aggregated output rows by a HAVING predicate.

    Rows where any referenced output is ``None`` (the empty-selection
    result of min/max/avg/var) are dropped first, mirroring SQL's NULL
    comparison semantics, so the predicate only ever sees real values.
    """
    names = predicate.columns()
    n_rows = len(next(iter(columns.values()))) if columns else 0
    keep = [
        i
        for i in range(n_rows)
        if all(columns[name][i] is not None for name in names)
    ]
    if keep:
        sub = {name: [columns[name][i] for i in keep] for name in names}
        mask = np.asarray(predicate.evaluate(sub), dtype=bool)
        keep = [i for i, flag in zip(keep, mask) if flag]
    return {name: [values[i] for i in keep] for name, values in columns.items()}


def _output_key(key: object) -> object:
    """A merged group key as an output value (bytes decode back to str)."""
    if isinstance(key, bytes):
        return key.decode("utf-8")
    if isinstance(key, np.integer):
        return int(key)
    return key


# ---------------------------------------------------------------------------
# fluent builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _QuerySpec:
    """The accumulated state of a fluent chain (immutable between calls)."""

    predicate: Predicate | None = None
    projection: tuple[str, ...] | None = None
    group_keys: tuple[str, ...] = ()
    aggregates: AggregateSpec = ()
    limit: int | None = None
    order_column: str | None = None
    order_desc: bool = False
    having_predicate: Predicate | None = None


def _check_predicates(method: str, predicates: Sequence[object]) -> None:
    if not predicates:
        raise ValidationError(f"{method}() needs at least one predicate")
    for predicate in predicates:
        if not isinstance(predicate, Predicate):
            raise ValidationError(
                f"{method}() takes Predicate objects (Eq/Between/In/...), got {predicate!r}"
            )


class LazyQuery:
    """Fluent, lazy query builder over one compressed relation.

    Every chaining call returns a *new* ``LazyQuery``; nothing touches the
    data until a terminal (:meth:`execute`, :meth:`count`) runs, and
    :meth:`explain` shows the logical tree plus the planner's per-block
    decisions without executing anything.  Typical use::

        top = (
            relation.query()
            .where(Eq("flag", "Y") & Between("ship", 8_100, 8_200))
            .select("ship", "fare")
            .limit(100)
            .execute()
        )
        by_tag = relation.query().group_by("tag").agg(n=Count()).execute()

    A chain runs on the :class:`~repro.query.engine.Engine` it was started
    from — ``engine.query(relation)``, or ``relation.query()``, which runs
    on a fresh default engine (no threads, nothing to close) — and
    resolves its compiler (planner memo, worker pool, kernel registry)
    through that engine on every terminal, so every link of a chain and
    every other query on the same engine and relation share one.  The metrics of the most recent
    terminal run on *this* chain link are available as
    :attr:`last_metrics`.
    """

    def __init__(
        self,
        relation: Relation,
        engine: "Engine",
        _spec: _QuerySpec | None = None,
    ) -> None:
        self._relation = relation
        self._engine = engine
        self._spec = _spec if _spec is not None else _QuerySpec()
        self._last_metrics: ScanMetrics | None = None

    # -- fluent chain ----------------------------------------------------------

    def _chain(self, **changes: Any) -> "LazyQuery":
        return LazyQuery(
            self._relation,
            engine=self._engine,
            _spec=replace(self._spec, **changes),
        )

    def where(self, *predicates: Predicate) -> "LazyQuery":
        """Add filter predicates (AND-combined with any existing ones)."""
        _check_predicates("where", predicates)
        terms = [self._spec.predicate] if self._spec.predicate is not None else []
        terms.extend(predicates)
        combined = terms[0] if len(terms) == 1 else And(*terms)
        return self._chain(predicate=combined)

    def select(self, *columns: str) -> "LazyQuery":
        """Project the named columns (aggregating queries name outputs via agg)."""
        if not columns:
            raise ValidationError("select() needs at least one column")
        if self._spec.aggregates or self._spec.group_keys:
            raise ValidationError(
                "select() cannot be combined with agg()/group_by(); "
                "aggregate outputs are named by agg()"
            )
        return self._chain(projection=tuple(columns))

    def group_by(self, *columns: str) -> "LazyQuery":
        """Group the aggregation by the named columns."""
        if not columns:
            raise ValidationError("group_by() needs at least one column")
        if self._spec.projection is not None:
            raise ValidationError("group_by() cannot be combined with select()")
        if self._spec.order_column is not None:
            raise ValidationError("group_by() cannot be combined with order_by()")
        return self._chain(group_keys=tuple(columns))

    def agg(self, **aggregates: AggregateFunction) -> "LazyQuery":
        """Add named aggregate outputs, e.g. ``agg(n=Count(), hi=Max("v"))``."""
        if not aggregates:
            raise ValidationError("agg() needs at least one name=function pair")
        for name, fn in aggregates.items():
            if not isinstance(fn, AggregateFunction):
                raise ValidationError(
                    "agg() values must be aggregate functions "
                    f"(Count/Sum/Min/Max/Avg/Var/Std), got {fn!r} for {name!r}"
                )
        if self._spec.projection is not None:
            raise ValidationError("agg() cannot be combined with select()")
        if self._spec.order_column is not None:
            raise ValidationError("agg() cannot be combined with order_by()")
        return self._chain(aggregates=self._spec.aggregates + tuple(aggregates.items()))

    def having(self, *predicates: Predicate) -> "LazyQuery":
        """Filter the *aggregated* output rows (AND-combined, like where()).

        The predicates reference aggregation output names — group keys and
        ``agg()`` output columns — and run over the aggregated rows, after
        the per-group reduction and before any :meth:`limit`.  Groups whose
        referenced output is ``None`` (an empty-selection min/max/avg) are
        dropped, mirroring SQL's NULL comparison semantics.  Requires an
        aggregation on the chain by the time a terminal runs.
        """
        _check_predicates("having", predicates)
        terms = (
            [self._spec.having_predicate]
            if self._spec.having_predicate is not None
            else []
        )
        terms.extend(predicates)
        combined = terms[0] if len(terms) == 1 else And(*terms)
        return self._chain(having_predicate=combined)

    def order_by(self, column: str, desc: bool = False) -> "LazyQuery":
        """Order the output rows by ``column`` (ties keep ascending row id).

        Followed by :meth:`limit`, the pair compiles to a fused
        :class:`TopK`: bounded per-block candidate heaps, block visits in
        zone-map bound order, and an early exit that skips — and on disk
        never fetches — blocks that cannot affect the answer.  Not
        combinable with ``agg()``/``group_by()``.
        """
        if not column:
            raise ValidationError("order_by() needs a column name")
        if self._spec.aggregates or self._spec.group_keys:
            raise ValidationError("order_by() cannot be combined with agg()/group_by()")
        return self._chain(order_column=column, order_desc=bool(desc))

    def limit(self, n: int) -> "LazyQuery":
        """Keep at most ``n`` output rows (applied before materialisation).

        ``n`` is any non-negative integer (numpy integers included); a
        ``bool``, a float or a string is rejected here, not at execution.
        """
        try:
            count = operator.index(n)
        except TypeError:
            count = -1
        if isinstance(n, bool) or count < 0:
            raise ValidationError(f"limit must be a non-negative integer, got {n!r}")
        return self._chain(limit=count)

    # -- plan assembly ---------------------------------------------------------

    def logical_plan(self) -> LogicalNode:
        """The logical tree this chain describes (Scan at the bottom)."""
        spec = self._spec
        node: LogicalNode = Scan(self._relation)
        if spec.predicate is not None:
            node = Filter(node, spec.predicate)
        if spec.aggregates:
            node = Aggregate(node, aggregates=spec.aggregates, group_by=spec.group_keys)
            if spec.having_predicate is not None:
                # A Filter above the Aggregate is the HAVING position.
                node = Filter(node, spec.having_predicate)
        elif spec.group_keys:
            raise ValidationError("group_by() needs at least one aggregate; add .agg(...)")
        elif spec.having_predicate is not None:
            raise ValidationError("having() needs an aggregation; add .agg(...)")
        else:
            projection = spec.projection
            if projection is None:
                projection = self._relation.schema.names
            node = Project(node, tuple(projection))
        if spec.order_column is not None:
            if spec.limit is not None:
                # order_by().limit(k) fuses into a bounded-heap top-k.
                return TopK(
                    node, column=spec.order_column, k=spec.limit, descending=spec.order_desc
                )
            node = Sort(node, column=spec.order_column, descending=spec.order_desc)
        if spec.limit is not None:
            node = Limit(node, spec.limit)
        return node

    def _compiler(self) -> QueryCompiler:
        return self._engine.compiler_for(self._relation)

    # -- terminals -------------------------------------------------------------

    @property
    def last_metrics(self) -> ScanMetrics | None:
        """Metrics of the most recent execute()/count() on this chain link."""
        return self._last_metrics

    def explain(self, analyze: bool = False) -> str:
        """Render the logical tree plus per-block prune/full/scan decisions.

        ``analyze=True`` also runs the query under a tracer and appends
        per-stage wall time, rows and bytes plus the span tree.
        """
        return self._compiler().explain(self.logical_plan(), analyze=analyze)

    def execute(self, tracer: "Tracer | None" = None) -> PlanResult:
        """Compile and run the plan, materialising its output.

        ``tracer``, when given, records the execution's span tree (see
        :mod:`repro.query.tracing`).
        """
        result = self._compiler().execute(self.logical_plan(), tracer=tracer)
        self._last_metrics = result.metrics
        return result

    def count(self, tracer: "Tracer | None" = None) -> int:
        """The number of qualifying rows, without materialising any output.

        Shortcut for ``agg(count=Count())`` on a plain filter chain; blocks
        the zone maps prove fully covered are answered from metadata alone
        (check :attr:`last_metrics` — ``rows_decoded`` stays zero when every
        block is pruned or covered).  A ``limit(k)`` on the chain caps the
        result, matching ``execute().n_rows``.  ``tracer`` records the
        execution's span tree, as for :meth:`execute`.
        """
        if self._spec.aggregates or self._spec.group_keys or self._spec.having_predicate:
            raise ValidationError("count() is for plain filter chains; use agg(n=Count())")
        spec = self._spec
        node: LogicalNode = Scan(self._relation)
        if spec.predicate is not None:
            node = Filter(node, spec.predicate)
        node = Aggregate(node, aggregates=(("count", Count()),))
        result = self._compiler().execute(node, tracer=tracer)
        self._last_metrics = result.metrics
        total = int(result.scalar("count"))
        if spec.limit is not None:
            total = min(total, spec.limit)
        return total
