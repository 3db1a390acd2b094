"""One query as data: the :class:`Plan` record, its builder and its compiler.

A query is one frozen :class:`Plan` — predicate, projection, grouping,
aggregates, having, order and limit — and every front end produces the
same record: the fluent :class:`LazyQuery` builder::

    result = (
        relation.query()
        .where(Between("ship", 8_100, 8_200))
        .agg(n=Count(), total=Sum("fare"))
        .execute()
    )

the wire protocol (:meth:`Plan.from_json`, the JSON grammar the query
service reads), and ``corra query``, which turns its flags into that JSON.
:meth:`Plan.to_json` writes the grammar back in canonical form (predicate
children and ``In`` values sorted, aggregates in output order), and the
plan's :meth:`~Plan.fingerprint` — the result-cache key — is that JSON
text.  Construction enforces the combination rules every front end shares.

Nothing is decoded while a query is being composed, which is what lets the
:class:`QueryCompiler` push work *down* before any value is materialised:

* **predicate pushdown** — the filter is handed to the memoizing
  :class:`~repro.query.scan.ScanPlanner`, so zone maps prune blocks, and
  the surviving blocks are evaluated one per task on the engine's worker
  pool, where dictionary leaves run in code space;
* **projection pushdown** — only the columns the plan references are ever
  decoded;
* **aggregation pushdown** — every aggregate is a finalisation over the
  exactly-mergeable moments of :mod:`~repro.query.aggregates`, and each
  moment is resolved per block through one cascade: the per-block
  :class:`~repro.storage.statistics.ColumnStatistics` of a *fully covered*
  block (no row decoded), then gathered values; a group-by on a
  dictionary-encoded column aggregates in code space, reading one
  dictionary entry per distinct group;
* **limit pushdown** — ``limit(k)`` truncates the row-id stream *before*
  the projection is materialised;
* **top-k pushdown** — ``order_by(col).limit(k)`` executes as a fused top-k
  that keeps a bounded set of ``k`` candidates per block and visits blocks
  in zone-map bound order, stopping as soon as no remaining block's bound
  can beat the current ``k``-th candidate — on a clustered column most
  blocks are never touched, and on a
  :class:`~repro.storage.disk.DiskRelation` never even fetched.

:meth:`LazyQuery.explain` renders the plan as the operator chain it
executes (``Scan``, ``Filter``, ``Project``/``Aggregate``, ``Sort``/
``TopK``, ``Limit``) together with the planner's per-block
prune/full/scan decisions, so the effect of every pushdown is visible
before (or without) running the query.
"""

from __future__ import annotations

import heapq
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..encodings.dictionary import factorize_strings
from ..errors import UnknownColumnError, ValidationError, expect
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
    parse_aggregate,
)
from .kernels import DEFAULT_KERNELS, KernelRegistry
from .parallel import parallel_map
from .predicates import And, Predicate, canonical_json
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
    "Plan",
    "PlanResult",
    "QueryCompiler",
    "LazyQuery",
]


# ---------------------------------------------------------------------------
# the plan record
# ---------------------------------------------------------------------------

#: The keys of a plan in the wire grammar (``k`` is ``limit`` under ``order_by``).
_PLAN_KEYS = {"where", "select", "group_by", "aggregates", "having", "order_by", "k", "limit"}


def _names(body: dict, key: str) -> tuple[str, ...] | None:
    """A non-empty JSON list of column names, or ``None`` when absent."""
    names = body.get(key)
    if names is None:
        return None
    expect(
        isinstance(names, list) and len(names) > 0 and all(isinstance(c, str) and c for c in names),
        f"{key!r} must be a non-empty list of column names",
    )
    return tuple(names)


def _order(body: dict) -> tuple[str | None, Any]:
    """``order_by`` as ``(column, desc)``: a column name or ``{"column", "desc"}``."""
    order = body.get("order_by")
    if order is None:
        return None, False
    if isinstance(order, str):
        expect(order != "", "'order_by' column name must be non-empty")
        return order, False
    expect(
        isinstance(order, dict) and not (set(order) - {"column", "desc"}),
        "'order_by' must be a column name or {'column': ..., 'desc': bool}",
    )
    assert isinstance(order, dict)
    column = order.get("column")
    expect(isinstance(column, str) and column != "", "'order_by' needs a 'column' string")
    return column, order.get("desc", False)


@dataclass(frozen=True)
class Plan:
    """One query as data — the record every front end builds and the compiler runs.

    ``projection=None`` selects every column; an aggregating plan has no
    projection (its outputs are the group keys and the aggregates, in
    ``aggregates`` order).  ``having`` filters the aggregated rows by output
    name.  ``order_by`` sorts the selected rows (ties keep ascending row
    id); with a ``limit`` the pair executes as the fused top-k.

    Construction enforces the combination rules every front end shares: a
    projection or an order excludes an aggregation, ``limit`` is a
    non-negative integer and ``descending`` a bool.  Rules only a finished
    plan can meet (``group_by``/``having`` need aggregates) are
    :meth:`check_complete`'s; :meth:`QueryCompiler.compile` adds the
    schema's.
    """

    predicate: Predicate | None = None
    projection: tuple[str, ...] | None = None
    group_by: tuple[str, ...] = ()
    aggregates: AggregateSpec = ()
    having: Predicate | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.aggregates or self.group_by:
            if self.projection is not None:
                raise ValidationError(
                    "select cannot be combined with group_by/aggregates; "
                    "aggregate outputs are named by the aggregates"
                )
            if self.order_by is not None:
                raise ValidationError(
                    "order_by cannot be combined with group_by/aggregates; "
                    "order the grouped output in the caller"
                )
        if not isinstance(self.descending, bool):
            raise ValidationError(f"order_by desc must be a boolean, got {self.descending!r}")
        if self.limit is not None:
            limit = self.limit
            if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool) or limit < 0:
                raise ValidationError(f"limit must be a non-negative integer, got {limit!r}")
            object.__setattr__(self, "limit", int(limit))

    def check_complete(self) -> "Plan":
        """This plan, once the rules only a finished chain can meet hold."""
        expect(not self.group_by or bool(self.aggregates), "group_by needs at least one aggregate")
        expect(self.having is None or bool(self.aggregates), "having needs an aggregation")
        return self

    def referenced_columns(self) -> tuple[str, ...]:
        """Every stored column the plan names, in first-use order.

        The HAVING predicate is deliberately absent: it references
        aggregation *output* names, which are validated separately.  So is
        the whole schema a ``projection=None`` plan selects.
        """
        sources: list[str] = []
        if self.predicate is not None:
            sources.extend(self.predicate.columns())
        sources.extend(self.group_by)
        sources.extend(fn.column for _, fn in self.aggregates if fn.column is not None)
        if self.order_by is not None:
            sources.append(self.order_by)
        sources.extend(self.projection or ())
        return tuple(dict.fromkeys(sources))

    def gather_columns(self) -> tuple[str, ...]:
        """The group-by and aggregate input columns, in first-use order.

        This is the per-block required-column set of the *gather* side of an
        aggregation — what a block must materialise beyond the predicate
        columns.  A column-granular table fetches only these columns'
        sub-segments for blocks whose aggregates statistics cannot answer.
        """
        inputs = [fn.column for _, fn in self.aggregates if fn.column is not None]
        return tuple(dict.fromkeys([*self.group_by, *inputs]))

    def to_json(self) -> dict:
        """The plan in the wire grammar, canonical: :meth:`from_json` reads it back."""
        body: dict = {}
        if self.predicate is not None:
            body["where"] = self.predicate.to_json()
        if self.projection is not None:
            body["select"] = list(self.projection)
        if self.group_by:
            body["group_by"] = list(self.group_by)
        if self.aggregates:
            body["aggregates"] = {name: fn.to_json() for name, fn in self.aggregates}
        if self.having is not None:
            body["having"] = self.having.to_json()
        if self.order_by is not None:
            body["order_by"] = {"column": self.order_by, "desc": self.descending}
        if self.limit is not None:
            body["limit"] = self.limit
        return body

    @classmethod
    def from_json(cls, body: object) -> "Plan":
        """Parse the wire grammar strictly; malformed input is a ValidationError.

        ``k`` is the top-k row count: it needs ``order_by`` and replaces
        ``limit``.  Aggregates keep their JSON object order, which is the
        output column order.
        """
        expect(isinstance(body, dict), "a plan must be a JSON object")
        assert isinstance(body, dict)
        unknown = set(body) - _PLAN_KEYS
        expect(not unknown, f"unknown request key(s): {sorted(unknown)}")

        aggregates: list[tuple[str, AggregateFunction]] = []
        raw = body.get("aggregates")
        if raw is not None:
            expect(
                isinstance(raw, dict) and len(raw) > 0,
                "'aggregates' must be a non-empty object of name -> {fn, column}",
            )
            assert isinstance(raw, dict)
            for name, node in raw.items():
                expect(isinstance(node, dict), f"aggregate {name!r} must be a JSON object")
                try:
                    aggregates.append((name, parse_aggregate(node.get("fn"), node.get("column"))))
                except ValidationError as error:
                    raise ValidationError(f"aggregate {name!r}: {error}") from None

        order_by, descending = _order(body)
        limit = body.get("limit")
        if body.get("k") is not None:
            expect(order_by is not None, "'k' needs 'order_by'")
            expect(limit is None, "'k' replaces 'limit'; send one or the other")
            limit = body["k"]
        where, having = body.get("where"), body.get("having")
        return cls(
            predicate=None if where is None else Predicate.from_json(where),
            projection=_names(body, "select"),
            group_by=_names(body, "group_by") or (),
            aggregates=tuple(aggregates),
            having=None if having is None else Predicate.from_json(having),
            order_by=order_by,
            descending=descending,
            limit=limit,
        ).check_complete()

    def fingerprint(self) -> str:
        """The canonical JSON text of :meth:`to_json`: the result-cache key.

        Two plans with equal fingerprints over the same relation state
        (same ``cache_token``) produce bit-identical results, so the query
        service keys its result cache on ``(table, plan fingerprint)``.
        Every name and constant is a JSON value, so no two plans collide.
        """
        return canonical_json(self.to_json())


@dataclass
class PlanResult:
    """The output of one executed plan.

    ``columns`` maps output names to value sequences: materialised column
    arrays/lists for projections, per-group key and aggregate value lists
    for aggregations (one entry per group, sorted by group key; exactly one
    entry when there is no group-by).  ``row_ids`` carries the qualifying
    global row ids for non-aggregate plans (``None`` after an aggregation —
    rows were reduced away); they are ascending except under a
    an ``order_by``, where they follow the requested order.
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


class QueryCompiler:
    """Validate plans and run them on the ScanPlanner and per-block tasks.

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

    def compile(self, plan: Plan) -> Plan:
        """Validate ``plan`` against this relation's schema; returns it unchanged.

        Unknown columns, string inputs to integer aggregates, duplicate
        output names and a ``having`` over a non-output column are
        rejected here, before anything runs.
        """
        plan.check_complete()
        schema = self._relation.schema
        for name in plan.referenced_columns():
            if name not in schema:
                raise UnknownColumnError(name, schema.names)
        output_names = list(plan.group_by)
        for name, fn in plan.aggregates:
            if name in output_names:
                raise ValidationError(f"duplicate output column {name!r} in aggregation")
            output_names.append(name)
            if fn.needs_int and fn.column is not None and schema.dtype(fn.column).is_string:
                raise ValidationError(
                    f"{fn.kind}() needs an integer column, {fn.column!r} is a string"
                )
        if plan.having is not None:
            for name in plan.having.columns():
                if name not in output_names:
                    raise ValidationError(
                        f"having references {name!r}, which is not an output column "
                        "of the aggregation"
                    )
        return plan

    def _projection(self, plan: Plan) -> tuple[str, ...]:
        """The columns a non-aggregating plan materialises (``None``: all)."""
        return plan.projection if plan.projection is not None else self._relation.schema.names

    # -- execution -------------------------------------------------------------

    def execute(self, plan: Plan, tracer: "Tracer | None" = None) -> PlanResult:
        """Run a plan plan and materialise its output.

        ``tracer``, when given, becomes the ambient tracer for the whole
        execution (planner, workers, storage fetches included) and records
        the root ``execute`` span; otherwise the caller's ambient tracer —
        usually :data:`~repro.query.tracing.TRACE_DISABLED` — is kept.
        """
        active: "Tracer | NullTracer" = tracer if tracer is not None else current_tracer()
        with activate(active):
            with active.span("execute") as root:
                if plan.aggregates:
                    result = self._execute_aggregate(plan)
                else:
                    result = self._execute_select(plan)
                if active.enabled:
                    root.annotate(rows=result.n_rows)
                return result

    def _operators(self, plan: Plan) -> list[str]:
        """The plan as the operator chain it executes, root first, indented."""
        relation = self._relation
        chain = [
            f"Scan [{len(relation.schema.names)} columns x {relation.n_rows:,} rows "
            f"in {relation.n_blocks} block(s)]"
        ]
        if plan.predicate is not None:
            chain.append(f"Filter [{plan.predicate.describe()}]")
        if plan.aggregates:
            parts = ", ".join(f"{name}={fn.describe()}" for name, fn in plan.aggregates)
            group = f" group by {', '.join(plan.group_by)}" if plan.group_by else ""
            chain.append(f"Aggregate [{parts}{group}]")
            if plan.having is not None:
                chain.append(f"Filter [{plan.having.describe()}]")
        else:
            chain.append(f"Project [{', '.join(self._projection(plan))}]")
        direction = "desc" if plan.descending else "asc"
        if plan.order_by is not None and plan.limit is not None:
            chain.append(f"TopK [{plan.order_by} {direction}, k={plan.limit}]")
        else:
            if plan.order_by is not None:
                chain.append(f"Sort [{plan.order_by} {direction}]")
            if plan.limit is not None:
                chain.append(f"Limit [{plan.limit}]")
        return ["  " * depth + line for depth, line in enumerate(reversed(chain))]

    def explain(self, plan: Plan, analyze: bool = False) -> str:
        """Render ``plan`` plus the planner's per-block decisions.

        The physical section lists the columns the query could decode at
        most (projection pushdown), the combined predicate, and one line
        per block with its prune/full/scan verdict and global row range.
        ``analyze=True`` additionally *runs* the query under a fresh
        :class:`~repro.query.tracing.Tracer` and appends per-stage wall
        time, rows and bytes plus the recorded span tree — the classic
        ``EXPLAIN ANALYZE``.
        """
        plan = self.compile(plan)
        lines = ["== logical plan ==", *self._operators(plan), "", "== physical scan =="]
        referenced = plan.referenced_columns()
        if not plan.aggregates:
            referenced = tuple(dict.fromkeys(referenced + self._projection(plan)))
        lines.append(
            f"columns decoded at most: {', '.join(referenced) if referenced else '(none)'}"
        )
        if plan.predicate is None:
            lines.append("predicate: (none — every block fully covered)")
        else:
            lines.append(f"predicate: {plan.predicate.describe()}")
        scan_plan = self._planner.plan(plan.predicate)
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
            lines.extend(self._explain_analyze(plan))
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

    def _explain_analyze(self, plan: Plan) -> list[str]:
        """Run ``plan`` traced and render the per-stage analysis section."""
        tracer = Tracer()
        result = self.execute(plan, tracer=tracer)
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

    def _execute_select(self, plan: Plan) -> PlanResult:
        """Row ids of a non-aggregating query, then its projection.

        ``order_by`` with a ``limit`` is a fused top-k: blocks are visited
        in zone-map bound order with an early exit, and each visited block
        hands back at most ``k`` candidates chosen by partition, not by
        sorting the block — no full sort runs, per block or overall.
        ``order_by`` alone sorts every selected row; a bare ``limit``
        truncates the row-id stream before anything is materialised.
        """
        metrics: ScanMetrics | None
        if plan.order_by is not None and plan.limit is not None:
            row_ids, metrics = self._topk_row_ids(plan)
        else:
            if plan.predicate is None:
                row_ids = np.arange(self._relation.n_rows, dtype=np.int64)
                metrics = None
            else:
                row_ids, metrics = self._scan_row_ids(plan)
            if plan.order_by is not None:
                row_ids = self._sorted_row_ids(plan, row_ids)
            if plan.limit is not None:
                # Limit pushdown: truncate the row-id stream before any value
                # of the projection is materialised.
                row_ids = row_ids[: plan.limit]
        columns = materialize_columns(
            self._relation, self._projection(plan), row_ids, pool=self._pool
        )
        return PlanResult(columns=columns, row_ids=row_ids, metrics=metrics)

    def _scan_row_ids(self, plan: Plan) -> tuple[np.ndarray, ScanMetrics]:
        """Ascending global row ids satisfying the plan's predicate, plus metrics."""
        tracer = current_tracer()
        with tracer.span("scan") as span:
            tasks, metrics = self._classify_blocks(plan.predicate)
            prefetcher = self._make_prefetcher(plan, tasks)
            results = parallel_map(
                lambda task: self._select_block(plan.predicate, prefetcher, *task),
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

    def _sorted_row_ids(self, plan: Plan, row_ids: np.ndarray) -> np.ndarray:
        """``row_ids`` reordered by the sort column (full materialise-and-sort).

        The order criterion is total: equal keys keep ascending global row
        id, which every stable sort below preserves because the gathered
        keys arrive in ascending row-id order.
        """
        if row_ids.size <= 1:
            return row_ids
        with current_tracer().span("sort", rows=int(row_ids.size)):
            assert plan.order_by is not None
            keys = materialize_columns(
                self._relation, (plan.order_by,), row_ids, pool=self._pool
            )[plan.order_by]
            if isinstance(keys, np.ndarray):
                # ``~x`` (= ``-x - 1``) reverses int64 order without the
                # overflow ``-x`` has at ``-2**63``.
                sort_keys = ~keys if plan.descending else keys
                return row_ids[np.argsort(sort_keys, kind="stable")]
            # String keys: Python's sort is stable and ``reverse=True`` does
            # not reorder equal elements, so ties stay in row-id order.
            order = sorted(
                range(len(keys)), key=lambda i: keys[i], reverse=plan.descending
            )
            return row_ids[np.asarray(order, dtype=np.int64)]

    def _topk_row_ids(self, plan: Plan) -> tuple[np.ndarray, ScanMetrics]:
        """The ``k`` best row ids by the sort column, zone-map-driven.

        Blocks are visited in order of the sort column's min (ascending) or
        max (descending) zone-map bound, one worker-sized wave at a time;
        each visited block contributes at most ``k`` gathered
        ``(key, row id)`` candidates.
        The scan stops as soon as no remaining block's bound can *strictly*
        beat the current ``k``-th candidate — a tie could still displace it
        on the ascending-row-id tie-break, so ties keep scanning.  Blocks
        never visited are re-classified as pruned: on an out-of-core
        relation their data was never fetched.
        """
        column = plan.order_by
        assert column is not None
        k = plan.limit if plan.limit is not None else 0
        tracer = current_tracer()
        with tracer.span("topk", column=column, k=k) as span:
            entries, metrics = self._classify_blocks(plan.predicate)
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
                return stats.max_value if plan.descending else stats.min_value

            bounds = [bound(index) for index, _, _ in entries]
            # Unknown bounds first (they must always be visited), then most
            # promising first.  The sign flip makes "promising" uniform.
            sign = -1 if plan.descending else 1

            def visit_key(position: int) -> "tuple[int, Any]":
                b = bounds[position]
                if b is None:
                    return (0, 0)
                return (1, sign * b) if not isinstance(b, str) else (1, b)

            if plan.descending and any(isinstance(b, str) for b in bounds):
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
                        next_bound < kth_key if plan.descending else next_bound > kth_key
                    ):
                        break
                batch = order[position : position + wave]
                position += len(batch)
                results = parallel_map(
                    lambda entry: self._topk_block(plan, *entry, k),
                    [entries[p] for p in batch],
                    self._pool,
                )
                for pairs, partial in results:
                    metrics.merge(partial)
                    candidates.extend(pairs)
                candidates = _topk_pairs(candidates, k, plan.descending)
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
        plan: Plan,
        index: int,
        offset: int,
        full: bool,
        k: int,
    ) -> tuple[list[tuple[Any, int]], ScanMetrics]:
        """Worker body: one block's ``k`` best ``(key, global row id)`` pairs.

        The pairs come back already in final rank order.  The key column
        is gathered at the selected positions and ranked by
        :func:`_ranked_positions` — a partition to the ``k``-th key, a
        stable sort of only the keys strictly before it, then the ``k``-th
        key's first ties in row order — never a sort of more than ``k``
        keys, however many the block holds or share a value.
        """
        block = self._relation.block(index)
        partial = ScanMetrics()
        mask, n_selected = self._block_selection(block, plan.predicate, full, partial)
        if n_selected == 0:
            return [], partial
        column = plan.order_by
        assert column is not None
        positions = np.arange(block.n_rows) if mask is None else np.flatnonzero(mask)
        gathered = self._gather_inputs(block, (column,), positions, partial)
        keys = gathered[column]
        if isinstance(keys, np.ndarray):
            best = _ranked_positions(keys, k, plan.descending)
            return (
                [(int(keys[i]), int(offset + positions[i])) for i in best],
                partial,
            )
        pairs = list(zip(keys, (positions + offset).tolist()))
        if plan.descending:
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
        predicate-decode counter).  An out-of-core proxy materialises only
        ``names`` (plus dependency closure) — column-granular on format-v3
        tables.
        """
        with current_tracer().span("gather", rows=int(positions.size), columns=len(names)):
            block = resolve_block(block, columns=names)
            partial.rows_gathered += int(positions.size)
            return materialize_block_columns(block, names, positions)

    def _make_prefetcher(
        self, plan: Plan, tasks: list[tuple[int, int, bool]]
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
        if plan.predicate is not None:
            columns.extend(plan.predicate.columns())
        for name in plan.gather_columns():
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

    def _execute_aggregate(self, plan: Plan) -> PlanResult:
        tasks, metrics = self._classify_blocks(plan.predicate)
        prefetcher = self._make_prefetcher(plan, tasks)
        pairs, slots = moment_slots(plan.aggregates)
        results = parallel_map(
            lambda task: self._aggregate_block(plan, pairs, task[0], task[2], prefetcher),
            tasks,
            self._pool,
        )
        # A group's state is one partial per (column, moment) pair; the
        # ungrouped query is the single group ``()``.
        merged: dict = {}
        for groups, partial in results:
            metrics.merge(partial)
            for key, state in groups.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = state
                else:
                    for slot, (_, moment) in enumerate(pairs):
                        existing[slot] = moment.merge(existing[slot], state[slot])
        if not plan.group_by and not merged:
            merged[()] = [moment.empty for _, moment in pairs]  # no row qualified

        keys = sorted(merged)
        if plan.having is None and plan.limit is not None:
            # Without a HAVING the limit can truncate before any group is
            # finalised; a HAVING must see every group first.
            keys = keys[: plan.limit]
        single = len(plan.group_by) == 1
        columns: dict[str, "np.ndarray | list"] = {}
        for position, name in enumerate(plan.group_by):
            columns[name] = keys if single else [key[position] for key in keys]
        for (name, fn), wiring in zip(plan.aggregates, slots):
            columns[name] = [fn.finalize(*[merged[key][slot] for slot in wiring]) for key in keys]
        if plan.having is not None:
            columns = _apply_having(columns, plan.having)
            if plan.limit is not None:
                columns = {name: values[: plan.limit] for name, values in columns.items()}
        return PlanResult(columns=columns, row_ids=None, metrics=metrics)

    def _aggregate_block(
        self,
        plan: Plan,
        pairs: "list[tuple[str | None, Moment]]",
        index: int,
        full: bool,
        prefetcher: "Callable[[int], None] | None",
    ) -> tuple[dict, ScanMetrics]:
        """Worker body: one block's per-group moment partials plus metrics."""
        tracer = current_tracer()
        with tracer.span("aggregate", block=index) as span:
            if prefetcher is not None:
                prefetcher(index)
            block = self._relation.block(index)
            partial = ScanMetrics()
            mask, n_selected = self._block_selection(block, plan.predicate, full, partial)
            groups: dict = {}
            if n_selected:
                groups = self._reduce_block(plan, pairs, block, mask, n_selected, full, partial)
            if tracer.enabled:
                span.annotate(rows=partial.rows_matched, groups=len(groups))
            return groups, partial

    def _reduce_block(
        self,
        plan: Plan,
        pairs: "list[tuple[str | None, Moment]]",
        block: CompressedBlock,
        mask: "np.ndarray | None",
        n_selected: int,
        full: bool,
        partial: ScanMetrics,
    ) -> dict:
        """Every needed moment of one block's (non-empty) selection, per group.

        Each ``(column, moment)`` pair goes down one cascade — zone map,
        then gathered values.  The zone map reduces the selection as a
        whole, so it answers only an ungrouped query over a fully-covered
        block; whatever is left shares a single gather with the group-key
        columns.
        """
        source = block  # zone maps are read off the (possibly out-of-core) original
        group_by = plan.group_by
        keys: list = []
        inverse: np.ndarray | None = None  # row -> group index; None: one group
        gather_names: list[str] = []
        if group_by:
            # Grouping always touches block data; materialise an out-of-core
            # proxy once — column-granular tables fetch only the group keys
            # and aggregate inputs.
            block = resolve_block(block, columns=plan.gather_columns())
            grouping = self._compressed_group_keys(block, group_by, mask, n_selected, partial)
            if grouping is None:
                gather_names = list(group_by)
            else:
                keys, inverse = grouping

        # slot -> the group's partial (ungrouped) or one partial per group;
        # ``None`` marks "not answered yet" — no group is ever empty here.
        resolved: list = [None] * len(pairs)
        # Zone map: a fully-covered block reduces all of its rows, so exact
        # statistics answer without decoding anything.
        lift = not group_by and full
        pending = []
        bounds: dict = {}
        for slot, (column, moment) in enumerate(pairs):
            if column is None:
                continue
            stats = source.column_statistics(column)
            if lift and stats is not None:
                resolved[slot] = stats.aggregate_value(moment.name)
            if resolved[slot] is None:
                pending.append(slot)
                # max|x| off the zone map keeps Σx and Σx² exact without a
                # pass over the data (None: the moment measures the values).
                bounds[column] = None if stats is None else stats.magnitude
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
            return {(): resolved}
        return dict(zip(keys, map(list, zip(*resolved))))

    def _compressed_group_keys(
        self,
        block: CompressedBlock,
        group_by: tuple[str, ...],
        mask: "np.ndarray | None",
        n_selected: int,
        partial: ScanMetrics,
    ) -> "tuple[list, np.ndarray] | None":
        """``(keys, inverse)`` without gathering, or ``None``.

        A single dictionary column groups by its distinct packed codes,
        keyed by its dictionary entries — the keys a decoded block of the
        same column gives, so the two merge.
        """
        if len(group_by) != 1:
            return None
        grouping = self._kernels.group_keys(block, group_by[0], mask)
        if grouping is not None:
            partial.rows_kernel_aggregated += n_selected
        return grouping


def _python_group_keys(group_by: tuple[str, ...], gathered: dict) -> tuple[list, np.ndarray]:
    """Hashable group keys + per-row group index from decoded group columns.

    A single group column is vectorized: a string column (decoded as a
    list) is factorised like every string dictionary, an integer column
    whose values span fewer slots than it has rows is counted with
    ``np.bincount`` over ``value - min`` (one linear pass), anything else
    goes through ``np.unique``; all give ascending keys and the same
    inverse.  Only multi-column grouping falls back to a per-row Python
    loop over key tuples.  Keys are Python ints and strs — the keys the
    dictionary kernel gives a code-space block of the same column (per-block
    encodings may differ), so the blocks' groups merge.
    """
    if len(group_by) == 1:
        values = gathered[group_by[0]]
        if isinstance(values, list):
            codes, distinct = factorize_strings(values)
            return distinct, codes
        if values.size:
            low = int(values.min())
            if int(values.max()) - low < values.size:
                offsets = (values - low).astype(np.intp, copy=False)
                present = np.flatnonzero(np.bincount(offsets))
                slot = np.zeros(present[-1] + 1, dtype=np.intp)
                slot[present] = np.arange(present.size)
                return [low + offset for offset in present.tolist()], slot[offsets]
        unique, inverse = np.unique(values, return_inverse=True)
        return unique.tolist(), inverse
    columns = [
        gathered[name].tolist() if isinstance(gathered[name], np.ndarray) else gathered[name]
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


# ---------------------------------------------------------------------------
# fluent builder
# ---------------------------------------------------------------------------


def _check_predicates(method: str, predicates: Sequence[object]) -> None:
    if not predicates:
        raise ValidationError(f"{method}() needs at least one predicate")
    for predicate in predicates:
        if not isinstance(predicate, Predicate):
            raise ValidationError(
                f"{method}() takes Predicate objects (Eq/Between/In/...), got {predicate!r}"
            )


def _conjoin(current: Predicate | None, predicates: Sequence[Predicate]) -> Predicate:
    terms = ([] if current is None else [current]) + list(predicates)
    return terms[0] if len(terms) == 1 else And(*terms)


class LazyQuery:
    """Fluent, lazy builder of one :class:`Plan` over one compressed relation.

    Every chaining call returns a *new* ``LazyQuery`` holding a new plan;
    nothing touches the data until a terminal (:meth:`execute`,
    :meth:`count`) runs, and :meth:`explain` shows the plan plus the
    planner's per-block decisions without executing anything.  Typical use::

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

    def __init__(self, relation: Relation, engine: "Engine", plan: Plan | None = None) -> None:
        self._relation = relation
        self._engine = engine
        self._plan = plan if plan is not None else Plan()
        self._last_metrics: ScanMetrics | None = None

    # -- fluent chain ----------------------------------------------------------

    def with_plan(self, plan: Plan) -> "LazyQuery":
        """This chain's relation and engine running ``plan`` (the wire protocol's entry)."""
        return LazyQuery(self._relation, self._engine, plan)

    def _chain(self, **changes: Any) -> "LazyQuery":
        return self.with_plan(replace(self._plan, **changes))

    def where(self, *predicates: Predicate) -> "LazyQuery":
        """Add filter predicates (AND-combined with any existing ones)."""
        _check_predicates("where", predicates)
        return self._chain(predicate=_conjoin(self._plan.predicate, predicates))

    def select(self, *columns: str) -> "LazyQuery":
        """Project the named columns (aggregating queries name outputs via agg)."""
        if not columns:
            raise ValidationError("select() needs at least one column")
        return self._chain(projection=tuple(columns))

    def group_by(self, *columns: str) -> "LazyQuery":
        """Group the aggregation by the named columns."""
        if not columns:
            raise ValidationError("group_by() needs at least one column")
        return self._chain(group_by=tuple(columns))

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
        return self._chain(aggregates=self._plan.aggregates + tuple(aggregates.items()))

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
        return self._chain(having=_conjoin(self._plan.having, predicates))

    def order_by(self, column: str, desc: bool = False) -> "LazyQuery":
        """Order the output rows by ``column`` (ties keep ascending row id).

        Followed by :meth:`limit`, the pair executes as a fused top-k:
        bounded per-block candidate heaps, block visits in zone-map bound
        order, and an early exit that skips — and on disk never fetches —
        blocks that cannot affect the answer.  Not combinable with
        ``agg()``/``group_by()``.
        """
        if not column:
            raise ValidationError("order_by() needs a column name")
        return self._chain(order_by=column, descending=desc)

    def limit(self, n: int) -> "LazyQuery":
        """Keep at most ``n`` output rows (applied before materialisation).

        ``n`` is any non-negative integer (numpy integers included); a
        ``bool``, a float or a string is rejected here, not at execution.
        """
        expect(n is not None, "limit must be a non-negative integer, got None")
        return self._chain(limit=n)

    def logical_plan(self) -> Plan:
        """The plan this chain describes, once it is complete."""
        return self._plan.check_complete()

    def _compiler(self) -> QueryCompiler:
        return self._engine.compiler_for(self._relation)

    # -- terminals -------------------------------------------------------------

    @property
    def last_metrics(self) -> ScanMetrics | None:
        """Metrics of the most recent execute()/count() on this chain link."""
        return self._last_metrics

    def explain(self, analyze: bool = False) -> str:
        """Render the plan plus per-block prune/full/scan decisions.

        ``analyze=True`` also runs the query under a tracer and appends
        per-stage wall time, rows and bytes plus the span tree.
        """
        return self._compiler().explain(self._plan, analyze=analyze)

    def _run(self, plan: Plan, tracer: "Tracer | None") -> PlanResult:
        compiler = self._compiler()
        result = compiler.execute(compiler.compile(plan), tracer=tracer)
        self._last_metrics = result.metrics
        return result

    def execute(self, tracer: "Tracer | None" = None) -> PlanResult:
        """Compile and run the plan, materialising its output.

        ``tracer``, when given, records the execution's span tree (see
        :mod:`repro.query.tracing`).
        """
        return self._run(self._plan, tracer)

    def count(self, tracer: "Tracer | None" = None) -> int:
        """The number of qualifying rows, without materialising any output.

        Shortcut for ``agg(count=Count())`` on a plain filter chain; blocks
        the zone maps prove fully covered are answered from metadata alone
        (check :attr:`last_metrics` — ``rows_decoded`` stays zero when every
        block is pruned or covered).  A ``limit(k)`` on the chain caps the
        result, matching ``execute().n_rows``.  ``tracer`` records the
        execution's span tree, as for :meth:`execute`.
        """
        plan = self._plan
        if plan.aggregates or plan.group_by or plan.having is not None:
            raise ValidationError("count() is for plain filter chains; use agg(n=Count())")
        counted = Plan(predicate=plan.predicate, aggregates=(("count", Count()),))
        total = int(self._run(counted, tracer).scalar("count"))
        if plan.limit is not None:
            total = min(total, plan.limit)
        return total
