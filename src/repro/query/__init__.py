"""Query engine over compressed relations: lazy plans on a pruned, parallel scan.

The front door is the **lazy query API**: describe a query as one
:class:`Plan` record, then execute it — nothing is decoded while the query
is being composed.  Start a chain with
:meth:`Relation.query() <repro.storage.relation.Relation.query>`::

    result = (
        relation.query()
        .where(Between("ship", 8_100, 8_200) & ~Eq("flag", "R"))
        .agg(n=Count(), total=Sum("fare"), last=Max("receipt"))
        .execute()
    )
    print(result.scalar("total"), result.metrics.describe())

    by_tag = relation.query().group_by("tag").agg(n=Count()).execute()
    print(relation.query().where(Eq("tag", "a")).explain())

Layers, bottom to top:

* **Predicate IR** (:mod:`~repro.query.predicates`) — ``Eq``/``Between``/
  ``In``/``And``/``Or``/``Not`` nodes that compile to vectorized kernels
  *and* test against per-block zone maps.  A leaf states what it compares
  (``comparison()``: a range or a candidate set) once, for every
  compressed domain below; a combinator joins its children's masks
  itself (``combine()``).  Every node reads and writes the JSON wire
  grammar (``from_json``/``to_json``), and its fingerprint is the
  canonical JSON text.
* **Scan pipeline** (:mod:`~repro.query.scan`) — the memoizing
  :class:`ScanPlanner` classifies every block as pruned / fully covered /
  scan; surviving blocks offer each single-column subtree to the kernel
  registry and decode only what no kernel answers.  :class:`ScanMetrics`
  reports what both layers saved.
* **Compressed-domain kernels** (:mod:`~repro.query.kernels`) — the one
  :class:`KernelRegistry` the scan consults per (encoding, predicate) pair
  before falling back to decode-then-compare::

      predicate subtree over column c
        │
        └─ KernelRegistry[encoding_name(c)]
             ├─ dictionary ──▶ code space: constants become codes by
             │                binary search, compared over the packed
             │                codes (zero string-heap materialisation);
             │                code-space group-by
             ├─ for_bitpack ─▶ word space: shift constants by the frame,
             │                compare the packed words (zero-copy lane
             │                views for 8/16/32/64-bit widths)
             ├─ delta ───────▶ checkpoint space: two binary searches over
             │                the checkpoint index (monotonic columns)
             └─ (no kernel, or kernel declines) ─▶ decode then compare

  Every kernel is exact — bit-identical to the decode baseline, which
  ``Engine(kernels=KernelRegistry())`` runs: an empty registry declines
  every column.
* **Parallelism** (:mod:`~repro.query.parallel`) — every fan-out is one
  ordered :func:`parallel_map` of per-block tasks over the engine's one
  thread pool, whose shared queue hands the next block to whichever worker
  is idle; the NumPy kernels release the GIL, and results are
  bit-identical to serial execution.
* **Plans** (:mod:`~repro.query.plan`) — a query is one frozen
  :class:`Plan` record (predicate, projection, group-by, aggregates,
  having, order, limit) whose JSON form is the query service's wire
  grammar and whose canonical JSON text is its fingerprint; the fluent
  :class:`LazyQuery` builder, the JSON protocol and ``corra query`` all
  produce one.  The :class:`QueryCompiler` validates a plan against the
  schema and pushes work down before anything is materialised: projections decode only
  referenced columns, group-by on dictionary columns aggregates in code
  space (one dictionary entry read per distinct group), limits truncate row ids
  before materialisation, and ``order_by().limit(k)`` fuses into a
  zone-map-driven top-k that stops visiting (and fetching) blocks early.
* **How an aggregate is computed** (:mod:`~repro.query.aggregates`) — the
  one module that knows what an aggregate is.  Five *moments* (``count``,
  ``sum``, ``sumsq``, ``min``, ``max``) are each defined once as
  ``(from_values, scatter_by_group, merge)``, and the seven aggregates
  are ``(moments, finalize)`` over them.  Per block the compiler resolves
  each distinct ``(column, moment)`` pair through one cascade — *zone
  map* of a fully-covered block → *gathered values*, scattered by group
  id when grouping — merges the exact partials (Σx and Σx² never wrap)
  and finalises once at output.  Adding an aggregate is a subclass
  declaring ``moments`` and ``finalize``; see that module's docstring.
* **Engine** (:mod:`~repro.query.engine`) — every query runs through an
  :class:`Engine`, which owns all cross-query state (one worker pool, one
  prefetch pool, one block cache, one kernel registry, one memoized
  compiler/planner per relation) and is configured by one immutable
  :class:`EngineConfig` — the only spelling of ``workers``,
  ``cache_bytes`` and ``prefetch_workers``.  A query starts from
  ``engine.query(relation)``, which shares the engine's state with every
  other query on it, as the query service (:mod:`repro.server`) does;
  ``relation.query()`` is the same chain on a fresh default engine.

:mod:`~repro.query.selection` carries the paper's selection-vector
workload unchanged.
"""

from .engine import Engine, EngineConfig
from .kernels import (
    DEFAULT_KERNELS,
    ColumnKernel,
    DeltaKernel,
    DictionaryKernel,
    ForKernel,
    KernelRegistry,
)
from .parallel import parallel_map, resolve_workers
from .plan import (
    AggregateFunction,
    Avg,
    Count,
    LazyQuery,
    Max,
    Min,
    Plan,
    PlanResult,
    QueryCompiler,
    Std,
    Sum,
    Var,
)
from .predicates import And, Between, Eq, In, Not, Or, Predicate
from .scan import (
    BlockDecision,
    ScanMetrics,
    ScanPlan,
    ScanPlanner,
    evaluate_block_predicate,
    materialize_block_columns,
    materialize_columns,
    resolve_block,
)
from .selection import SelectionVector, generate_selection_vector, generate_selection_vectors

__all__ = [
    "SelectionVector",
    "generate_selection_vector",
    "generate_selection_vectors",
    "materialize_columns",
    "materialize_block_columns",
    "evaluate_block_predicate",
    "resolve_block",
    "Engine",
    "EngineConfig",
    "Predicate",
    "Eq",
    "Between",
    "In",
    "And",
    "Or",
    "Not",
    "BlockDecision",
    "ScanMetrics",
    "ScanPlan",
    "ScanPlanner",
    "ColumnKernel",
    "DictionaryKernel",
    "ForKernel",
    "DeltaKernel",
    "KernelRegistry",
    "DEFAULT_KERNELS",
    "parallel_map",
    "resolve_workers",
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
