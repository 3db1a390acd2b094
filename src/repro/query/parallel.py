"""Morsel-driven parallel execution over compressed relations.

The serial executor walks the post-pruning block list one block at a time,
so scan latency is bounded by a single core even though every per-block
kernel (bit-unpacking, predicate masks, ``np.isin``) is NumPy code that
releases the GIL.  :class:`ParallelEngine` lifts that limit:

* the :class:`~repro.query.scan.ScanPlanner` classifies blocks as usual —
  pruned and fully-covered blocks never reach a worker;
* the surviving *scan* blocks are split into **morsels** (small runs of
  consecutive blocks, the work-stealing granule of morsel-driven execution);
* the morsels are dealt into per-worker deques as contiguous slices (good
  for read-ahead locality) and a ``ThreadPoolExecutor`` runs one *drain
  loop* per worker: each worker pops morsels from the **front** of its own
  deque, and when it drains it **steals from the back** of a sibling's —
  so a skewed workload (one dense block among pruned ones, RLE blocks of
  wildly different run counts, cache-miss stragglers on a
  :class:`~repro.storage.disk.DiskRelation`) no longer serialises on the
  slowest worker's tail::

      morsels   [m0 m1 m2 m3 | m4 m5 m6 m7]      contiguous deal, 2 workers
                     │                │
      worker 0   m0 m1 m2 m3     worker 1   m4 m5 m6 m7
                 ▲ popleft()                ▲ popleft()
                 (own work: front)          ...finishes early, then
                                            steals m3 = queues[0].pop()
                                            (victim's back: the morsel the
                                            owner would reach *last*)

  Each worker evaluates its blocks' predicate masks via
  :func:`~repro.query.scan.evaluate_block_predicate` (compressed-domain
  kernels included) and records a private :class:`ScanMetrics`; steals are
  charged to ``steal_attempts``/``morsels_stolen`` and show up as
  ``steal`` spans in the tracing tree.  Both deque ends are single
  CPython bytecode operations, so no locks are needed and a morsel is
  taken exactly once;
* per-morsel results are merged back in block order, so row ids come out
  sorted and identical to serial execution — stealing changes *where* a
  morsel runs, never what it returns — and the per-worker metrics are
  folded into one object with :meth:`ScanMetrics.merge`;
* over an out-of-core relation, each worker hints the *next* surviving
  block's required (predicate) columns to the relation's read-ahead pool
  before running the current block's kernel, so cold fetches overlap with
  compute — on column-granular tables (format v3) only the predicate
  columns' sub-segments move.

Threads (not processes) are the right vehicle here because the kernels are
NumPy-bound; morsels only coordinate which Python-level loop iteration runs
where.  ``workers=1`` executes inline without a pool, which keeps the
engine usable as the single code path for correctness tests.

Beyond predicate scans, :meth:`ParallelEngine.map_items` exposes the same
persistent pool as an ordered map, which the query compiler uses to fan
per-block aggregation tasks across the workers.  The module also provides
:func:`parallel_map`, the ad-hoc ordered thread-pool map that
:class:`~repro.core.plan.TableCompressor` uses to compress blocks on all
cores.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..errors import ValidationError
from ..storage.relation import Relation
from .predicates import Predicate
from .scan import BlockDecision, ScanMetrics, ScanPlanner, evaluate_block_predicate
from .tracing import current_tracer, run_adopted

__all__ = ["Morsel", "ParallelEngine", "parallel_map", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: Blocks per morsel when the caller does not choose one.  Morsels are
#: fixed-size runs of consecutive scan blocks; one block per morsel
#: maximises scheduling freedom, and callers with very many tiny blocks can
#: raise ``morsel_blocks`` to amortise per-morsel dispatch overhead.
DEFAULT_MORSEL_BLOCKS = 1


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request (``None``/``0`` = all cores)."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValidationError("worker count must be positive (or 0 for auto)")
    return int(workers)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int | None = None) -> list[R]:
    """``[fn(item) for item in items]`` fanned across a thread pool.

    Output order matches input order regardless of completion order.  With
    one worker (or at most one item) the map runs inline, avoiding pool
    start-up cost and keeping tracebacks trivial.
    """
    n_workers = min(resolve_workers(workers), max(1, len(items)))
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    fn = _adopting(fn)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def _adopting(fn: Callable[[T], R]) -> Callable[[T], R]:
    """Wrap a worker body so pool threads join the caller's active trace.

    The ambient tracer and the caller's innermost open span are captured
    *on the calling thread*; each worker invocation then runs inside
    :meth:`~repro.query.tracing.Tracer.adopt`, so spans the worker opens
    nest under the span that launched the fan-out.  When tracing is off
    the body is returned untouched — the disabled path adds nothing.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return fn
    parent = tracer.current()
    return lambda item: run_adopted(tracer, parent, fn, item)


@dataclass(frozen=True)
class Morsel:
    """A run of consecutive *scan* blocks handed to one worker at a time."""

    block_indices: tuple[int, ...]
    row_offsets: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.block_indices)


class ParallelEngine:
    """Parallel scan/count over a relation, morsel by morsel.

    Parameters
    ----------
    relation:
        The compressed relation to execute over.
    workers:
        Worker threads; ``None``/``0`` uses every core, ``1`` runs inline.
    planner:
        An existing (possibly memoized) :class:`ScanPlanner` to share; a
        fresh one is created otherwise.
    morsel_blocks:
        Blocks per morsel (default 1).
    kernels:
        An explicit :class:`~repro.query.kernels.KernelRegistry` to offer
        single-column subtrees to (``None`` uses the default registry; an
        empty registry forces the decode path).
    pool:
        An externally-owned ``ThreadPoolExecutor`` to fan morsels over —
        a shared :class:`~repro.query.engine.Engine` passes its one pool
        here so N concurrent queries share workers.  :meth:`close` never
        shuts an external pool down.
    """

    def __init__(
        self,
        relation: Relation,
        workers: int | None = None,
        planner: ScanPlanner | None = None,
        morsel_blocks: int = DEFAULT_MORSEL_BLOCKS,
        kernels=None,
        pool: ThreadPoolExecutor | None = None,
    ):
        if morsel_blocks < 1:
            raise ValidationError("morsel size must be at least one block")
        self._relation = relation
        self._workers = resolve_workers(workers)
        self._planner = planner if planner is not None else ScanPlanner(relation)
        self._morsel_blocks = morsel_blocks
        self._kernels = kernels
        #: Externally-owned pool (shared engine): used but never shut down.
        self._shared_pool = pool
        #: Lazily-created persistent pool: repeated queries must not pay
        #: thread start-up on every call.  Idle threads cost nothing and are
        #: joined cleanly at interpreter shutdown (or via :meth:`close`).
        self._pool: ThreadPoolExecutor | None = None

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def planner(self) -> ScanPlanner:
        return self._planner

    # -- morsel construction ---------------------------------------------------

    def morsels(self, scan_items: Sequence[tuple[int, int]]) -> list[Morsel]:
        """Group ``(block_index, row_offset)`` scan items into morsels."""
        size = self._morsel_blocks
        return [
            Morsel(
                block_indices=tuple(i for i, _ in scan_items[start : start + size]),
                row_offsets=tuple(o for _, o in scan_items[start : start + size]),
            )
            for start in range(0, len(scan_items), size)
        ]

    # -- execution -------------------------------------------------------------

    def classify(
        self, predicate: Predicate | None
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]], ScanMetrics]:
        """Plan a scan: (scan items, full items, pre-filled metrics).

        Items are ``(block_index, row_offset)`` pairs in block order; the
        metrics carry the block totals and per-decision counts.  This is the
        single classification step shared by the engine's own ``scan`` /
        ``count`` and by the query compiler's aggregate execution.
        ``predicate=None`` classifies every non-empty block as fully
        covered.
        """
        plan = self._planner.plan(predicate)
        metrics = ScanMetrics(n_blocks=plan.n_blocks, rows_total=self._relation.n_rows)
        scan_items: list[tuple[int, int]] = []
        full_items: list[tuple[int, int]] = []
        offset = 0
        for index, decision in enumerate(plan.decisions):
            block = self._relation.block(index)
            if decision == BlockDecision.PRUNE:
                metrics.blocks_pruned += 1
            elif decision == BlockDecision.FULL:
                metrics.blocks_full += 1
                full_items.append((index, offset))
            else:
                metrics.blocks_scanned += 1
                scan_items.append((index, offset))
            offset += block.n_rows
        return scan_items, full_items, metrics

    def _next_block_map(self, scan_items: Sequence[tuple[int, int]]) -> dict[int, int]:
        """Each scan block mapped to the scan block that follows it in plan order.

        This is what read-ahead keys on: while block ``i``'s predicate
        kernel runs, the next *surviving* block's required columns are
        already being fetched.
        """
        indices = [index for index, _ in scan_items]
        return dict(zip(indices, indices[1:]))

    def _evaluate_morsel(
        self,
        morsel: Morsel,
        predicate: Predicate,
        count_only: bool = False,
        required_columns: tuple[str, ...] | None = None,
        next_block: "dict[int, int] | None" = None,
    ) -> tuple[list[tuple[int, np.ndarray]], ScanMetrics]:
        """Worker body: per-block qualifying row ids plus private metrics.

        ``count_only`` skips materialising row-id arrays (mirroring the
        serial ``count`` path's ``np.count_nonzero``) — only the counters in
        the returned metrics matter then.  When the relation supports
        read-ahead, the next surviving block's ``required_columns`` are
        prefetched before this block's kernel runs.
        """
        partial = ScanMetrics()
        matches: list[tuple[int, np.ndarray]] = []
        prefetch = getattr(self._relation, "prefetch_block_columns", None)
        for index, offset in zip(morsel.block_indices, morsel.row_offsets):
            if prefetch is not None and next_block is not None:
                following = next_block.get(index)
                if following is not None:
                    prefetch(following, required_columns)
            block = self._relation.block(index)
            mask = evaluate_block_predicate(
                block, predicate, metrics=partial, kernels=self._kernels
            )
            if count_only:
                partial.rows_matched += int(np.count_nonzero(mask))
                continue
            matched = np.flatnonzero(mask)
            partial.rows_matched += int(matched.size)
            if matched.size:
                matches.append((index, matched + offset))
        return matches, partial

    def map_items(self, items: Sequence[T], fn: Callable[[T], R]) -> list[R]:
        """``[fn(item) for item in items]`` over the engine's persistent pool.

        Output order matches input order.  With one worker (or at most one
        item) the map runs inline; otherwise the same lazily-created pool
        that serves predicate scans is reused, so interleaved scans and
        aggregations share their threads.  The query compiler fans
        per-block aggregation tasks through this.
        """
        if not items:
            return []
        if self._workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        fn = _adopting(fn)
        pool = self._shared_pool
        if pool is None:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self._workers)
            pool = self._pool
        return list(pool.map(fn, items))

    def _run_morsels(
        self,
        morsels: Sequence[Morsel],
        predicate: Predicate,
        count_only: bool = False,
        required_columns: tuple[str, ...] | None = None,
        next_block: "dict[int, int] | None" = None,
    ) -> tuple[list[tuple[list[tuple[int, np.ndarray]], ScanMetrics]], ScanMetrics]:
        """Evaluate every morsel under the work-stealing scheduler.

        Returns the per-morsel ``(matches, metrics)`` results *in morsel
        order* — stealing moves work between threads, never reorders the
        output — plus one scheduler-level :class:`ScanMetrics` carrying the
        ``steal_attempts``/``morsels_stolen`` counters summed over workers.

        The morsel list is dealt into ``n_workers`` contiguous deques (so
        each worker's own work preserves the read-ahead-friendly block
        order) and one drain loop runs per worker: own work comes off the
        front (``popleft``); a drained worker probes siblings round-robin
        and steals from the back (``pop``) — the morsel its owner would
        have reached last.  Both deque ends are atomic under the GIL, so a
        morsel is executed exactly once without any locking.  Results land
        in a pre-sized list at their morsel's position; the writes are to
        disjoint indices, so the shared list needs no lock either.
        """
        scheduler = ScanMetrics()
        indexed = list(enumerate(morsels))
        results: list[tuple[list[tuple[int, np.ndarray]], ScanMetrics]] = [
            ([], ScanMetrics())
        ] * len(indexed)

        def evaluate(position: int, morsel: Morsel) -> None:
            results[position] = self._evaluate_morsel(
                morsel, predicate, count_only, required_columns, next_block
            )

        n_workers = min(self._workers, len(indexed))
        if n_workers <= 1:
            for position, morsel in indexed:
                evaluate(position, morsel)
            return results, scheduler

        base, extra = divmod(len(indexed), n_workers)
        queues: list[deque[tuple[int, Morsel]]] = []
        start = 0
        for worker_id in range(n_workers):
            stop = start + base + (1 if worker_id < extra else 0)
            queues.append(deque(indexed[start:stop]))
            start = stop

        def drain(worker_id: int) -> ScanMetrics:
            stats = ScanMetrics()
            tracer = current_tracer()
            own = queues[worker_id]
            while True:
                try:
                    position, morsel = own.popleft()
                except IndexError:
                    stolen = None
                    for step in range(1, n_workers):
                        victim = (worker_id + step) % n_workers
                        stats.steal_attempts += 1
                        try:
                            stolen = queues[victim].pop()
                        except IndexError:
                            continue
                        stats.morsels_stolen += 1
                        position, morsel = stolen
                        with tracer.span(
                            "steal", worker=worker_id, victim=victim
                        ):
                            evaluate(position, morsel)
                        break
                    if stolen is None:
                        return stats
                    continue
                evaluate(position, morsel)

        for stats in self.map_items(list(range(n_workers)), drain):
            scheduler.merge(stats)
        return results, scheduler

    def close(self) -> None:
        """Shut the owned worker pool down (idempotent; the engine stays
        usable — the next parallel query simply starts a fresh pool).
        An externally-owned shared pool is left running."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def scan(self, predicate: Predicate) -> tuple[np.ndarray, ScanMetrics]:
        """Global row ids satisfying ``predicate`` plus merged scan metrics.

        Row ids are returned in ascending order, bit-identical to the serial
        executor's output.
        """
        tracer = current_tracer()
        with tracer.span("scan") as span:
            scan_items, full_items, metrics = self.classify(predicate)
            results, scheduler = self._run_morsels(
                self.morsels(scan_items),
                predicate,
                required_columns=predicate.columns(),
                next_block=self._next_block_map(scan_items),
            )
            metrics.merge(scheduler)

            per_block: dict[int, np.ndarray] = {}
            for matches, partial in results:
                metrics.merge(partial)
                for index, row_ids in matches:
                    per_block[index] = row_ids
            for index, offset in full_items:
                n = self._relation.block(index).n_rows
                metrics.rows_matched += n
                per_block[index] = np.arange(offset, offset + n, dtype=np.int64)

            if tracer.enabled:
                span.annotate(
                    rows=metrics.rows_matched,
                    blocks=len(scan_items),
                    stolen=metrics.morsels_stolen,
                )
            if not per_block:
                return np.zeros(0, dtype=np.int64), metrics
            ordered = [per_block[index] for index in sorted(per_block)]
            return np.concatenate(ordered), metrics

    def count(self, predicate: Predicate) -> tuple[int, ScanMetrics]:
        """Number of qualifying rows plus merged metrics (no ids built)."""
        tracer = current_tracer()
        with tracer.span("scan") as span:
            scan_items, full_items, metrics = self.classify(predicate)
            results, scheduler = self._run_morsels(
                self.morsels(scan_items),
                predicate,
                count_only=True,
                required_columns=predicate.columns(),
                next_block=self._next_block_map(scan_items),
            )
            metrics.merge(scheduler)
            total = 0
            for matches, partial in results:
                metrics.merge(partial)
                total += partial.rows_matched
            for index, _ in full_items:
                total += self._relation.block(index).n_rows
            metrics.rows_matched = total
            if tracer.enabled:
                span.annotate(rows=total, blocks=len(scan_items))
            return total, metrics
