"""Disk-resident relations: lazy, cache-governed views over ``.corra`` files.

:class:`DiskRelation` satisfies the same protocol as the in-memory
:class:`~repro.storage.relation.Relation` — it *is* one, holding
:class:`LazyBlock` proxies instead of materialised blocks — so the whole
query stack (``ScanPlanner``, ``QueryCompiler``, the engine's worker pool, the
fluent ``Relation.query()`` chain) runs over it unchanged.  The difference
is *when* (and since format v3, *how much of*) a block moves:

* **planning is metadata-only** — a proxy answers ``n_rows``,
  ``statistics``, ``column_statistics`` and (v3) dependency questions
  straight from the table footer, so the planner prunes and stat-answers
  blocks without a single segment read;
* **data access faults segments in at column granularity** — on a format-v3
  table, :meth:`LazyBlock.load_columns` resolves the requested columns'
  dependency closure from footer metadata and fetches only those columns'
  sub-segments through the relation's byte-budgeted
  :class:`~repro.storage.cache.BlockCache` (keyed per *(relation, block,
  column)*, single-flight); byte-adjacent sub-segments of not-yet-cached
  columns are merged into one ranged read
  (``IOMetrics.reads_coalesced`` counts the seeks saved);
  :meth:`LazyBlock.load` remains the whole-block fallback, and the only
  path for v1/v2 files;
* **read-ahead hides cold latency** — :meth:`DiskRelation.
  prefetch_block_columns` schedules the next surviving block's required
  columns on a small bounded pool while the current block's kernel runs;
  the single-flight cache guarantees a demand fetch and its prefetch never
  duplicate I/O, and :class:`~repro.storage.cache.IOMetrics` counts the
  demand fetches the pool saved (``prefetch_hits``).

A table larger than the cache budget is therefore queryable end-to-end with
results bit-identical to the in-memory relation, pruned blocks provably
contribute zero bytes read, and a selective projection over a wide v3 table
reads only the referenced columns' bytes (``IOMetrics.column_bytes_read``
vs ``column_block_bytes``).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..errors import UnknownColumnError
from .block import ColumnDependency, CompressedBlock
from .cache import (
    DEFAULT_CACHE_BYTES,
    BlockCache,
    CacheStats,
    IOMetrics,
    TenantOccupancy,
    _tracer,
)
from .format import TableFooter, TableReader
from .relation import Relation
from .statistics import BlockStatistics, ColumnStatistics

__all__ = ["DiskRelation", "LazyBlock", "open_table", "DEFAULT_PREFETCH_WORKERS"]

#: Read-ahead pool size for a private :class:`DiskRelation`; 0 disables
#: prefetching entirely (every fetch is demand-driven).
DEFAULT_PREFETCH_WORKERS = 2

#: Prefetch submissions allowed in flight before further hints are dropped —
#: read-ahead must never queue unboundedly ahead of the kernels consuming it.
_PREFETCH_PENDING_LIMIT = 4


class LazyBlock:
    """A footer-backed stand-in for one :class:`CompressedBlock`.

    Metadata reads (``n_rows``, ``statistics``, ``column_statistics``,
    ``schema``, and — on v3 tables — ``dependency``/``is_horizontal``) are
    answered from the footer entry.  Data access faults segments in through
    the owning relation's cache: column-granular on v3 tables
    (:meth:`load_columns`, and the per-column accessors ``column``/
    ``decode_column``/``gather_column``), whole-block otherwise
    (:meth:`load`).
    """

    __slots__ = ("_relation", "_index", "_entry")

    def __init__(self, relation: "DiskRelation", index: int, entry) -> None:
        self._relation = relation
        self._index = index
        self._entry = entry

    # -- footer-answered metadata (no I/O) -------------------------------------

    @property
    def index(self) -> int:
        return self._index

    @property
    def n_rows(self) -> int:
        return self._entry.n_rows

    @property
    def statistics(self) -> BlockStatistics | None:
        return self._entry.statistics

    @property
    def schema(self):
        return self._relation.schema

    @property
    def segment_bytes(self) -> int:
        """On-disk size of the block's segment (footer metadata)."""
        return self._entry.length

    @property
    def is_loaded(self) -> bool:
        """Whether the whole block is currently resident in the cache."""
        return self._relation.is_block_cached(self._index)

    def column_statistics(self, name: str) -> ColumnStatistics | None:
        """Zone-map statistics for ``name`` from the footer (no block I/O)."""
        if name not in self._relation.schema:
            raise UnknownColumnError(name, self._relation.schema.names)
        if self._entry.statistics is None:
            return None
        return self._entry.statistics.column(name)

    def dependency(self, name: str) -> ColumnDependency | None:
        """The column's dependency record — footer-answered on v3 tables."""
        segment = self._entry.column_segment(name)
        if segment is not None:
            return segment.dependency
        if self._entry.columns is not None:
            # v3 entry, vertical column: the footer is authoritative.
            self._check_column(name)
            return None
        return self.load().dependency(name)

    def is_horizontal(self, name: str) -> bool:
        if self._entry.columns is not None:
            self._check_column(name)
            segment = self._entry.column_segment(name)
            return bool(segment is not None and segment.references)
        return self.load().is_horizontal(name)

    def _check_column(self, name: str) -> None:
        if name not in self._relation.schema:
            raise UnknownColumnError(name, self._relation.schema.names)

    # -- data access (faults segments in) --------------------------------------

    def load(self) -> CompressedBlock:
        """The fully materialised block, fetched through the relation's cache."""
        return self._relation._load_block(self._index)

    def load_columns(self, names: Sequence[str]) -> CompressedBlock:
        """A block holding ``names`` plus their dependency closure.

        On a v3 table only those columns' sub-segments are fetched (each
        cached independently); on v1/v2 tables — or when the closure covers
        the whole block anyway — this is :meth:`load`.
        """
        return self._relation.load_block_columns(self._index, names)

    @property
    def columns(self) -> dict:
        return self.load().columns

    @property
    def dependencies(self) -> dict:
        return self.load().dependencies

    @property
    def column_names(self) -> tuple[str, ...]:
        if self._entry.columns is not None:
            return tuple(self._entry.columns)
        return self.load().column_names

    @property
    def size_bytes(self) -> int:
        return self.load().size_bytes

    def column(self, name: str):
        if self._relation.column_granular:
            self._check_column(name)
            encoded, _ = self._relation._load_column(self._index, name)
            return encoded
        return self.load().column(name)

    def column_size(self, name: str) -> int:
        return self.column(name).size_bytes

    def encoding_of(self, name: str) -> str:
        return self.column(name).encoding_name

    def decode_column(self, name: str):
        return self.load_columns((name,)).decode_column(name)

    def gather_column(self, name: str, positions: np.ndarray):
        return self.load_columns((name,)).gather_column(name, positions)

    def __repr__(self) -> str:
        state = "cached" if self.is_loaded else "on disk"
        return f"LazyBlock(index={self._index}, n_rows={self.n_rows}, {state})"


class DiskRelation(Relation):
    """A relation served from a ``.corra`` file through a block cache.

    Parameters
    ----------
    path:
        The table file to open.
    cache:
        An existing :class:`BlockCache` to share between several tables (the
        cache keys are relation-unique); a private cache is created
        otherwise.
    cache_bytes:
        Budget for the private cache (ignored when ``cache`` is given).
    use_mmap:
        Serve segment reads from ``mmap`` when possible (default); plain
        seek-reads otherwise.
    prefetch_workers:
        Threads of the read-ahead pool serving
        :meth:`prefetch_block_columns` hints (created lazily on the first
        hint); ``0`` disables prefetching (unless an external pool is
        provided).
    prefetch_pool:
        An externally-owned ``ThreadPoolExecutor`` to run read-ahead on —
        a shared :class:`~repro.query.engine.Engine` passes its one
        prefetch pool here so every open table shares the same read-ahead
        threads.  :meth:`close` never shuts an external pool down.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        cache: BlockCache | None = None,
        cache_bytes: int | None = DEFAULT_CACHE_BYTES,
        use_mmap: bool = True,
        prefetch_workers: int = DEFAULT_PREFETCH_WORKERS,
        prefetch_pool: ThreadPoolExecutor | None = None,
    ):
        self._reader = TableReader(path, use_mmap=use_mmap)
        self._cache = cache if cache is not None else BlockCache(cache_bytes)
        self._prefetch_workers = max(0, int(prefetch_workers))
        self._external_prefetch_pool = prefetch_pool
        self._prefetch_pool: ThreadPoolExecutor | None = None
        self._prefetch_pending = 0
        self._prefetched: set = set()
        self._prefetch_inflight: set = set()
        self._prefetch_lock = threading.Lock()
        self._closing = False
        footer = self._reader.footer
        blocks = tuple(
            LazyBlock(self, index, entry) for index, entry in enumerate(footer.blocks)
        )
        super().__init__(footer.schema, blocks, footer.block_size)

    # -- out-of-core accessors -------------------------------------------------

    @property
    def path(self) -> str:
        return self._reader.path

    @property
    def footer(self) -> TableFooter:
        return self._reader.footer

    @property
    def format_version(self) -> int:
        return self._reader.version

    @property
    def column_granular(self) -> bool:
        """Whether the file indexes per-column sub-segments (format v3)."""
        return self._reader.column_granular

    @property
    def io(self) -> IOMetrics:
        """Bytes/segments actually fetched from disk (cache hits excluded)."""
        return self._reader.io

    @property
    def cache(self) -> BlockCache:
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cache_occupancy(self) -> TenantOccupancy:
        """This relation's resident share of the (possibly shared) cache."""
        return self._cache.occupancy().get(self.cache_token, TenantOccupancy(0, 0))

    @property
    def size_bytes(self) -> int:
        """Total on-disk size of the block segments (footer metadata only)."""
        return self._reader.footer.data_bytes

    def is_block_cached(self, index: int) -> bool:
        """Whether the whole block is resident — as one entry or, on a
        column-granular table, as the complete set of column entries."""
        if self._cache_key(index) in self._cache:
            return True
        entry = self._reader.block_entry(index)
        if not entry.columns:
            return False
        return all(self._cache_key(index, name) in self._cache for name in entry.columns)

    def is_column_cached(self, index: int, name: str) -> bool:
        return self._cache_key(index, name) in self._cache

    def _cache_key(self, index: int, column: str | None = None) -> tuple[int, int, str | None]:
        # cache_token is process-unique per relation, so one BlockCache can
        # be shared across every open table without key collisions; the
        # column component addresses v3 sub-segments (None = whole block).
        return (self.cache_token, index, column)

    # -- fetching --------------------------------------------------------------

    def _load_block(self, index: int) -> CompressedBlock:
        """Fetch one whole block through the cache (single-flight, budgeted).

        The cache charges the segment's on-disk length — a faithful proxy
        for the decoded block's resident footprint, since the wire format
        stores the packed buffers verbatim.
        """
        key = self._cache_key(index)
        self._note_demand(key)
        entry = self._reader.block_entry(index)
        return self._cache.get_or_load(
            key,
            lambda: (self._reader.read_block(index), entry.length),
        )

    def _load_column(self, index: int, name: str):
        """Fetch one (block, column) sub-segment through the cache.

        Returns ``(encoded_column, dependency)`` as cached together — the
        dependency record travels inside the sub-segment bytes.
        """
        key = self._cache_key(index, name)
        self._note_demand(key)
        segment = self._reader.column_segment(index, name)
        return self._cache.get_or_load(
            key,
            lambda: (self._reader.read_column(index, name), segment.length),
        )

    def column_closure(self, index: int, names: Sequence[str]) -> tuple[str, ...]:
        """``names`` plus every reference column they transitively need.

        Resolved entirely from footer metadata (v3), so the read set of a
        partial materialisation is known before any I/O is issued.
        """
        entry = self._reader.block_entry(index)
        order: list[str] = []

        def visit(name: str) -> None:
            if name in order:
                return
            segment = entry.column_segment(name)
            if segment is None:
                raise UnknownColumnError(name, self.schema.names)
            order.append(name)
            for ref in segment.references:
                visit(ref)

        for name in names:
            visit(name)
        return tuple(order)

    def load_block_columns(self, index: int, names: Sequence[str]) -> CompressedBlock:
        """A block materialising ``names`` (plus dependency closure) only.

        Falls back to the whole block when the file predates column
        segments (v1/v2), when the closure covers every column anyway, or
        when the full block is already resident.
        """
        for name in names:
            if name not in self.schema:
                raise UnknownColumnError(name, self.schema.names)
        cached = self._cache.get(self._cache_key(index))
        if cached is not None:
            return cached
        entry = self._reader.block_entry(index)
        if entry.columns is None:
            return self._load_block(index)
        closure = self.column_closure(index, names)
        if len(closure) >= len(entry.columns):
            return self._load_block(index)
        # Coalesced fast path: columns the cache has never seen (probed via
        # status(), which never counts as a request) are fetched together —
        # byte-adjacent sub-segments merge into one ranged read — and then
        # injected through get_or_load so single-flight semantics and cache
        # accounting are preserved.  Columns already cached or in flight
        # take the ordinary per-column path and piggyback on the loader.
        absent = [
            name
            for name in closure
            if self._cache.status(self._cache_key(index, name)) == "absent"
        ]
        preloaded = self._reader.read_columns(index, absent) if len(absent) > 1 else {}
        if preloaded:
            # Note the coalesced multi-column fetch on the caller's open span
            # (the per-column ``fetch`` spans below only see cache injections).
            _tracer().annotate(coalesced_columns=len(preloaded))
        columns = {}
        dependencies = {}
        for name in closure:
            if name in preloaded:
                key = self._cache_key(index, name)
                self._note_demand(key)
                segment = self._reader.column_segment(index, name)
                encoded, dependency = self._cache.get_or_load(
                    key,
                    lambda name=name, segment=segment: (preloaded[name], segment.length),
                )
            else:
                encoded, dependency = self._load_column(index, name)
            columns[name] = encoded
            if dependency is not None:
                dependencies[name] = dependency
        return CompressedBlock(
            schema=self.schema,
            n_rows=entry.n_rows,
            columns=columns,
            dependencies=dependencies,
            statistics=self._partial_statistics(entry, closure),
        )

    def _partial_statistics(self, entry, names: Sequence[str]) -> BlockStatistics | None:
        """The footer zone map restricted to ``names`` (parsed lazily)."""
        stats = entry.statistics
        if stats is None:
            return None
        subset = {}
        for name in names:
            column_stats = stats.column(name)
            if column_stats is not None:
                subset[name] = column_stats
        return BlockStatistics(subset) if subset else None

    # -- read-ahead ------------------------------------------------------------

    def prefetch_block_columns(self, index: int, names: Sequence[str] | None = None) -> bool:
        """Hint: fetch a block's required columns in the background.

        ``names=None`` (or a pre-v3 file) prefetches the whole block;
        otherwise the names' dependency closure of sub-segments.  Hints are
        dropped — never queued — when prefetching is disabled, everything is
        already resident, or the pool is saturated; returns whether a fetch
        was actually scheduled.  The single-flight cache makes an
        overlapping demand fetch piggyback on the prefetch (a cache hit,
        counted in ``IOMetrics.prefetch_hits``) instead of reading twice.
        """
        if self._closing or (
            self._prefetch_workers <= 0 and self._external_prefetch_pool is None
        ):
            return False
        if not 0 <= index < self.n_blocks:
            return False
        entry = self._reader.block_entry(index)
        if names is None or entry.columns is None:
            keys = [self._cache_key(index)]
        else:
            closure = self.column_closure(index, names)
            if len(closure) >= len(entry.columns):
                keys = [self._cache_key(index)]
            else:
                keys = [self._cache_key(index, name) for name in closure]
        candidates = [key for key in keys if self._cache.status(key) == "absent"]
        if not candidates:
            return False
        with self._prefetch_lock:
            if self._closing or self._prefetch_pending >= _PREFETCH_PENDING_LIMIT:
                return False
            # A submitted-but-not-started load is invisible to the cache's
            # status(); _prefetch_inflight dedupes hints in that window so
            # repeated hints for the same block neither inflate the issued
            # counter nor burn pending slots.
            targets = [key for key in candidates if key not in self._prefetch_inflight]
            if not targets:
                return False
            pool = self._external_prefetch_pool
            if pool is None:
                if self._prefetch_pool is None:
                    self._prefetch_pool = ThreadPoolExecutor(
                        max_workers=self._prefetch_workers,
                        thread_name_prefix="corra-prefetch",
                    )
                pool = self._prefetch_pool
            self._prefetch_pending += 1
            self._prefetch_inflight.update(targets)
            if len(self._prefetched) > 4_096:
                # Keys linger only when a hinted segment is never demanded;
                # drop the backlog rather than grow it unboundedly (the only
                # cost is an undercounted prefetch hit).
                self._prefetched.clear()
            self._prefetched.update(targets)
            try:
                # Submit while still holding the lock: close() nulls the
                # pool under the same lock, so the pool cannot disappear
                # (or be shut down) between the checks above and here.
                pool.submit(self._prefetch_task, index, targets)  # corra: ignore[lock-discipline]
            except RuntimeError:
                self._prefetch_pending -= 1
                self._prefetch_inflight.difference_update(targets)
                return False
        self.io.record_prefetch_issued(len(targets))
        return True

    def _prefetch_task(self, index: int, targets: list) -> None:
        try:
            for key in targets:
                column = key[2]
                if column is None:
                    self._cache.get_or_load(
                        key,
                        lambda: (
                            self._reader.read_block(index),
                            self._reader.block_entry(index).length,
                        ),
                    )
                else:
                    segment = self._reader.column_segment(index, column)
                    self._cache.get_or_load(
                        key,
                        lambda column=column, segment=segment: (
                            self._reader.read_column(index, column),
                            segment.length,
                        ),
                    )
        except Exception:
            # Background hints must never surface errors; the demand fetch
            # retries the load and reports the real failure.
            pass
        finally:
            with self._prefetch_lock:
                self._prefetch_pending -= 1
                self._prefetch_inflight.difference_update(targets)

    def _note_demand(self, key) -> None:
        """Record a demand fetch that a prefetch made (or is making) warm."""
        if not self._prefetched:
            return
        with self._prefetch_lock:
            if key not in self._prefetched:
                return
            self._prefetched.discard(key)
        if self._cache.status(key) != "absent":
            self.io.record_prefetch_hit()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the prefetch pool and file handle (cached blocks stay usable).

        An externally-owned prefetch pool is left running — its owner (a
        shared engine) closes it.
        """
        with self._prefetch_lock:
            self._closing = True
            pool = self._prefetch_pool
            self._prefetch_pool = None
        if pool is not None:
            pool.shutdown(wait=True)
        self._reader.close()

    def __enter__(self) -> "DiskRelation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_table(
    path: "str | os.PathLike[str]",
    cache: BlockCache | None = None,
    cache_bytes: int | None = DEFAULT_CACHE_BYTES,
    use_mmap: bool = True,
    prefetch_workers: int = DEFAULT_PREFETCH_WORKERS,
    prefetch_pool: ThreadPoolExecutor | None = None,
) -> DiskRelation:
    """Open a ``.corra`` file as a lazily-loaded, cache-governed relation."""
    return DiskRelation(
        path,
        cache=cache,
        cache_bytes=cache_bytes,
        use_mmap=use_mmap,
        prefetch_workers=prefetch_workers,
        prefetch_pool=prefetch_pool,
    )
