"""The query engine: one object owning all cross-query state.

Every query runs through an :class:`Engine`, which owns **one** of each
shared resource —

* one worker :class:`~concurrent.futures.ThreadPoolExecutor` running every
  query's per-block tasks (scans, aggregates, top-k, gathers);
* one read-ahead pool shared by every open table;
* one :class:`~repro.storage.cache.BlockCache` bounding the combined
  resident bytes of every table (tenant round-robin eviction arbitrates
  the budget between them);
* one :class:`~repro.query.kernels.KernelRegistry`;
* one memoized :class:`~repro.query.plan.QueryCompiler` per relation —
  and through it one :class:`~repro.query.scan.ScanPlanner` memo table —
  so N concurrent queries share warm zone-map decisions

— configured once through an immutable :class:`EngineConfig`.  Queries
start from :meth:`Engine.query` (a :class:`~repro.query.plan.LazyQuery`
bound to the engine); tables open by name via :meth:`Engine.table` when the
engine fronts a :class:`~repro.storage.catalog.Catalog`.
``relation.query()`` is the same chain on a fresh default engine, which
starts no thread and so has nothing to close.  The engine is thread-safe:
the query service calls it from many request threads at once, and results
are bit-identical to serial, per-call execution.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from ..errors import ValidationError
from ..storage.cache import DEFAULT_CACHE_BYTES, BlockCache, CacheStats
from ..storage.catalog import Catalog
from ..storage.relation import Relation
from .kernels import DEFAULT_KERNELS, KernelRegistry
from .plan import LazyQuery, QueryCompiler
from .tracing import StageHistograms, Tracer

__all__ = ["Engine", "EngineConfig"]

#: Read-ahead threads of an engine's shared prefetch pool.
DEFAULT_PREFETCH_WORKERS = 2


def _is_count(value: object) -> bool:
    # ``bool`` is an ``int`` subclass, but ``True`` is not a count.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of query execution, as one immutable value.

    Handed to :class:`Engine`, the one place a query's execution is
    configured.  Invalid values are rejected here, at construction.
    """

    #: Threads of the engine's one worker pool (``None``/``0`` = all cores;
    #: ``1`` runs every query inline, without a pool).
    workers: int | None = 1
    #: Byte budget of the shared block cache (``None`` = unbounded).
    cache_bytes: int | None = DEFAULT_CACHE_BYTES
    #: Threads of the shared read-ahead pool (``0`` disables prefetch).
    prefetch_workers: int = DEFAULT_PREFETCH_WORKERS

    def __post_init__(self) -> None:
        if self.workers is not None and not _is_count(self.workers):
            raise ValidationError(
                f"workers must be None or an int >= 0 (0 = all cores), got {self.workers!r}"
            )
        if self.cache_bytes is not None and not _is_count(self.cache_bytes):
            raise ValidationError(
                f"cache_bytes must be None or an int >= 0, got {self.cache_bytes!r}"
            )
        if not _is_count(self.prefetch_workers):
            raise ValidationError(
                f"prefetch_workers must be an int >= 0, got {self.prefetch_workers!r}"
            )

    def resolved_workers(self) -> int:
        from .parallel import resolve_workers

        return resolve_workers(self.workers)

    def with_overrides(self, **overrides: Any) -> "EngineConfig":
        """A copy with the given fields replaced (unknown names rejected)."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValidationError(f"unknown EngineConfig field(s): {sorted(unknown)}")
        return replace(self, **overrides)


class Engine:
    """Shared, thread-safe query-execution state over one or many relations.

    Parameters
    ----------
    config:
        The :class:`EngineConfig` every query through this engine runs
        under (defaults apply when omitted).
    catalog:
        A :class:`~repro.storage.catalog.Catalog` (or its root directory)
        to serve :meth:`table` lookups from.  The catalog's block cache is
        adopted as the engine's; a directory is wrapped in a fresh catalog
        budgeted at ``config.cache_bytes``.
    cache:
        An explicit shared :class:`BlockCache` (wins over the catalog's).
    kernels:
        The compressed-domain kernel registry (default registry otherwise).
        An empty ``KernelRegistry()`` declines every column, so every
        predicate, aggregate, group-by and top-k takes the decode path.
    """

    #: Memoized compilers kept per relation; bounded so a service scanning
    #: many short-lived relations cannot grow planner memos without limit.
    MAX_CACHED_COMPILERS = 64

    def __init__(
        self,
        config: EngineConfig | None = None,
        catalog: "Catalog | str | os.PathLike[str] | None" = None,
        cache: BlockCache | None = None,
        kernels: KernelRegistry | None = None,
    ) -> None:
        self._config = config if config is not None else EngineConfig()
        self._kernels = kernels if kernels is not None else DEFAULT_KERNELS
        if catalog is not None and not isinstance(catalog, Catalog):
            catalog = Catalog(
                Path(catalog), cache=cache, cache_bytes=self._config.cache_bytes
            )
        self._catalog: Catalog | None = catalog
        if cache is not None:
            self._cache = cache
        elif catalog is not None:
            self._cache = catalog.cache
        else:
            self._cache = BlockCache(self._config.cache_bytes)
        self._lock = threading.RLock()
        self._pool: ThreadPoolExecutor | None = None
        self._prefetch_pool: ThreadPoolExecutor | None = None
        self._compilers: "OrderedDict[int, QueryCompiler]" = OrderedDict()
        self._tables: dict[str, Relation] = {}
        self._stage_latency = StageHistograms()
        self._closed = False

    # -- shared resources ------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def cache(self) -> BlockCache:
        """The block cache every table opened by this engine shares."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def kernels(self) -> KernelRegistry:
        return self._kernels

    @property
    def catalog(self) -> Catalog | None:
        return self._catalog

    def _worker_pool(self) -> ThreadPoolExecutor | None:
        """The shared per-block task pool (``None`` when serial).

        Created lazily under the engine lock and handed to every compiler,
        so concurrent queries across relations share one set of worker
        threads.
        """
        if self._config.resolved_workers() <= 1:
            return None
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._config.resolved_workers(),
                    thread_name_prefix="corra-engine",
                )
            return self._pool

    def _shared_prefetch_pool(self) -> ThreadPoolExecutor | None:
        if self._config.prefetch_workers <= 0:
            return None
        with self._lock:
            self._check_open()
            if self._prefetch_pool is None:
                self._prefetch_pool = ThreadPoolExecutor(
                    max_workers=self._config.prefetch_workers,
                    thread_name_prefix="corra-prefetch",
                )
            return self._prefetch_pool

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("engine is closed")

    # -- compilers -------------------------------------------------------------

    def compiler_for(self, relation: Relation) -> QueryCompiler:
        """The memoized compiler (planner memo + shared pool) for ``relation``.

        Keyed by the relation's ``cache_token``, so repeated queries over
        the same relation — from any thread — share one planner memo table.
        A bounded LRU of compilers caps the memo footprint; evicted
        compilers cost only re-planning, never correctness.
        """
        with self._lock:
            self._check_open()
            token = relation.cache_token
            compiler = self._compilers.get(token)
            if compiler is not None:
                self._compilers.move_to_end(token)
                return compiler
            compiler = QueryCompiler(
                relation, self._config, kernels=self._kernels, pool=self._worker_pool()
            )
            self._compilers[token] = compiler
            while len(self._compilers) > self.MAX_CACHED_COMPILERS:
                self._compilers.popitem(last=False)
            return compiler

    # -- query entry points ----------------------------------------------------

    def query(self, relation: Relation) -> LazyQuery:
        """Start a lazy query chain bound to this engine's shared state."""
        self._check_open()
        return LazyQuery(relation, engine=self)

    # -- tracing ---------------------------------------------------------------

    @property
    def stage_latency(self) -> StageHistograms:
        """Per-stage latency histograms accumulated across traced queries.

        Every tracer created via :meth:`tracer` feeds its spans' durations
        in here, so the histograms aggregate the engine's whole traced
        lifetime — this is what ``/metrics?format=prometheus`` exposes.
        """
        return self._stage_latency

    def tracer(self) -> Tracer:
        """A fresh per-query tracer wired to this engine's stage histograms.

        Pass it to :meth:`~repro.query.plan.LazyQuery.execute` (or let the
        query service create one per request): the query's span tree is
        collected on the tracer while each span's duration also lands in
        the shared :attr:`stage_latency` buckets.
        """
        return Tracer(histograms=self._stage_latency)

    # -- catalog tables --------------------------------------------------------

    def table(self, name: str) -> Relation:
        """Open (once) and return the catalogued table ``name``.

        The relation is opened with the engine's shared cache and prefetch
        pool and memoized, so every query against the same name shares one
        footer parse, one set of lazy blocks and one cache tenant.
        """
        if self._catalog is None:
            raise ValidationError("engine has no catalog attached; pass catalog= to Engine")
        with self._lock:
            self._check_open()
            relation = self._tables.get(name)
            if relation is None:
                relation = self._catalog.open(
                    name,
                    prefetch_workers=self._config.prefetch_workers,
                    prefetch_pool=self._shared_prefetch_pool(),
                )
                self._tables[name] = relation
            return relation

    def tables(self) -> dict[str, Relation]:
        """The currently open tables, by name (a snapshot copy)."""
        with self._lock:
            return dict(self._tables)

    def refresh_table(self, name: str) -> Relation:
        """Re-open a table (after an overwrite), dropping its stale state."""
        with self._lock:
            self._check_open()
            stale = self._tables.pop(name, None)
            if stale is not None:
                self._compilers.pop(stale.cache_token, None)
                close = getattr(stale, "close", None)
                if close is not None:
                    close()
            return self.table(name)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release every owned resource (idempotent).

        Open tables, the shared worker pool and the prefetch pool are shut
        down; memoized compilers and the block cache's entries are dropped
        so a closed engine holds no memory.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            tables = list(self._tables.values())
            self._tables.clear()
            self._compilers.clear()
            pool = self._pool
            self._pool = None
            prefetch_pool = self._prefetch_pool
            self._prefetch_pool = None
        for relation in tables:
            close = getattr(relation, "close", None)
            if close is not None:
                close()
        if pool is not None:
            pool.shutdown(wait=True)
        if prefetch_pool is not None:
            prefetch_pool.shutdown(wait=True)
        self._cache.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        catalog = "none" if self._catalog is None else str(self._catalog.root)
        return (
            f"Engine(workers={self._config.resolved_workers()}, catalog={catalog}, "
            f"tables={len(self._tables)}, compilers={len(self._compilers)})"
        )

