"""The query service: admission control, cost gating, result caching.

:class:`QueryService` is the transport-independent core of ``corra
serve`` — the HTTP layer (:mod:`repro.server.http`) only decodes bytes and
maps :class:`ServerError` subclasses to status codes; everything with
semantics lives here:

* **admission** — at most ``max_concurrency`` queries execute at once;
  up to ``queue_depth`` more wait (bounded, so overload answers 429
  immediately instead of building an unbounded backlog), and a query that
  cannot start before its deadline fails fast with 504 instead of running
  anyway;
* **cost gating** — before any data is touched, the shared planner
  classifies the query's blocks against their zone maps; the rows/bytes
  the scan-classified blocks *could* touch are compared to the configured
  per-query limits (413 when over — metadata-only, so rejecting an
  expensive query costs microseconds);
* **result caching** — results are memoized by ``(table, plan
  fingerprint)`` and validated against the relation's ``cache_token``, so
  a reopened/overwritten table can never serve stale rows.

Execution itself is one shared :class:`~repro.query.engine.Engine`: every
request thread lowers its request onto a
:class:`~repro.query.plan.LazyQuery` bound to the engine, so concurrent
queries share the planner memos, the worker pool, the block cache and the
prefetch pool.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..errors import CorraError, ValidationError
from ..query.engine import Engine, EngineConfig, _is_count
from ..query.scan import BlockDecision
from ..query.tracing import TRACE_DISABLED, NullTracer, QueryTrace, Tracer, activate
from ..storage.catalog import Catalog
from .metrics import ServerMetrics
from .protocol import build_query, encode_result, parse_request

__all__ = [
    "CostLimitError",
    "QueryService",
    "QueryTimeoutError",
    "QueueFullError",
    "ServerError",
    "ServiceConfig",
    "UnknownTableError",
]


class ServerError(CorraError):
    """Base of the service-level failures; ``status`` is the HTTP mapping."""

    status = 500


class QueueFullError(ServerError):
    """Admission queue at capacity — the client should back off (429)."""

    status = 429


class CostLimitError(ServerError):
    """The plan would touch more rows/bytes than the per-query budget (413)."""

    status = 413


class QueryTimeoutError(ServerError):
    """The query missed its wall-clock deadline, queued or running (504)."""

    status = 504


class UnknownTableError(ServerError):
    """The request names a table the catalog does not have (404)."""

    status = 404


@dataclass(frozen=True)
class ServiceConfig:
    """Operational limits of one service instance (immutable).

    Invalid values are rejected here, at construction, so ``corra serve``
    fails before it binds a socket instead of serving with a silently
    clamped (or every-query-rejecting) limit.
    """

    #: Queries executing at once; further admits wait in the bounded queue.
    max_concurrency: int = 4
    #: Admitted-but-waiting queries beyond that before 429s start.
    queue_depth: int = 16
    #: Wall-clock budget per query (queue wait + execution), seconds.
    timeout_seconds: float = 30.0
    #: Max rows the scan-classified blocks may hold (``None`` = unlimited).
    max_rows_scanned: int | None = None
    #: Max on-disk bytes those blocks may span (``None`` = unlimited).
    max_bytes_scanned: int | None = None
    #: Result-cache capacity in entries (``0`` disables the cache).
    result_cache_entries: int = 256
    #: Trace every request (feeding the engine's per-stage latency
    #: histograms for ``/metrics``).  When ``False`` only requests that
    #: opt in with ``"trace": true`` are traced.
    trace_requests: bool = True

    def __post_init__(self) -> None:
        if not _is_count(self.max_concurrency) or self.max_concurrency < 1:
            raise ValidationError(
                f"max_concurrency must be an int >= 1, got {self.max_concurrency!r}"
            )
        if not _is_count(self.queue_depth):
            raise ValidationError(f"queue_depth must be an int >= 0, got {self.queue_depth!r}")
        timeout = self.timeout_seconds
        if not isinstance(timeout, (int, float)) or not 0 < timeout < math.inf:
            raise ValidationError(f"timeout_seconds must be a finite number > 0, got {timeout!r}")
        for name in ("max_rows_scanned", "max_bytes_scanned"):
            limit = getattr(self, name)
            if limit is not None and not _is_count(limit):
                raise ValidationError(f"{name} must be None or an int >= 0, got {limit!r}")
        if not _is_count(self.result_cache_entries):
            raise ValidationError(
                "result_cache_entries must be an int >= 0 (0 disables the cache), "
                f"got {self.result_cache_entries!r}"
            )


class _AdmissionGate:
    """Bounded concurrency + bounded wait queue with deadlines.

    ``acquire`` admits immediately when an execution slot is free, waits
    (counted against ``queue_depth``) when not, raises
    :class:`QueueFullError` when the wait queue is full and
    :class:`QueryTimeoutError` when the deadline passes while queued.
    """

    def __init__(self, max_concurrency: int, queue_depth: int):
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._max_active = max_concurrency
        self._max_waiting = queue_depth
        self._active = 0
        self._waiting = 0

    def depths(self) -> tuple[int, int]:
        """Current ``(active, waiting)`` counts (for ``/metrics``)."""
        with self._lock:
            return self._active, self._waiting

    def acquire(self, deadline: float) -> None:
        with self._slot_freed:
            if self._active < self._max_active:
                self._active += 1
                return
            if self._waiting >= self._max_waiting:
                raise QueueFullError(
                    f"admission queue full ({self._max_active} running, "
                    f"{self._waiting} waiting)"
                )
            self._waiting += 1
            try:
                while self._active >= self._max_active:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._slot_freed.wait(remaining):
                        raise QueryTimeoutError("timed out waiting for an execution slot")
                self._active += 1
            finally:
                self._waiting -= 1

    def release(self) -> None:
        with self._slot_freed:
            self._active -= 1
            self._slot_freed.notify()


class _ResultCache:
    """LRU of encoded results keyed ``(table, plan fingerprint)``.

    Each entry remembers the relation ``cache_token`` it was computed
    against; a hit with a different token (the table was refreshed) is
    treated as a miss and the stale entry dropped.
    """

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: "OrderedDict[tuple[str, str], tuple[int, dict]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[str, str], cache_token: int) -> dict | None:
        if self._capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == cache_token:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            return None

    def put(self, key: tuple[str, str], cache_token: int, payload: dict) -> None:
        if self._capacity == 0:
            return
        with self._lock:
            self._entries[key] = (cache_token, payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def snapshot(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }


class QueryService:
    """Execute JSON query payloads against one catalog-backed engine.

    Thread-safe: the HTTP layer calls :meth:`execute` from many request
    threads concurrently.  Use as a context manager (or call
    :meth:`close`) so the engine's pools and tables are released.
    """

    def __init__(
        self,
        catalog: "Catalog | str | Path",
        engine_config: EngineConfig | None = None,
        config: ServiceConfig | None = None,
    ):
        self._config = config if config is not None else ServiceConfig()
        self._engine = Engine(config=engine_config, catalog=catalog)
        self._gate = _AdmissionGate(self._config.max_concurrency, self._config.queue_depth)
        self._result_cache = _ResultCache(self._config.result_cache_entries)
        self.metrics = ServerMetrics()
        self._closed = False

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def config(self) -> ServiceConfig:
        return self._config

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._engine.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling ------------------------------------------------------

    def _open_table(self, engine: Engine, name: str):
        try:
            return engine.table(name)
        except ValidationError as exc:
            raise UnknownTableError(str(exc)) from exc

    def _check_cost(self, compiler, compiled) -> None:
        """Reject plans whose scan-classified blocks exceed the budget.

        Pure metadata: the shared planner's zone-map decisions plus the
        footer's per-block row counts and segment sizes.  Fully-covered
        and pruned blocks are free — statistics answer them — so only the
        blocks that would actually decode count against the limits.
        """
        cfg = self._config
        if cfg.max_rows_scanned is None and cfg.max_bytes_scanned is None:
            return
        plan = compiler.planner.plan(compiled.predicate)
        rows = 0
        size = 0
        relation = compiler.relation
        for index, decision in enumerate(plan.decisions):
            if decision != BlockDecision.SCAN:
                continue
            block = relation.block(index)
            rows += block.n_rows
            if cfg.max_bytes_scanned is not None:
                size += (
                    block.segment_bytes
                    if hasattr(block, "segment_bytes")
                    else block.size_bytes
                )
        if cfg.max_rows_scanned is not None and rows > cfg.max_rows_scanned:
            raise CostLimitError(
                f"plan would scan {rows:,} rows, over the {cfg.max_rows_scanned:,} limit"
            )
        if cfg.max_bytes_scanned is not None and size > cfg.max_bytes_scanned:
            raise CostLimitError(
                f"plan would read {size:,} bytes, over the {cfg.max_bytes_scanned:,} limit"
            )

    def _handle(
        self, tracer: "Tracer | NullTracer", payload: object, deadline: float
    ) -> tuple[dict, object, bool]:
        """Parse, admit and run one request; ``(body, scan metrics, cached)``.

        Runs inside the caller's ``request`` span, so every stage span it
        opens (``parse`` / ``admission`` / ``serialize``, plus everything
        the compiler opens during execution) lands on the same trace.
        """
        with tracer.span("parse"):
            request = parse_request(payload)

        engine = self._engine
        relation = self._open_table(engine, request.table)
        compiler = engine.compiler_for(relation)
        compiled = compiler.compile(build_query(engine.query(relation), request).logical_plan())
        self._check_cost(compiler, compiled)

        cache_key = (request.table, compiled.fingerprint())
        cached = self._result_cache.get(cache_key, relation.cache_token)
        if cached is not None:
            return cached, None, True

        with tracer.span("admission"):
            self._gate.acquire(deadline)
        try:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise QueryTimeoutError("deadline passed before execution started")
            result = compiler.execute(compiled, tracer=tracer)
        finally:
            self._gate.release()
        if time.monotonic() > deadline:
            raise QueryTimeoutError(
                f"query exceeded its {self._config.timeout_seconds:.1f}s budget"
            )
        with tracer.span("serialize"):
            body = encode_result(result)
            self._result_cache.put(cache_key, relation.cache_token, body)
        return body, result.metrics, False

    def execute(self, payload: object) -> dict:
        """The full request lifecycle for one decoded JSON body.

        Raises :class:`ServerError` subclasses for service-level failures
        and :class:`~repro.errors.ValidationError` (→ 400) for malformed
        requests; anything it returns is a JSON-ready response dict.

        When the service traces requests (``ServiceConfig.trace_requests``,
        on by default) each request runs under its own
        :class:`~repro.query.tracing.Tracer` wired to the engine's stage
        histograms; a request carrying ``"trace": true`` additionally gets
        the span tree attached under ``"trace"`` in the response body
        (attached to a copy — the result cache never stores a trace).
        """
        self.metrics.count_request()
        started = time.monotonic()
        deadline = started + self._config.timeout_seconds
        # Probe the raw payload before strict parsing so the tracer already
        # exists for the ``parse`` span itself; parse_request still
        # validates the flag.
        want_trace = isinstance(payload, dict) and payload.get("trace") is True
        tracer: "Tracer | NullTracer" = (
            self._engine.tracer()
            if (self._config.trace_requests or want_trace)
            else TRACE_DISABLED
        )
        try:
            with activate(tracer):
                with tracer.span("request"):
                    body, scan, cached = self._handle(tracer, payload, deadline)
            if want_trace and tracer.enabled:
                # Copy before attaching: ``body`` may be (or just became)
                # a result-cache entry, which must stay trace-free.
                table = payload.get("table") if isinstance(payload, dict) else None
                body = dict(body)
                body["trace"] = QueryTrace.from_tracer(
                    tracer, query=str(table) if isinstance(table, str) else ""
                ).to_dict()
            self.metrics.record_success(time.monotonic() - started, scan, cached=cached)
            return body
        except QueueFullError:
            self.metrics.record_rejection("queue_full")
            raise
        except CostLimitError:
            self.metrics.record_rejection("cost")
            raise
        except QueryTimeoutError:
            self.metrics.record_rejection("timeout")
            raise
        except Exception:
            self.metrics.record_rejection("error")
            raise

    # -- introspection ---------------------------------------------------------

    def tables(self) -> tuple[str, ...]:
        catalog = self._engine.catalog
        return catalog.tables() if catalog is not None else ()

    def snapshot_metrics(self) -> dict:
        """Everything ``GET /metrics`` serves, as one JSON-ready dict."""
        active, waiting = self._gate.depths()
        engine = self._engine
        cache_stats = engine.cache_stats
        tables = {}
        for name, relation in engine.tables().items():
            entry: dict = {"n_rows": relation.n_rows, "n_blocks": relation.n_blocks}
            io = getattr(relation, "io", None)
            if io is not None:
                # IOMetrics carries a lock field; build the dict by hand.
                entry["io"] = {
                    "bytes_read": io.bytes_read,
                    "blocks_read": io.blocks_read,
                    "footer_bytes_read": io.footer_bytes_read,
                    "columns_read": io.columns_read,
                    "column_bytes_read": io.column_bytes_read,
                    "columns_skipped": io.columns_skipped,
                    "column_block_bytes": io.column_block_bytes,
                    "reads_coalesced": io.reads_coalesced,
                    "prefetch_issued": io.prefetch_issued,
                    "prefetch_hits": io.prefetch_hits,
                }
            occupancy = getattr(relation, "cache_occupancy", None)
            if occupancy is not None:
                entry["cache"] = {"entries": occupancy.entries, "bytes": occupancy.bytes}
            tables[name] = entry
        return self.metrics.snapshot() | {
            "queue": {
                "active": active,
                "waiting": waiting,
                "max_concurrency": self._config.max_concurrency,
                "queue_depth": self._config.queue_depth,
            },
            "result_cache": self._result_cache.snapshot(),
            "stages": engine.stage_latency.snapshot(),
            "block_cache": {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "evictions": cache_stats.evictions,
                "current_bytes": cache_stats.current_bytes,
                "current_entries": cache_stats.current_entries,
            },
            "tables": tables,
        }
