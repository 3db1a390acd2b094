"""``corra serve`` — a concurrent query service over the Catalog.

This package turns the library into a long-running service: an asyncio
HTTP front end (stdlib only — no third-party web framework) fronting a
:class:`~repro.storage.catalog.Catalog`, with every query executed through
one shared :class:`~repro.query.engine.Engine` so concurrent requests
share the warm state the library already maintains — the block cache, the
planner memos, the worker and prefetch pools, the kernel registry.

Request lifecycle::

        POST /query {"table": ..., "where": ..., "aggregates": ...}
          │
          ▼
        protocol.parse_request ──▶ 400 on malformed JSON/predicates
          │
          ▼
        ADMISSION  (service.AdmissionGate)
          │   bounded concurrency + bounded wait queue
          │   ├─ queue full ────────────────▶ 429 rejected
          │   └─ queue wait exceeds timeout ─▶ 504 timeout
          ▼
        COST GATE  (planner classification, metadata only)
          │   estimated rows/bytes touched vs ServiceConfig limits
          │   └─ over budget ───────────────▶ 413 rejected
          ▼
        RESULT CACHE  keyed (table, plan fingerprint)
          │   validated against Relation.cache_token
          │   ├─ hit ──▶ response (counted, no execution)
          │   └─ miss
          ▼
        ENGINE  (shared repro.query.Engine)
          │   LazyQuery over the memoized compiler; per-block tasks fan
          │   out on the shared worker pool; wall-clock timeout ──▶ 504
          ▼
        METRICS  (metrics.ServerMetrics)
              per-query latency into the p50/p99 window, ScanMetrics
              merged into the running totals, result cached, response

``GET /metrics`` exposes the engine's existing :class:`~repro.query.scan.
ScanMetrics` / :class:`~repro.storage.cache.IOMetrics` counters plus the
server-level view: latency percentiles, queue depth, in-flight count,
admission rejections, result-cache hit rate and per-table cache occupancy.

Entry points: ``python -m repro.cli serve <catalog-dir>`` on the command
line, :class:`~repro.server.service.QueryService` +
:class:`~repro.server.http.CorraHttpServer` (or the thread-hosting
:class:`~repro.server.http.BackgroundServer`) from Python — see
``examples/serve_and_query.py``.
"""

from .http import BackgroundServer, CorraHttpServer
from .metrics import LatencyWindow, ServerMetrics
from .protocol import QueryRequest, encode_result, parse_predicate, parse_request
from .service import (
    CostLimitError,
    QueryService,
    QueryTimeoutError,
    QueueFullError,
    ServerError,
    ServiceConfig,
    UnknownTableError,
)

__all__ = [
    "BackgroundServer",
    "CorraHttpServer",
    "CostLimitError",
    "LatencyWindow",
    "QueryRequest",
    "QueryService",
    "QueryTimeoutError",
    "QueueFullError",
    "ServerError",
    "ServerMetrics",
    "ServiceConfig",
    "UnknownTableError",
    "encode_result",
    "parse_predicate",
    "parse_request",
]
