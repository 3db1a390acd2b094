"""Server-level telemetry: latency percentiles and request counters.

The engine already measures the *inside* of a query
(:class:`~repro.query.scan.ScanMetrics`,
:class:`~repro.storage.cache.IOMetrics`, cache stats); this module adds the
*outside* view a service operator needs — how many requests arrived, how
many were rejected and why, and how long the accepted ones took end to end
(p50/p99 over a sliding window).  Everything here is thread-safe: request
threads record concurrently and ``GET /metrics`` snapshots under the same
locks.

:func:`prometheus_exposition` renders the same snapshot — plus the
engine's per-stage latency histograms from the tracing subsystem — in the
Prometheus text exposition format, so ``GET /metrics?format=prometheus``
is directly scrapeable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ..query.scan import ScanMetrics

__all__ = [
    "LatencyWindow",
    "PROMETHEUS_CONTENT_TYPE",
    "ServerMetrics",
    "prometheus_exposition",
]

#: Samples kept for percentile estimates; enough for stable p99 at the
#: concurrency levels one process serves, small enough to snapshot cheaply.
DEFAULT_WINDOW = 4096


class LatencyWindow:
    """A sliding window of recent request latencies (seconds).

    Percentiles are computed over the last ``capacity`` samples — a ring
    buffer, so long-running servers track *current* latency instead of a
    lifetime average that buries regressions.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        self._samples: deque[float] = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._total += float(seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the window, 0.0 when empty."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(np.asarray(self._samples), q))

    def snapshot(self) -> dict:
        """Percentiles + counts as a JSON-ready dict (one lock acquisition)."""
        with self._lock:
            if self._samples:
                arr = np.asarray(self._samples)
                p50, p95, p99 = (float(v) for v in np.percentile(arr, (50, 95, 99)))
                window_mean = float(arr.mean())
            else:
                p50 = p95 = p99 = window_mean = 0.0
            return {
                "count": self._count,
                "window": len(self._samples),
                "mean_seconds": window_mean,
                "p50_seconds": p50,
                "p95_seconds": p95,
                "p99_seconds": p99,
            }


@dataclass
class ServerMetrics:
    """Counters for one service instance, merged under one lock.

    ``scan_totals`` accumulates every executed query's
    :class:`~repro.query.scan.ScanMetrics`, so ``/metrics`` exposes the
    fleet-wide prune/kernel/code-space picture the per-query metrics
    already tell for a single call.
    """

    queries_total: int = 0
    queries_ok: int = 0
    queries_cached: int = 0
    queries_failed: int = 0
    rejected_queue_full: int = 0
    rejected_cost: int = 0
    timeouts: int = 0
    latency: LatencyWindow = field(default_factory=LatencyWindow)
    scan_totals: ScanMetrics = field(default_factory=ScanMetrics)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_success(self, seconds: float, scan: ScanMetrics | None, cached: bool) -> None:
        with self._lock:
            self.queries_ok += 1
            if cached:
                self.queries_cached += 1
            if scan is not None:
                # merge() sums every counter, so per-query metrics fold into
                # additive lifetime totals.
                self.scan_totals.merge(scan)
            # Record the sample while still holding the counter lock so
            # ``queries_ok == latency.count`` is an exact invariant any
            # snapshot can rely on.  Lock order is strictly
            # ``ServerMetrics._lock -> LatencyWindow._lock``; the window
            # never calls back into this class, so there is no cycle.
            self.latency.record(seconds)

    def record_rejection(self, kind: str) -> None:
        """``kind`` is one of ``queue_full`` / ``cost`` / ``timeout`` / ``error``."""
        with self._lock:
            if kind == "queue_full":
                self.rejected_queue_full += 1
            elif kind == "cost":
                self.rejected_cost += 1
            elif kind == "timeout":
                self.timeouts += 1
            else:
                self.queries_failed += 1

    def count_request(self) -> None:
        with self._lock:
            self.queries_total += 1

    def snapshot(self) -> dict:
        # The latency snapshot is taken while holding the counter lock, so
        # request counters and percentile counts describe the same instant
        # (``record_success`` updates both under this lock, see above).
        with self._lock:
            scan = self.scan_totals
            return {
                "queries_total": self.queries_total,
                "queries_ok": self.queries_ok,
                "queries_cached": self.queries_cached,
                "queries_failed": self.queries_failed,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_cost": self.rejected_cost,
                "timeouts": self.timeouts,
                "scan": {
                    "n_blocks": scan.n_blocks,
                    "rows_total": scan.rows_total,
                    "blocks_pruned": scan.blocks_pruned,
                    "blocks_full": scan.blocks_full,
                    "blocks_scanned": scan.blocks_scanned,
                    "rows_matched": scan.rows_matched,
                    "rows_decoded": scan.rows_decoded,
                    "rows_gathered": scan.rows_gathered,
                    "rows_dict_evaluated": scan.rows_dict_evaluated,
                    "rows_rle_evaluated": scan.rows_rle_evaluated,
                    "runs_evaluated": scan.runs_evaluated,
                    "rows_for_evaluated": scan.rows_for_evaluated,
                    "rows_kernel_aggregated": scan.rows_kernel_aggregated,
                    "kernel_declines": scan.kernel_declines,
                    "string_heap_decodes": scan.string_heap_decodes,
                },
                "latency": self.latency.snapshot(),
            }


#: Content type the Prometheus text exposition format is served under.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _sample_value(value: "int | float") -> str:
    """One exposition sample value (ints stay exact, floats use repr)."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _flatten(prefix: str, node: dict, labels: str, out: list) -> None:
    """Depth-first walk of a snapshot dict into ``(name, labels, value)``."""
    for key, value in node.items():
        if isinstance(value, dict):
            _flatten(f"{prefix}_{key}", value, labels, out)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((f"{prefix}_{key}", labels, value))


def prometheus_exposition(snapshot: dict, stages: "dict | None" = None) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    ``snapshot`` is :meth:`QueryService.snapshot_metrics
    <repro.server.service.QueryService.snapshot_metrics>` output (or the
    bare :meth:`ServerMetrics.snapshot`): every numeric leaf becomes one
    ``corra_*`` sample named by its path, and the per-table sub-dicts
    become ``corra_table_*`` samples with a ``table`` label.  ``stages`` —
    :meth:`~repro.query.tracing.StageHistograms.snapshot` output — is
    rendered as one ``corra_stage_duration_seconds`` histogram family with
    a ``stage`` label per query stage, on the fixed log-scale buckets of
    :data:`~repro.query.tracing.HISTOGRAM_BUCKETS` (identical across
    processes, so fleet-level aggregation never merges mismatched edges).
    """
    # HELP text per counter, keyed by the snapshot field name.  Every
    # ScanMetrics / IOMetrics / ServerMetrics counter is listed, which is
    # also what lets the metrics-completeness analyzer rule hold this
    # surface to the same bar as the JSON ones.
    counter_help = {
        # ServerMetrics
        "queries_total": "Requests received, accepted or not.",
        "queries_ok": "Requests answered successfully (cached included).",
        "queries_cached": "Requests answered from the result cache.",
        "queries_failed": "Requests failed for non-admission reasons.",
        "rejected_queue_full": "Requests rejected because the wait queue was full.",
        "rejected_cost": "Requests rejected by the pre-execution cost gate.",
        "timeouts": "Requests that missed their wall-clock deadline.",
        # ScanMetrics (under corra_scan_*)
        "n_blocks": "Blocks considered by the planner.",
        "rows_total": "Rows held by the considered blocks.",
        "blocks_pruned": "Blocks skipped entirely via zone maps.",
        "blocks_full": "Blocks fully covered by the predicate via zone maps.",
        "blocks_scanned": "Blocks that had to evaluate the predicate.",
        "rows_matched": "Rows selected by predicates.",
        "rows_decoded": "Rows decompressed for predicate evaluation.",
        "rows_gathered": "Row values materialised for output/aggregation.",
        "rows_dict_evaluated": "Rows answered in dictionary code space.",
        "rows_rle_evaluated": "Rows answered in RLE run space.",
        "runs_evaluated": "RLE runs evaluated in run space.",
        "rows_for_evaluated": "Rows answered in FOR/delta word space.",
        "rows_kernel_aggregated": "Rows aggregated inside compressed-domain kernels.",
        "kernel_declines": "Predicate subtrees a compressed-domain kernel declined.",
        "string_heap_decodes": "String values decoded from the shared heap.",
        # IOMetrics (under corra_table_io_*)
        "bytes_read": "Bytes read from table files.",
        "blocks_read": "Block reads issued.",
        "footer_bytes_read": "Bytes read while opening footers.",
        "columns_read": "Column sub-segments read.",
        "column_bytes_read": "Bytes read via column sub-segment reads.",
        "columns_skipped": "Column sub-segments skipped by projection.",
        "column_block_bytes": "Bytes a whole-block read would have cost.",
        "reads_coalesced": "Adjacent column reads merged into one request.",
        "prefetch_issued": "Blocks submitted to the prefetch pool.",
        "prefetch_hits": "Block loads answered by a completed prefetch.",
    }
    # Longest suffix first, so e.g. ``column_bytes_read`` wins over
    # ``bytes_read`` when matching a sample name.
    help_keys = sorted(counter_help, key=len, reverse=True)

    flat: list = []
    # ``tables`` is re-walked below with a label; ``stages`` is rendered as
    # the histogram family, not as flattened gauges.
    skip = ("tables", "stages")
    _flatten("corra", {k: v for k, v in snapshot.items() if k not in skip}, "", flat)
    for table, entry in sorted(snapshot.get("tables", {}).items()):
        if isinstance(entry, dict):
            _flatten("corra_table", entry, f'{{table="{table}"}}', flat)

    # Regroup by family: exposition requires all samples of one metric
    # name to be contiguous (table metrics interleave families otherwise).
    families: "OrderedDict[str, list]" = OrderedDict()
    for name, labels, value in flat:
        families.setdefault(name, []).append((labels, value))

    lines: list[str] = []
    for name, samples in families.items():
        suffix = next((k for k in help_keys if name.endswith(f"_{k}")), None)
        if suffix is not None:
            lines.append(f"# HELP {name} {counter_help[suffix]}")
            lines.append(f"# TYPE {name} counter")
        for labels, value in samples:
            lines.append(f"{name}{labels} {_sample_value(value)}")

    if stages:
        lines.append(
            "# HELP corra_stage_duration_seconds "
            "Wall-clock time spent per query stage (from traced spans)."
        )
        lines.append("# TYPE corra_stage_duration_seconds histogram")
        for stage, hist in stages.items():
            for le, cumulative in hist["buckets"]:
                lines.append(
                    f'corra_stage_duration_seconds_bucket{{stage="{stage}",le="{le}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'corra_stage_duration_seconds_sum{{stage="{stage}"}} '
                f"{_sample_value(hist['sum_seconds'])}"
            )
            lines.append(
                f'corra_stage_duration_seconds_count{{stage="{stage}"}} {hist["count"]}'
            )
    return "\n".join(lines) + "\n"
