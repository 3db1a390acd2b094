"""Names, units and directions of every metric, and the paper's reference values.

``BENCHMARK.json`` at the root of the repo is the contract the driver reads;
this module is the same list in code, plus what the contract has no room
for: which end-to-end metric each per-layer metric is predicted to move, on
which workload, and the paper's Table 2 / Fig. 5 / Fig. 8 values that are
recorded beside ours.  The smoke test keeps the two in step.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "PAPER", "per_layer_names"]

#: (name, unit, better, bound): the bound is the share of the parent's median a
#: metric may worsen by before a change counts as a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("rows_per_s", "rows/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("stored_bytes_per_raw_byte", "ratio", "lower", 0.10),
    ("saving_vs_single_column", "ratio", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

_CODECS = ("for_bitpack", "dictionary", "delta", "rle", "frequency", "fsst")
_HORIZONTAL = ("diff_encoding", "hierarchical", "multi_reference")

_BULK = "rows_per_s@bulk_load"
_PLAN = "ops_per_s,rows_per_s@plan_search"
_MAT = "op_p50_ms@materialize"
_SCAN = "op_p50_ms@scan_cold"
_LOOKUP = "op_p50_ms,ops_per_s@lookup_warm,serve_mix"
_SERVE = "op_p50_ms,op_p90_ms,ops_per_s@serve_mix"
_NONE = "none"

#: (name, unit, better, moves): ``moves`` names the end-to-end metric and the
#: workload the layer metric is predicted to move; everywhere else the
#: prediction is no change.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    # bound: the stated rooflines bitpack and storage.format are read against
    ("bound.numpy_copy_gb_per_s", "GB/s", "higher", _NONE),
    ("bound.raw_pread_mb_per_s", "MB/s", "higher", _NONE),
    ("bound.raw_write_mb_per_s", "MB/s", "higher", _NONE),
    # bitpack
    ("bitpack.pack_gb_per_s", "GB/s", "higher", _BULK),
    ("bitpack.unpack_gb_per_s", "GB/s", "higher", _SCAN),
    ("bitpack.gather_mrows_per_s", "Mrows/s", "higher", _MAT),
    ("bitpack.compare_range_gb_per_s", "GB/s", "higher", _SCAN),
    # encodings
    *((f"encodings.{c}.encode_mb_per_s", "MB/s", "higher", _BULK) for c in _CODECS),
    *((f"encodings.{c}.decode_mb_per_s", "MB/s", "higher", _SCAN) for c in _CODECS),
    ("encodings.selector.select_ms", "ms", "lower", _BULK),
    ("encodings.selector.best_size_ms", "ms", "lower", _PLAN),
    # core: choosing
    *(
        (f"core.correlation.suggest_ms.{d}", "ms", "lower", _PLAN)
        for d in ("tpch", "taxi", "dmv", "ldbc")
    ),
    ("core.correlation.hierarchy_score_ms", "ms", "lower", _PLAN),
    ("core.correlation.bounded_difference_score_ms", "ms", "lower", _PLAN),
    ("core.correlation.pairs_scored", "count", "lower", _PLAN),
    ("core.optimizer.build_graph_ms", "ms", "lower", _PLAN),
    ("core.optimizer.optimize_graph_ms", "ms", "lower", _PLAN),
    ("core.rule_mining.mine_ms", "ms", "lower", _PLAN),
    ("core.rule_mining.explained_frac", "ratio", "higher", _PLAN),
    # core: encoding
    ("core.plan.compress_rows_per_s", "rows/s", "higher", _BULK),
    *(
        (f"core.{h}.{m}", unit, "higher", moves)
        for h in _HORIZONTAL
        for m, unit, moves in (
            ("encode_mb_per_s", "MB/s", _BULK),
            ("decode_mb_per_s", "MB/s", _SCAN),
            ("gather_mrows_per_s", "Mrows/s", _MAT),
        )
    ),
    ("core.outliers.outlier_frac", "ratio", "lower", "saving_vs_single_column@bulk_load"),
    # core: the paper's numbers
    *(
        (f"core.{scheme}.saving.{column}", "ratio", "higher", "saving_vs_single_column@bulk_load")
        for scheme, column in (
            ("diff_encoding", "l_receiptdate"),
            ("diff_encoding", "l_commitdate"),
            ("diff_encoding", "dropoff"),
            ("hierarchical", "zip_code"),
            ("hierarchical", "ip"),
            ("multi_reference", "total_amount"),
        )
    ),
    *((f"core.{h}.latency_ratio", "ratio", "lower", _MAT) for h in _HORIZONTAL),
    # storage
    ("storage.serialization.serialize_mb_per_s", "MB/s", "higher", _BULK),
    ("storage.serialization.deserialize_mb_per_s", "MB/s", "higher", _SCAN),
    ("storage.format.write_mb_per_s", "MB/s", "higher", _BULK),
    ("storage.format.open_ms", "ms", "lower", "setup_s@scan_cold,lookup_warm,serve_mix"),
    ("storage.format.read_column_mb_per_s", "MB/s", "higher", _SCAN),
    (
        "storage.format.file_bytes_per_relation_byte",
        "ratio",
        "lower",
        "stored_bytes_per_raw_byte@bulk_load",
    ),
    ("storage.cache.hit_rate", "ratio", "higher", _SCAN),
    ("storage.cache.evictions_per_op", "1/op", "lower", _SCAN),
    ("storage.cache.hit_us", "us", "lower", "op_p50_ms@lookup_warm"),
    ("storage.disk.bytes_read_per_op", "B/op", "lower", _SCAN),
    ("storage.disk.columns_skipped_frac", "ratio", "higher", _SCAN),
    ("storage.disk.prefetch_hit_rate", "ratio", "higher", _SCAN),
    ("storage.disk.reads_coalesced_per_op", "1/op", "higher", _SCAN),
    ("storage.relation.locate_ms", "ms", "lower", _MAT),
    ("storage.statistics.blocks_pruned_frac", "ratio", "higher", _SCAN),
    # query
    ("query.plan.build_us", "us", "lower", _LOOKUP),
    ("query.plan.compile_us", "us", "lower", _LOOKUP),
    ("query.plan.fingerprint_us", "us", "lower", _SERVE),
    ("query.plan.execute_us", "us", "lower", _LOOKUP),
    ("query.engine.compiler_for_us", "us", "lower", _LOOKUP),
    ("query.scan.planner_plan_us", "us", "lower", _LOOKUP),
    ("query.scan.materialize_ms", "ms", "lower", _MAT),
    ("query.scan.rows_decoded_per_op", "rows/op", "lower", _SCAN),
    ("query.scan.predicate_decode_ms", "ms", "lower", _SCAN),
    ("query.kernels.predicate_mask_ms", "ms", "lower", _SCAN),
    ("query.kernels.kernel_declines_per_op", "1/op", "lower", _SCAN),
    ("query.kernels.rows_kernel_evaluated_frac", "ratio", "higher", _SCAN),
    ("query.parallel.scan_ms_w1", "ms", "lower", _NONE),
    ("query.parallel.scan_ms_w2", "ms", "lower", _NONE),
    *(
        (f"query.tracing.stage.{stage}_ms", "ms", "lower", _SCAN)
        for stage in ("plan", "fetch", "io", "predicate", "gather", "aggregate")
    ),
    ("query.tracing.overhead_frac", "ratio", "lower", _SERVE),
    # server
    ("server.protocol.parse_us", "us", "lower", _SERVE),
    ("server.protocol.build_us", "us", "lower", _SERVE),
    ("server.protocol.encode_us", "us", "lower", _SERVE),
    ("server.service.execute_us", "us", "lower", _SERVE),
    ("server.service.result_cache_hit_rate", "ratio", "higher", _SERVE),
    ("server.service.admission_wait_us", "us", "lower", _SERVE),
    ("server.service.rejected_per_op", "1/op", "lower", _SERVE),
    ("server.http.overhead_us", "us", "lower", _SERVE),
    ("server.http.p99_ms", "ms", "lower", _SERVE),
    ("server.metrics.p50_ms", "ms", "lower", _SERVE),
    # bench: the instrument itself
    ("bench.tracing_overhead_frac", "ratio", "lower", _NONE),
    ("bench.unattributed_frac", "ratio", "lower", _NONE),
)

#: The paper's values, recorded beside ours.  Savings are Table 2 (share of
#: the best single-column encoding's bytes saved).  Latency ratios are
#: Corra / single-column materialisation time at selectivity 0.01, read off
#: Fig. 5 (single reference: at most 1.66x over the sweep) and Fig. 8
#: (multi-reference: about 2x); the base is the single-column baseline.
PAPER: dict[str, float] = {
    "core.diff_encoding.saving.l_receiptdate": 0.583,
    "core.diff_encoding.saving.l_commitdate": 0.333,
    "core.diff_encoding.saving.dropoff": 0.306,
    "core.hierarchical.saving.zip_code": 0.537,
    "core.hierarchical.saving.ip": 0.171,
    "core.multi_reference.saving.total_amount": 0.8516,
    "core.diff_encoding.latency_ratio": 1.66,
    "core.hierarchical.latency_ratio": 1.66,
    "core.multi_reference.latency_ratio": 2.0,
}


def per_layer_names() -> tuple[str, ...]:
    return tuple(name for name, _, _, _ in PER_LAYER)

