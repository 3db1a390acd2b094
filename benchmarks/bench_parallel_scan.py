"""Benchmark for the morsel-driven parallel scan engine and the
dictionary-domain predicate path.

Two trajectories are recorded:

* **parallel scan** — ``count`` over an *unsorted* relation (zone maps
  cannot prune, every block must be evaluated) at increasing worker counts.
  The acceptance target is >= 2.5x throughput at 4 workers vs 1 on a
  1M-row relation (``CORRA_BENCH_PARALLEL_ROWS=1000000``); the assertion is
  gated on the machine actually having >= 4 cores, because a thread pool
  cannot beat serial execution on fewer cores than workers.
* **dictionary domain** — ``Eq``/``In`` over a dictionary-encoded string
  column with code-space evaluation on vs off.  The code-space path must
  materialise zero string-heap values (asserted via
  ``ScanMetrics.string_heap_decodes``) and beat decode-then-compare.

Row count comes from ``CORRA_BENCH_PARALLEL_ROWS`` (default 200,000 —
laptop scale, same convention as the other benchmarks); worker counts from
``CORRA_BENCH_PARALLEL_WORKERS`` (default ``1,2,4``), which the CI smoke
job narrows to ``1,2``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import TableCompressor
from repro.dtypes import INT64, STRING
from repro.query import Between, EngineConfig, Eq, In, QueryExecutor
from repro.storage.table import Table

N_BLOCKS = 16


def parallel_rows() -> int:
    return int(os.environ.get("CORRA_BENCH_PARALLEL_ROWS", "200000"))


def worker_counts() -> tuple[int, ...]:
    spec = os.environ.get("CORRA_BENCH_PARALLEL_WORKERS", "1,2,4")
    return tuple(int(part) for part in spec.split(",") if part)


def _unsorted_table(n_rows: int, seed: int = 42) -> Table:
    """An unsorted mixed table: wide int column + dict-encoded string column."""
    rng = np.random.default_rng(seed)
    categories = [f"cat_{i:04d}" for i in range(256)]
    tags = [categories[i] for i in rng.integers(0, len(categories), n_rows)]
    return Table.from_columns([
        ("v", INT64, rng.integers(0, 1_000_000, n_rows)),
        ("tag", STRING, tags),
    ])


@pytest.fixture(scope="module")
def unsorted_relation():
    n_rows = parallel_rows()
    table = _unsorted_table(n_rows)
    block_size = max(1, -(-n_rows // N_BLOCKS))
    relation = TableCompressor(block_size=block_size).compress(table)
    return relation


def _time(fn, repeats: int = 3) -> float:
    fn()  # warm-up
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


class TestParallelScan:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_count_at_workers(self, benchmark, unsorted_relation, workers):
        executor = QueryExecutor(unsorted_relation, config=EngineConfig(workers=workers))
        predicate = Between("v", 0, 100_000)
        benchmark(executor.count, predicate)


def test_print_parallel_scan_trajectory(unsorted_relation):
    """Record scan throughput per worker count on the unsorted relation."""
    relation = unsorted_relation
    predicate = Between("v", 0, 100_000)  # ~10% selectivity, zero pruning
    baseline = QueryExecutor(relation, config=EngineConfig(workers=1))
    expected = baseline.count(predicate)
    assert baseline.last_scan_metrics.blocks_pruned == 0

    print()
    seconds_by_workers = {}
    for workers in worker_counts():
        executor = QueryExecutor(relation, config=EngineConfig(workers=workers))
        assert executor.count(predicate) == expected
        seconds = _time(lambda: executor.count(predicate))
        seconds_by_workers[workers] = seconds
        throughput = relation.n_rows / seconds
        speedup = seconds_by_workers[min(seconds_by_workers)] / seconds
        print(
            f"[parallel-scan] workers={workers}: {seconds * 1e3:.2f} ms "
            f"({throughput / 1e6:.1f}M rows/s, {speedup:.2f}x vs "
            f"{min(seconds_by_workers)} worker(s))"
        )
    # Acceptance: >= 2.5x at 4 workers vs 1 — only meaningful when the
    # machine actually has >= 4 cores to spread the morsels over.
    cores = os.cpu_count() or 1
    if cores >= 4 and 4 in seconds_by_workers and 1 in seconds_by_workers:
        speedup = seconds_by_workers[1] / seconds_by_workers[4]
        assert speedup >= 2.5, (
            f"expected >= 2.5x at 4 workers on a {cores}-core machine, "
            f"got {speedup:.2f}x"
        )
    else:
        print(
            f"[parallel-scan] speedup assertion skipped "
            f"({cores} core(s) available)"
        )


def test_print_dictionary_domain_trajectory(unsorted_relation):
    """Record the dictionary-domain speedup over decode-then-compare."""
    relation = unsorted_relation
    assert relation.block(0).encoding_of("tag") == "dictionary"
    dict_executor = QueryExecutor(relation)
    decode_executor = QueryExecutor(relation, config=EngineConfig(use_kernels=False))

    print()
    for predicate in (
        Eq("tag", "cat_0042"),
        In("tag", ["cat_0001", "cat_0077", "cat_0200", "not_a_tag"]),
    ):
        expected = decode_executor.count(predicate)
        assert dict_executor.count(predicate) == expected
        dict_metrics = dict_executor.last_scan_metrics
        decode_metrics = decode_executor.last_scan_metrics
        # The code-space path must never materialise a string heap ...
        assert dict_metrics.string_heap_decodes == 0
        assert dict_metrics.rows_dict_evaluated == relation.n_rows
        # ... while decode-then-compare pays for every row.
        assert decode_metrics.string_heap_decodes == relation.n_rows
        assert decode_metrics.rows_dict_evaluated == 0

        dict_seconds = _time(lambda p=predicate: dict_executor.count(p))
        decode_seconds = _time(lambda p=predicate: decode_executor.count(p))
        speedup = decode_seconds / max(dict_seconds, 1e-9)
        print(
            f"[dict-domain] {predicate.describe()}: {dict_seconds * 1e3:.2f} ms "
            f"code-space vs {decode_seconds * 1e3:.2f} ms decode-then-compare "
            f"({speedup:.1f}x), 0 heap decodes"
        )
        assert speedup >= 2.0


def test_print_parallel_compression_trajectory():
    """Record block-compression wall time per worker count."""
    n_rows = min(parallel_rows(), 200_000)
    table = _unsorted_table(n_rows, seed=7)
    block_size = max(1, -(-n_rows // N_BLOCKS))
    reference = TableCompressor(block_size=block_size).compress(table)

    print()
    for workers in worker_counts():
        compressor = TableCompressor(block_size=block_size, workers=workers)
        seconds = _time(lambda: compressor.compress(table), repeats=1)
        relation = compressor.compress(table)
        assert relation.size_bytes == reference.size_bytes
        assert relation.n_blocks == reference.n_blocks
        print(
            f"[parallel-compress] workers={workers}: {seconds * 1e3:.0f} ms "
            f"for {relation.n_blocks} blocks"
        )
