"""Benchmark for the compressed-domain kernels (RLE run space, FOR word space).

Three trajectories are recorded, each against the same query with
``use_kernels=False`` (decode-then-compare):

* **RLE run space** — a compound predicate over a run-heavy, low-cardinality
  column.  The kernel evaluates once per run and fans out with
  ``np.repeat``; acceptance is **>= 5x** over the decode baseline with
  ``rows_decoded`` dropping to zero on the kernel path.
* **FOR word space** — a ``Between`` over a random 16-bit-domain column.
  Constants shift by the frame of reference and compare against a zero-copy
  lane view of the packed words; acceptance is **>= 2x** over decode.
* **run-weighted aggregates** — ``count``/``sum``/``min``/``max``/``avg``
  computed as Σ value·run_length over surviving runs; results are asserted
  *exactly* equal to the decode reference, and the workers sweep checks the
  parallel path returns the identical answers.

Row count comes from ``CORRA_BENCH_KERNEL_ROWS`` (default 200,000); worker
counts from ``CORRA_BENCH_KERNEL_WORKERS`` (default ``1,2``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64
from repro.query import Avg, Between, Count, EngineConfig, Eq, Max, Min, Not, Or, Sum
from repro.storage.table import Table

N_BLOCKS = 16

#: Values cycle through the full 0..49 domain inside every block, so zone
#: maps can never prune — every block must be answered by the kernel (or
#: decoded by the baseline).
N_DISTINCT = 50
RUN_LENGTH = 64

#: The decode-then-compare baseline the kernels are timed against.
DECODE = EngineConfig(use_kernels=False)


def kernel_rows() -> int:
    return int(os.environ.get("CORRA_BENCH_KERNEL_ROWS", "200000"))


def worker_counts() -> tuple[int, ...]:
    spec = os.environ.get("CORRA_BENCH_KERNEL_WORKERS", "1,2")
    return tuple(int(part) for part in spec.split(",") if part)


def _kernel_table(n_rows: int, seed: int = 42) -> Table:
    rng = np.random.default_rng(seed)
    n_runs = -(-n_rows // RUN_LENGTH)
    rle = np.repeat(np.arange(n_runs, dtype=np.int64) % N_DISTINCT, RUN_LENGTH)[:n_rows]
    return Table.from_columns([
        ("grade", INT64, rle),
        ("word", INT64, rng.integers(0, 65_536, n_rows)),
    ])


@pytest.fixture(scope="module")
def kernel_relation():
    n_rows = kernel_rows()
    table = _kernel_table(n_rows)
    plan = (
        CompressionPlan.builder(table.schema)
        .vertical("grade", "rle")
        .vertical("word", "for_bitpack")
        .build()
    )
    block_size = max(1, -(-n_rows // N_BLOCKS))
    return TableCompressor(plan, block_size=block_size).compress(table), table


def _time(fn, repeats: int = 5) -> float:
    fn()  # warm-up
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


class TestKernelLatency:
    @pytest.mark.parametrize("use_kernels", (True, False))
    def test_rle_compound_predicate(self, benchmark, kernel_relation, use_kernels):
        relation, _ = kernel_relation
        query = (
            relation.query(config=EngineConfig(use_kernels=use_kernels))
            .where(Or(Eq("grade", 7), Not(Between("grade", 3, 40))))
            .agg(n=Count())
        )
        benchmark(query.execute)


def test_print_rle_run_space_trajectory(kernel_relation):
    """Record run-space evaluation vs decode-then-compare on RLE data."""
    relation, table = kernel_relation
    assert relation.block(0).encoding_of("grade") == "rle"
    grade = table.column("grade")
    predicate = Or(Eq("grade", 7), Not(Between("grade", 3, 40)))
    expected_mask = (grade == 7) | ~((grade >= 3) & (grade <= 40))
    expected = int(np.count_nonzero(expected_mask))

    kernel_query = relation.query().where(predicate).agg(n=Count())
    decode_query = relation.query(config=DECODE).where(predicate).agg(n=Count())
    kernel_result = kernel_query.execute()
    decode_result = decode_query.execute()
    assert kernel_result.scalar("n") == expected
    assert decode_result.scalar("n") == expected

    # The kernel path never decodes a row: it touches only the run arrays.
    assert kernel_result.metrics.rows_decoded == 0
    assert kernel_result.metrics.rows_rle_evaluated == relation.n_rows
    assert kernel_result.metrics.runs_evaluated < relation.n_rows // (RUN_LENGTH // 2)
    assert decode_result.metrics.rows_decoded == relation.n_rows
    assert decode_result.metrics.rows_rle_evaluated == 0

    kernel_seconds = _time(lambda: kernel_query.execute())
    decode_seconds = _time(lambda: decode_query.execute())
    speedup = decode_seconds / max(kernel_seconds, 1e-9)
    print()
    print(
        f"[rle-kernel] {relation.n_rows:,} rows in "
        f"{kernel_result.metrics.runs_evaluated:,} runs: "
        f"{kernel_seconds * 1e3:7.2f} ms run-space vs "
        f"{decode_seconds * 1e3:7.2f} ms decode ({speedup:5.1f}x), "
        f"0 vs {decode_result.metrics.rows_decoded:,} rows decoded"
    )
    assert speedup >= 5.0, f"expected >= 5x for RLE run-space evaluation, got {speedup:.1f}x"


def test_print_for_word_space_trajectory(kernel_relation):
    """Record word-space Between vs decode-then-compare on FOR data."""
    relation, table = kernel_relation
    assert relation.block(0).encoding_of("word") == "for_bitpack"
    word = table.column("word")
    predicate = Between("word", 10_000, 20_000)
    expected = int(np.count_nonzero((word >= 10_000) & (word <= 20_000)))

    kernel_query = relation.query().where(predicate).agg(n=Count())
    decode_query = relation.query(config=DECODE).where(predicate).agg(n=Count())
    kernel_result = kernel_query.execute()
    decode_result = decode_query.execute()
    assert kernel_result.scalar("n") == expected
    assert decode_result.scalar("n") == expected
    assert kernel_result.metrics.rows_decoded == 0
    assert kernel_result.metrics.rows_for_evaluated == relation.n_rows
    assert decode_result.metrics.rows_decoded == relation.n_rows

    kernel_seconds = _time(lambda: kernel_query.execute())
    decode_seconds = _time(lambda: decode_query.execute())
    speedup = decode_seconds / max(kernel_seconds, 1e-9)
    print()
    print(
        f"[for-kernel] {relation.n_rows:,} rows: "
        f"{kernel_seconds * 1e3:7.2f} ms word-space vs "
        f"{decode_seconds * 1e3:7.2f} ms decode ({speedup:5.1f}x), "
        f"0 vs {decode_result.metrics.rows_decoded:,} rows decoded"
    )
    assert speedup >= 2.0, f"expected >= 2x for FOR word-space Between, got {speedup:.1f}x"


def test_print_run_weighted_aggregate_trajectory(kernel_relation):
    """Run-weighted aggregates must exactly equal the decode reference."""
    relation, table = kernel_relation
    grade = table.column("grade")
    predicate = Between("grade", 5, 30)
    mask = (grade >= 5) & (grade <= 30)
    selected = grade[mask]
    expected = {
        "n": int(selected.size),
        "s": int(np.sum(selected, dtype=np.int64)),
        "lo": int(selected.min()),
        "hi": int(selected.max()),
        "a": float(np.sum(selected, dtype=np.int64)) / selected.size,
    }

    aggs = dict(n=Count(), s=Sum("grade"), lo=Min("grade"), hi=Max("grade"), a=Avg("grade"))
    kernel_query = relation.query().where(predicate).agg(**aggs)
    decode_query = relation.query(config=DECODE).where(predicate).agg(**aggs)
    kernel_result = kernel_query.execute()
    decode_result = decode_query.execute()
    for name, value in expected.items():
        assert kernel_result.scalar(name) == value
        assert decode_result.scalar(name) == value
    assert kernel_result.metrics.rows_kernel_aggregated > 0
    assert decode_result.metrics.rows_kernel_aggregated == 0

    print()
    for workers in worker_counts():
        query = relation.query(config=EngineConfig(workers=workers)).where(predicate).agg(**aggs)
        result = query.execute()
        for name, value in expected.items():
            assert result.scalar(name) == value
        seconds = _time(lambda: query.execute())
        print(
            f"[kernel-agg] workers={workers}: {seconds * 1e3:7.2f} ms run-weighted "
            f"({relation.n_rows / seconds / 1e6:.1f}M rows/s, exact match)"
        )
