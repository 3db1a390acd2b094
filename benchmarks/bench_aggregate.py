"""Benchmark for the lazy plan API's aggregation pushdown.

Three trajectories are recorded:

* **stat-answered aggregates** — ``count``/``sum``/``min``/``max`` over a
  *sorted* relation at low selectivities.  The zone maps prune or fully
  cover every block, so the stats path answers from per-block metadata; the
  baseline is the same lazy query with ``use_statistics=False``
  (decode-and-reduce over every block).  The acceptance target is **>= 10x**
  at <= 10% selectivity, with zero rows decoded or gathered on the
  block-aligned point.
* **group-by in code space** — group-by over a dictionary-encoded string
  column with aggregation per group.  The code-space path must report at
  most one string-heap decode per distinct group
  (``ScanMetrics.string_heap_decodes <= n_groups``) and beat the
  decode-then-group baseline (``use_kernels=False``).
* **workers** — the same aggregate at each configured worker count, results
  asserted identical (the CI smoke job pins ``--workers`` to 1,2).

Row count comes from ``CORRA_BENCH_AGG_ROWS`` (default 200,000 — laptop
scale, same convention as the other benchmarks); worker counts from
``CORRA_BENCH_AGG_WORKERS`` (default ``1,2``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import TableCompressor
from repro.dtypes import INT64, STRING
from repro.query import Between, Count, EngineConfig, Max, Min, Sum
from repro.storage.table import Table

N_BLOCKS = 16


def aggregate_rows() -> int:
    return int(os.environ.get("CORRA_BENCH_AGG_ROWS", "200000"))


def worker_counts() -> tuple[int, ...]:
    spec = os.environ.get("CORRA_BENCH_AGG_WORKERS", "1,2")
    return tuple(int(part) for part in spec.split(",") if part)


def _sorted_table(n_rows: int, seed: int = 42) -> Table:
    """A sorted date column (prunable) plus an unsorted fare and a tag."""
    rng = np.random.default_rng(seed)
    categories = [f"cat_{i:03d}" for i in range(64)]
    return Table.from_columns([
        ("ship", INT64, np.arange(n_rows, dtype=np.int64) + 8_000),
        ("fare", INT64, rng.integers(0, 10_000, n_rows)),
        ("tag", STRING, [categories[i] for i in rng.integers(0, len(categories), n_rows)]),
    ])


@pytest.fixture(scope="module")
def sorted_relation():
    n_rows = aggregate_rows()
    table = _sorted_table(n_rows)
    block_size = max(1, -(-n_rows // N_BLOCKS))
    return TableCompressor(block_size=block_size).compress(table), table


def _time(fn, repeats: int = 5) -> float:
    fn()  # warm-up
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


def _agg_query(relation, low, high, **options):
    return (
        relation.query(config=EngineConfig(**options))
        .where(Between("ship", low, high))
        .agg(n=Count(), total=Sum("fare"), lo=Min("fare"), hi=Max("fare"))
    )


class TestAggregateLatency:
    @pytest.mark.parametrize("use_statistics", (True, False))
    def test_aggregate_at_one_block(self, benchmark, sorted_relation, use_statistics):
        relation, _ = sorted_relation
        high = 8_000 + relation.block_size - 1  # exactly the first block
        query = _agg_query(relation, 8_000, high, use_statistics=use_statistics)
        benchmark(query.execute)


def test_print_stat_answered_aggregate_trajectory(sorted_relation):
    """Record stat-answered aggregation vs decode-and-reduce per selectivity."""
    relation, table = sorted_relation
    n_rows = relation.n_rows
    fare = table.column("fare")
    ship = table.column("ship")

    print()
    speedup_at_aligned = None
    points = [
        ("1%", 8_000, 8_000 + max(n_rows // 100, 1) - 1, False),
        # One whole block (1/16 = 6.25% <= 10%): every touched block is
        # fully covered, so the stats path decodes nothing at all.
        ("1 block (6.2%)", 8_000, 8_000 + relation.block_size - 1, True),
        ("10%", 8_000, 8_000 + n_rows // 10 - 1, False),
    ]
    for label, low, high, aligned in points:
        mask = (ship >= low) & (ship <= high)
        expected = {
            "n": int(np.count_nonzero(mask)),
            "total": int(np.sum(fare[mask], dtype=np.int64)),
            "lo": int(fare[mask].min()),
            "hi": int(fare[mask].max()),
        }
        stats_query = _agg_query(relation, low, high)
        baseline_query = _agg_query(relation, low, high, use_statistics=False)
        stats_result = stats_query.execute()
        baseline_result = baseline_query.execute()
        for name, value in expected.items():
            assert stats_result.scalar(name) == value
            assert baseline_result.scalar(name) == value

        stats_seconds = _time(lambda: stats_query.execute())
        baseline_seconds = _time(lambda: baseline_query.execute())
        speedup = baseline_seconds / max(stats_seconds, 1e-9)
        metrics = stats_result.metrics
        print(
            f"[aggregate] {label:>14}: {stats_seconds * 1e3:7.2f} ms stat-answered vs "
            f"{baseline_seconds * 1e3:7.2f} ms decode-and-reduce ({speedup:5.1f}x); "
            f"{metrics.blocks_pruned}/{metrics.blocks_full}/{metrics.blocks_scanned} "
            f"blocks pruned/full/scanned, {metrics.rows_decoded:,} rows decoded, "
            f"{metrics.rows_gathered:,} gathered"
        )
        if aligned:
            speedup_at_aligned = speedup
            assert metrics.rows_decoded == 0
            assert metrics.rows_gathered == 0
            assert metrics.blocks_scanned == 0

    # Acceptance: stat-answered aggregation >= 10x over decode-and-reduce on
    # sorted data at <= 10% selectivity.
    assert speedup_at_aligned is not None
    assert speedup_at_aligned >= 10.0, (
        f"expected >= 10x for stat-answered aggregates, got {speedup_at_aligned:.1f}x"
    )


def test_print_group_by_code_space_trajectory(sorted_relation):
    """Record dictionary-domain group-by vs decode-then-group."""
    relation, table = sorted_relation
    assert relation.block(0).encoding_of("tag") == "dictionary"
    n_groups = len(set(table.column("tag")))

    code_query = relation.query().group_by("tag").agg(n=Count(), total=Sum("fare"))
    decode_query = (
        relation.query(config=EngineConfig(use_kernels=False))
        .group_by("tag")
        .agg(n=Count(), total=Sum("fare"))
    )
    code_result = code_query.execute()
    decode_result = decode_query.execute()
    assert code_result.columns == decode_result.columns
    assert len(code_result.column("tag")) == n_groups
    # One heap decode per distinct group on the code-space path ...
    assert code_result.metrics.string_heap_decodes <= n_groups
    # ... while decode-then-group materialises the tag of every row.
    assert decode_result.metrics.string_heap_decodes == relation.n_rows

    code_seconds = _time(lambda: code_query.execute())
    decode_seconds = _time(lambda: decode_query.execute())
    print()
    print(
        f"[group-by] {n_groups} groups over {relation.n_rows:,} rows: "
        f"{code_seconds * 1e3:.2f} ms code-space "
        f"({code_result.metrics.string_heap_decodes} heap decodes) vs "
        f"{decode_seconds * 1e3:.2f} ms decode-then-group "
        f"({decode_result.metrics.string_heap_decodes:,} heap decodes), "
        f"{decode_seconds / max(code_seconds, 1e-9):.1f}x"
    )


def test_print_aggregate_workers_trajectory(sorted_relation):
    """Record the unsorted-range aggregate at each worker count."""
    relation, _ = sorted_relation
    n_rows = relation.n_rows
    # An 80% range: most blocks full, boundary blocks scanned; the gathered
    # reduction is the part the workers parallelise.
    low, high = 8_000 + n_rows // 10, 8_000 + (n_rows * 9) // 10
    reference = _agg_query(relation, low, high).execute()

    print()
    for workers in worker_counts():
        query = _agg_query(relation, low, high, workers=workers)
        result = query.execute()
        for name in ("n", "total", "lo", "hi"):
            assert result.scalar(name) == reference.scalar(name)
        seconds = _time(lambda: query.execute())
        print(
            f"[aggregate-workers] workers={workers}: {seconds * 1e3:7.2f} ms "
            f"({relation.n_rows / seconds / 1e6:.1f}M rows/s)"
        )
