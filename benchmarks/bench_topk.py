"""Benchmarks for zone-map-driven top-k and the work-stealing scheduler.

Two trajectories are recorded, both checked bit-identical against a serial
sort-everything reference:

* **top-k early exit** — ``order_by(col).limit(k)`` over a *clustered*
  column (sorted at generation time, so per-block zone maps are disjoint)
  on a cold out-of-core table.  The engine visits blocks in bound order and
  stops once no remaining block can beat the k-th candidate; the acceptance
  target is that at most 25% of the surviving blocks are ever fetched.
* **work stealing** — a skewed workload (one worker's contiguous share of
  the deal carries nearly all the compute) at 4 workers: the scan must stay
  bit-identical to serial and at least one morsel must be stolen.

Row count comes from ``CORRA_BENCH_TOPK_ROWS`` (default 200,000 — laptop
scale, same convention as the other benchmarks); the steal benchmark's
worker count from ``CORRA_BENCH_TOPK_WORKERS`` (default 4).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import TableCompressor
from repro.dtypes import INT64
from repro.query import ColumnPredicate, EngineConfig, ParallelEngine
from repro.storage import DiskRelation, Table, write_table

N_BLOCKS = 64
TOP_K = 32


def topk_rows() -> int:
    return int(os.environ.get("CORRA_BENCH_TOPK_ROWS", "200000"))


def steal_workers() -> int:
    return int(os.environ.get("CORRA_BENCH_TOPK_WORKERS", "4"))


def _clustered_relation(n_rows: int, seed: int = 42):
    """A relation whose sort column is clustered: disjoint zone maps."""
    rng = np.random.default_rng(seed)
    table = Table.from_columns([
        ("ts", INT64, np.sort(rng.integers(0, 10 * n_rows, n_rows))),
        ("payload", INT64, rng.integers(0, 1_000, n_rows)),
    ])
    block_size = max(1, -(-n_rows // N_BLOCKS))
    return table, TableCompressor(block_size=block_size).compress(table)


def _time(fn, repeats: int = 3) -> float:
    fn()  # warm-up
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


def test_print_topk_early_exit(tmp_path):
    """Cold disk top-k fetches at most 25% of the surviving blocks."""
    n_rows = topk_rows()
    table, relation = _clustered_relation(n_rows)
    path = tmp_path / "clustered.corra"
    write_table(str(path), relation)

    # Serial sort-everything reference over the raw values.
    raw = np.asarray(table.column("ts"), dtype=np.int64)
    print()
    for descending in (False, True):
        expected = np.sort(raw)[::-1][:TOP_K] if descending else np.sort(raw)[:TOP_K]
        disk = DiskRelation(str(path), prefetch_workers=0)  # cold: fresh cache
        result = (
            disk.query(config=EngineConfig(workers=1))
            .select("ts")
            .order_by("ts", desc=descending)
            .limit(TOP_K)
            .execute()
        )
        assert list(result.columns["ts"]) == expected.tolist()
        metrics = result.metrics
        visited = metrics.blocks_scanned + metrics.blocks_full
        fraction = visited / metrics.n_blocks
        io = disk.io
        direction = "desc" if descending else "asc"
        print(
            f"top-{TOP_K} {direction:<4} over {n_rows:,} clustered rows: "
            f"visited {visited}/{metrics.n_blocks} blocks ({fraction:.1%}), "
            f"{io.columns_read} column segment(s) read, "
            f"{io.column_bytes_read:,} bytes"
        )
        assert fraction <= 0.25, (
            f"top-k visited {fraction:.1%} of blocks; early exit is not engaging"
        )


def _skewed_relation(n_blocks: int = 16, block_size: int = 2048):
    """First 3/4 of the blocks are trivial, the last 1/4 carry the compute."""
    light = (3 * n_blocks // 4) * block_size
    heavy = n_blocks * block_size - light
    marker = np.concatenate([
        np.zeros(light, dtype=np.int64),
        np.ones(heavy, dtype=np.int64),
    ])
    table = Table.from_columns([("m", INT64, marker)])
    return TableCompressor(block_size=block_size).compress(table)


def _skewed_predicate(spins: int = 120):
    """All rows match; heavy blocks pay a real (GIL-releasing) numpy cost."""

    def condition(values):
        if values.max(initial=0) > 0:
            acc = values.astype(np.float64)
            for _ in range(spins):
                acc = np.sqrt(acc + 1.0)
        return values >= 0

    return ColumnPredicate("m", condition, description="m >= 0 (skewed cost)")


def test_print_steal_speedup():
    """Work stealing rebalances a skewed deal without changing the result."""
    workers = steal_workers()
    relation = _skewed_relation()
    predicate = _skewed_predicate()

    with ParallelEngine(relation, workers=1) as serial:
        reference, _ = serial.scan(predicate)
        serial_seconds = _time(lambda: serial.scan(predicate))
    with ParallelEngine(relation, workers=workers) as engine:
        row_ids, metrics = engine.scan(predicate)
        seconds = _time(lambda: engine.scan(predicate))

    assert np.array_equal(row_ids, reference), "stealing changed the result"
    print()
    print(
        f"skewed scan: serial {serial_seconds * 1e3:.1f} ms, {workers} workers "
        f"{seconds * 1e3:.1f} ms ({metrics.morsels_stolen} morsel(s) stolen)"
    )
    assert metrics.morsels_stolen >= 1, "the skewed deal did not trigger a single steal"
