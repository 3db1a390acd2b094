"""Benchmark for the zone-map scan pipeline: blocks pruned and latency vs.
selectivity.

Beyond the paper's figures: measures what per-block statistics buy a
selective ``Between`` scan over a sorted ``l_shipdate`` column, against the
seed's decode-every-block path (``use_statistics=False``).  The reporting
test records blocks pruned and asserts the headline speedup so future PRs
have a trajectory to compare against.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _bench_config import latency_rows
from repro.bench.experiments import _sorted_dates_relations
from repro.query import Between, EngineConfig, QueryExecutor

SELECTIVITIES = (0.001, 0.01, 0.05, 0.1)
N_BLOCKS = 16


@pytest.fixture(scope="module")
def sorted_relation():
    """The sorted TPC-H date pair in 16 blocks, plus the raw sorted column."""
    relation, sorted_table = _sorted_dates_relations(
        latency_rows(), N_BLOCKS, seed=42
    )
    return relation, np.asarray(sorted_table.column("l_shipdate"))


def _predicate(ship: np.ndarray, selectivity: float) -> Between:
    cutoff = int(ship[min(int(selectivity * ship.size), ship.size - 1)])
    return Between("l_shipdate", int(ship[0]), cutoff)


class TestPrunedScan:
    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    def test_count_with_pruning(self, benchmark, sorted_relation, selectivity):
        relation, ship = sorted_relation
        executor = QueryExecutor(relation)
        predicate = _predicate(ship, selectivity)
        benchmark(executor.count, predicate)

    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    def test_count_full_decode(self, benchmark, sorted_relation, selectivity):
        relation, ship = sorted_relation
        executor = QueryExecutor(relation, config=EngineConfig(use_statistics=False))
        predicate = _predicate(ship, selectivity)
        benchmark(executor.count, predicate)


def test_print_pruning_trajectory(sorted_relation):
    """Record blocks pruned / rows decoded / speedup per selectivity."""
    relation, ship = sorted_relation
    pruned_executor = QueryExecutor(relation)
    full_executor = QueryExecutor(relation, config=EngineConfig(use_statistics=False))

    def _time(executor, predicate, repeats=5) -> float:
        executor.count(predicate)  # warm-up
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            executor.count(predicate)
            timings.append(time.perf_counter() - start)
        return float(np.median(timings))

    print()
    speedups = {}
    for selectivity in SELECTIVITIES:
        predicate = _predicate(ship, selectivity)
        pruned_seconds = _time(pruned_executor, predicate)
        metrics = pruned_executor.last_scan_metrics
        full_seconds = _time(full_executor, predicate)
        speedup = full_seconds / max(pruned_seconds, 1e-9)
        speedups[selectivity] = speedup
        print(
            f"[scan-pruning] selectivity {selectivity}: "
            f"{metrics.blocks_pruned + metrics.blocks_full}/{metrics.n_blocks} "
            f"blocks skipped, {metrics.rows_decoded:,} rows decoded, "
            f"{pruned_seconds * 1e3:.2f} ms vs {full_seconds * 1e3:.2f} ms "
            f"full-decode ({speedup:.1f}x)"
        )
        # Counts must agree with the brute-force path.
        assert pruned_executor.count(predicate) == full_executor.count(predicate)
    # Acceptance: >= 5x latency improvement at <= 10% selectivity on the
    # sorted column, where at most a couple of blocks overlap the range.
    assert max(speedups[s] for s in SELECTIVITIES if s <= 0.1) >= 5.0
