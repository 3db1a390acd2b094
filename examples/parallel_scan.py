#!/usr/bin/env python3
"""Parallel scans on the engine's worker pool and dictionary-domain predicates.

This walks through parallel execution:

1. build an *unsorted* two-column table (zone maps cannot prune it, so every
   block must actually be evaluated — the worst case for a serial scan);
2. compress it on all cores with ``TableCompressor(workers=0)``;
3. run the same predicate serially and on engines with increasing
   ``EngineConfig(workers=...)``, whose one thread pool runs a task per
   block, verifying the results are identical and timing each run;
4. run an ``Eq`` predicate over a dictionary-encoded string column in
   dictionary code space, showing that no string is decoded from the heap
   (``string_heap_decodes`` stays zero).

Run with::

    python examples/parallel_scan.py [n_rows]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro import TableCompressor
from repro.dtypes import INT64, STRING
from repro.query import Between, Engine, EngineConfig, Eq
from repro.storage import Table


def main(n_rows: int = 400_000) -> None:
    # 1. An unsorted table: a wide integer column plus a categorical string
    #    column that the auto-selector will dictionary-encode.
    rng = np.random.default_rng(42)
    categories = [f"cat_{i:03d}" for i in range(128)]
    table = Table.from_columns([
        ("v", INT64, rng.integers(0, 1_000_000, n_rows)),
        ("tag", STRING, [categories[i] for i in rng.integers(0, 128, n_rows)]),
    ])
    print(f"generated {table.n_rows:,} unsorted rows over {len(categories)} tags")

    # 2. Parallel block compression (workers=0 means one thread per core).
    block_size = max(1, table.n_rows // 16)
    start = time.perf_counter()
    relation = TableCompressor(block_size=block_size, workers=0).compress(table)
    print(
        f"compressed into {relation.n_blocks} blocks in "
        f"{(time.perf_counter() - start) * 1e3:.0f} ms "
        f"({relation.size_bytes:,} bytes; tag encoded as "
        f"{relation.block(0).encoding_of('tag')})"
    )

    # 3. The same scan, serial vs one task per block on the engine's pool.
    predicate = Between("v", 0, 100_000)  # ~10% selectivity, zero pruning
    expected = relation.query().where(predicate).count()
    print(f"\nscan {predicate.describe()} -> {expected:,} rows")
    for workers in (1, 2, os.cpu_count() or 1):
        with Engine(EngineConfig(workers=workers)) as engine:
            query = engine.query(relation).where(predicate)
            assert query.count() == expected  # identical to serial
            start = time.perf_counter()
            query.count()
            seconds = time.perf_counter() - start
        print(
            f"  workers={workers}: {seconds * 1e3:6.2f} ms "
            f"({relation.n_rows / seconds / 1e6:.1f}M rows/s)"
        )

    # 4. Dictionary-domain evaluation: Eq over the dict-encoded string column.
    predicate = Eq("tag", "cat_042")
    print(f"\nscan {predicate.describe()}")
    query = relation.query().where(predicate)
    start = time.perf_counter()
    count = query.count()
    seconds = time.perf_counter() - start
    metrics = query.last_metrics
    print(
        f"  code-space: {count:,} rows in {seconds * 1e3:6.2f} ms, "
        f"{metrics.string_heap_decodes:,} heap decodes, "
        f"{metrics.rows_dict_evaluated:,} rows dict-evaluated"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400_000)
