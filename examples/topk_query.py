#!/usr/bin/env python3
"""Ordered queries and zone-map-driven top-k over an out-of-core table.

``order_by()`` sorts a query's output; chained with ``limit(k)`` the pair
is fused into a *bounded top-k* that never runs the full sort.  On a
clustered column the per-block zone maps are disjoint, so the engine can:

1. visit blocks in sort-column bound order (best bound first),
2. keep at most ``k`` candidates per visited block,
3. stop as soon as no remaining block's bound can beat the current k-th
   candidate — on a :class:`DiskRelation`, blocks past that point are
   never even fetched.

This example persists a 500k-row relation whose ``ts`` column is sorted,
then asks for the 10 smallest and 10 largest timestamps, printing the scan
and I/O metrics that prove almost nothing was read.  It ends with a HAVING
query (a filter over aggregated rows) and the exact ``Var``/``Std``
population moments, both new alongside top-k.

Run with::

    python examples/topk_query.py [n_rows]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import TableCompressor
from repro.dtypes import INT64, STRING
from repro.query import Between, Count, Std, Var
from repro.storage import DiskRelation, Table, write_table


def main(n_rows: int = 500_000) -> None:
    # A clustered relation: ``ts`` is sorted, so every block's zone map
    # covers a disjoint range — the ideal case for top-k early exit.
    rng = np.random.default_rng(7)
    tags = [f"sensor_{i:02d}" for i in range(8)]
    table = Table.from_columns([
        ("ts", INT64, np.sort(rng.integers(0, 10 * n_rows, n_rows))),
        ("reading", INT64, rng.integers(-50, 150, n_rows)),
        ("tag", STRING, [tags[i] for i in rng.integers(0, len(tags), n_rows)]),
    ])
    relation = TableCompressor(block_size=8_192).compress(table)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.corra"
        write_table(str(path), relation)
        with DiskRelation(str(path), prefetch_workers=0) as disk:
            for desc, label in ((False, "oldest"), (True, "newest")):
                result = (
                    disk.query()
                    .select("ts", "tag")
                    .order_by("ts", desc=desc)
                    .limit(10)
                    .execute()
                )
                metrics = result.metrics
                visited = metrics.blocks_scanned + metrics.blocks_full
                print(f"10 {label} readings: {[int(v) for v in result.columns['ts'][:5]]} ...")
                print(
                    f"  visited {visited}/{metrics.n_blocks} blocks "
                    f"({metrics.blocks_pruned} skipped before any fetch); "
                    f"{disk.io.column_bytes_read:,} column bytes read so far"
                )

            # The skipped blocks never reached the I/O layer at all.
            print(
                f"\ntotal I/O after both top-k queries: "
                f"{disk.io.columns_read} column segment(s), "
                f"{disk.io.column_bytes_read:,} of {disk.size_bytes:,} table bytes"
            )

    # HAVING filters *aggregated* rows by output name, and Var/Std are
    # exact population moments (integer partials, one pass).
    busy = (
        relation.query()
        .where(Between("reading", 0, 149))
        .group_by("tag")
        .agg(n=Count(), spread=Std("reading"), var=Var("reading"))
        .having(Between("n", n_rows // 16, n_rows))
        .execute()
    )
    print(f"\nsensors with at least {n_rows // 16:,} in-range readings:")
    for tag, n, spread in zip(busy.columns["tag"], busy.columns["n"], busy.columns["spread"]):
        print(f"  {tag}: {n:,} readings, std {spread:.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 500_000)
