#!/usr/bin/env python3
"""The lazy query API: builder -> explain -> execute.

This walks through the logical-plan front door added in PR 3:

1. build a sorted three-column table (a date-like key, a fare, a
   categorical tag the auto-selector will dictionary-encode) and compress
   it into blocks;
2. compose a query lazily with ``relation.query()`` — nothing is decoded
   while the chain is being built;
3. ``explain()`` the plan: its operator chain plus the planner's per-block
   prune/full/scan decisions, before anything runs;
4. execute aggregates that are answered from block statistics alone
   (``ScanMetrics.rows_decoded == 0``);
5. group by the dictionary-encoded tag in code space (one dictionary
   entry read per distinct group);
6. project qualifying rows with a limit that is pushed below the
   materialisation.

Run with::

    python examples/lazy_query.py [n_rows]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import TableCompressor
from repro.dtypes import INT64, STRING
from repro.query import Between, Count, Eq, Max, Min, Sum
from repro.storage import Table


def main(n_rows: int = 200_000) -> None:
    # 1. A sorted relation: ship dates ascending (so zone maps prune), an
    #    unsorted fare column, and a low-cardinality tag.
    rng = np.random.default_rng(7)
    tags = [f"tag_{i:02d}" for i in range(16)]
    table = Table.from_columns([
        ("ship", INT64, np.arange(n_rows, dtype=np.int64) + 8_000),
        ("fare", INT64, rng.integers(100, 10_000, n_rows)),
        ("tag", STRING, [tags[i] for i in rng.integers(0, len(tags), n_rows)]),
    ])
    relation = TableCompressor(block_size=max(1, n_rows // 16)).compress(table)
    print(
        f"compressed {relation.n_rows:,} rows into {relation.n_blocks} blocks "
        f"(tag encoded as {relation.block(0).encoding_of('tag')})"
    )

    # 2. + 3. Compose lazily, then explain without executing.
    one_block = relation.block_size
    query = (
        relation.query()
        .where(Between("ship", 8_000, 8_000 + one_block - 1))
        .agg(n=Count(), total=Sum("fare"), lo=Min("fare"), hi=Max("fare"))
    )
    print("\n" + query.explain())

    # 4. Execute: every touched block is fully covered, so all four
    #    aggregates come from per-block statistics — zero rows decoded.
    result = query.execute()
    print(
        f"\nn={result.scalar('n'):,} total={result.scalar('total'):,} "
        f"lo={result.scalar('lo')} hi={result.scalar('hi')}"
    )
    metrics = result.metrics
    print(
        f"rows decoded: {metrics.rows_decoded}, gathered: {metrics.rows_gathered} "
        f"(blocks: {metrics.blocks_pruned} pruned, {metrics.blocks_full} full, "
        f"{metrics.blocks_scanned} scanned)"
    )

    # 5. Group-by on the dictionary column groups in code space: the rows
    #    group by their packed codes and each group reads its tag once.
    grouped = relation.query().group_by("tag").agg(n=Count(), avg_base=Sum("fare")).execute()
    print(
        f"\ngroup-by tag: {grouped.n_rows} groups, "
        f"{grouped.metrics.rows_kernel_aggregated:,} of {relation.n_rows:,} rows "
        f"grouped by dictionary code"
    )
    for i in range(min(3, grouped.n_rows)):
        print(
            f"  {grouped.column('tag')[i]}: n={grouped.column('n')[i]:,} "
            f"sum={grouped.column('avg_base')[i]:,}"
        )

    # 6. Projection + limit: the row-id stream is truncated before any value
    #    is materialised, and only the selected columns are ever decoded.
    top = (
        relation.query()
        .where(Eq("tag", "tag_03") & Between("ship", 8_500, None))
        .select("ship", "fare")
        .limit(5)
        .execute()
    )
    print(f"\nfirst {top.n_rows} qualifying rows (ship, fare):")
    for ship, fare in zip(top.column("ship"), top.column("fare")):
        print(f"  {ship}  {fare}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)
