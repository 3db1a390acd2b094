#!/usr/bin/env python3
"""Hierarchical encoding on the DMV dataset (paper §2.2, Fig. 3).

The pair (``city``, ``zip_code``) is the paper's running example: zip codes
span the whole US range, but a single city only uses a handful, so storing a
per-city local index shrinks the column by half.  This example also shows the
(state, city) pair where the hierarchy barely helps — matching the paper's
observation that the string dictionary dominates that column.

Run with::

    python examples/dmv_hierarchical.py [n_rows]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    CompressionPlan,
    DmvGenerator,
    HierarchicalEncoding,
    SingleColumnBaseline,
    TableCompressor,
)
from repro.query import Eq


def main(n_rows: int = 200_000) -> None:
    table = DmvGenerator().generate_pair_only(n_rows)
    baseline = SingleColumnBaseline().report(table)

    print(f"DMV sample: {table.n_rows:,} registrations")
    print(f"  distinct cities: {len(set(table.column('city'))):,}")
    print(f"  distinct zip codes: {len(np.unique(table.column('zip_code'))):,}")

    # Stand-alone encoding of the two hierarchical pairs, as in Table 2.
    hierarchical = HierarchicalEncoding()
    for target, reference, paper_rate in (
        ("zip_code", "city", 0.537),
        ("city", "state", 0.018),
    ):
        encoded = hierarchical.encode(
            table.column(target), table.column(reference), reference
        )
        stats = encoded.stats()
        saving = 1 - encoded.size_bytes / baseline.size_of(target)
        print(
            f"\n({reference} -> {target}): {baseline.size_of(target):,} bytes baseline, "
            f"{encoded.size_bytes:,} bytes hierarchical "
            f"({saving:.1%} saving; paper: {paper_rate:.1%})"
        )
        print(
            f"  {stats.n_groups:,} groups, max fan-out {stats.max_group_fanout}, "
            f"{stats.code_bit_width} bits per row for the local code"
        )

    # Full pipeline: compress the table with the zip_code hierarchy and query it.
    plan = (
        CompressionPlan.builder(table.schema)
        .hierarchical_encode("zip_code", reference="city")
        .build()
    )
    relation = TableCompressor(plan).compress(table)

    big_city = table.column("city")[0]
    result = relation.query().where(Eq("city", big_city)).select("zip_code").execute()
    zips = np.unique(np.asarray(result.columns["zip_code"]))
    print(
        f"\nSELECT zip_code WHERE city = {big_city!r}: {result.n_rows:,} rows, "
        f"{zips.size} distinct zip codes"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)
