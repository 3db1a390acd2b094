#!/usr/bin/env python3
"""Query tracing: timed spans, EXPLAIN ANALYZE and Prometheus exposition.

This walks through the observability subsystem (:mod:`repro.query.tracing`):

1. compress a relation whose predicate column is FOR-bit-packed, persist it
   and open it through a shared :class:`Engine` — the traced query below
   runs out-of-core, so the trace covers the storage layer too;
2. run the same aggregate twice: untraced (the default — every
   instrumented site costs one no-op ``with`` on a shared null span) and
   traced with ``engine.tracer()``, asserting the results are identical;
3. print ``explain(analyze=True)``: the logical plan, the zone-map block
   classification, per-stage wall-time/row/byte totals reconciled against
   ``ScanMetrics``, and the span tree itself;
4. serialize the trace as one JSON line — the shape ``corra query
   --trace out.jsonl`` appends and the query service attaches to
   responses that ask for ``"trace": true``;
5. render the engine's per-stage latency histograms the way
   ``/metrics?format=prometheus`` exposes them (fixed powers-of-two
   buckets, so scrapes from any process merge without realignment).

Run with::

    python examples/traced_query.py [n_rows]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64
from repro.query import Between, Count, EngineConfig, Sum
from repro.query.engine import Engine
from repro.query.tracing import QueryTrace
from repro.server.metrics import prometheus_exposition
from repro.storage import Catalog, Table


def main(n_rows: int = 200_000) -> None:
    # 1. A FOR-bit-packed relation on disk: the predicate below evaluates
    #    in the compressed domain, and the trace records which kernel ran.
    rng = np.random.default_rng(11)
    run_length = 64
    n_runs = -(-n_rows // run_length)
    table = Table.from_columns([
        ("grade", INT64, np.repeat(np.arange(n_runs, dtype=np.int64) % 50, run_length)[:n_rows]),
        ("word", INT64, rng.integers(0, 65_536, n_rows)),
    ])
    plan = (
        CompressionPlan.builder(table.schema)
        .vertical("grade", "for_bitpack")
        .vertical("word", "for_bitpack")
        .build()
    )
    relation = TableCompressor(plan, block_size=max(1, n_rows // 16)).compress(table)
    root = Path(tempfile.mkdtemp(prefix="corra-example-")) / "catalog"
    Catalog(root).save("grades", relation)

    with Engine(EngineConfig(workers=4), catalog=root) as engine:
        lazy = (
            engine.query(engine.table("grades"))
            .where(Between("grade", 10, 30))
            .agg(n=Count(), s=Sum("word"))
        )

        # 2. Tracing is observation only: same query, same answer.
        untraced = lazy.execute()
        tracer = engine.tracer()
        traced = lazy.execute(tracer=tracer)
        assert traced.scalar("n") == untraced.scalar("n")
        assert traced.scalar("s") == untraced.scalar("s")
        print(
            f"traced and untraced agree: n={traced.scalar('n'):,} "
            f"s={traced.scalar('s'):,}"
        )

        # 3. EXPLAIN ANALYZE: plan, block classification, per-stage totals
        #    and the span tree, all from one traced execution.
        print()
        print(lazy.explain(analyze=True))

        # 4. The same trace as one JSON line (what `corra query --trace`
        #    appends and the service attaches under "trace").
        trace = QueryTrace.from_tracer(tracer, query="grades")
        line = trace.to_json_line()
        decoded = json.loads(line)
        print(
            f"trace JSON line: {len(line):,} bytes, {decoded['n_spans']} spans, "
            f"stages {sorted({span['name'] for span in decoded['spans']})}"
        )

        # 5. Per-stage latency histograms, Prometheus-style.  `engine.tracer()`
        #    wires every trace into `engine.stage_latency`; the server's
        #    /metrics?format=prometheus serves exactly this exposition.
        print()
        snapshot = {"stages": engine.stage_latency.snapshot()}
        text = prometheus_exposition(snapshot, stages=snapshot["stages"])
        histogram_lines = [
            ln for ln in text.splitlines() if "stage_duration" in ln and "#" not in ln
        ]
        print(f"prometheus exposition: {len(histogram_lines)} histogram samples, e.g.")
        for ln in histogram_lines[:4]:
            print(f"  {ln}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)
