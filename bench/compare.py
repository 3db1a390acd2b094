"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change.  Each side may be
several record files joined by commas; a record written by
``run.py --repeat-check`` already holds two sets.  One row is printed per
(workload, end-to-end metric): both medians, the ratio B/A with its base
named, the spread of each side and a verdict:

* ``unresolved`` -- a side's own run-to-run spread is wider than the
  metric's bound, so the pair cannot tell a change from noise;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``same`` / ``better`` otherwise.

``--per-layer`` adds the per-layer metrics (they have no bound: the row
shows medians and ratio only).  The exit code is 1 when any row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load_sets(argument: str) -> list[dict]:
    """Every measured set a side holds (``repeat`` records hold two)."""
    sets = []
    for name in argument.split(","):
        record = json.loads(Path(name).read_text())
        sets.append(record["workloads"])
        if "repeat" in record:
            sets.append(record["repeat"]["workloads"])
    return sets


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: quartile distance, or the
    whole range when there are too few values for quartiles."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def values_of(sets: list[dict], workload: str, kind: str, metric: str) -> list[float]:
    out = []
    for workloads in sets:
        value = workloads.get(workload, {}).get(kind, {}).get(metric)
        if value is not None:
            out.append(float(value))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="record(s) of the parent commit, comma-separated")
    parser.add_argument("change", help="record(s) of the change, comma-separated")
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args(argv)

    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    base, change = load_sets(args.base), load_sets(args.change)
    kinds = [("end_to_end", manifest["end_to_end"])]
    if args.per_layer:
        kinds.append(("per_layer", manifest["per_layer"]))

    print(
        f"{'workload':12s} {'metric':46s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A (base A)':>13s} {'A spread':>9s} {'B spread':>9s}  verdict"
    )
    worse = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        for kind, rows in kinds:
            for row in rows:
                a = values_of(base, workload, kind, row["name"])
                b = values_of(change, workload, kind, row["name"])
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                ratio = mb / ma if ma else float("nan")
                bound = row.get("bound")
                if bound is None:
                    verdict = "-"
                elif max(spread(a), spread(b)) > bound:
                    verdict = "unresolved"
                else:
                    delta = (mb - ma) / abs(ma) if ma else 0.0
                    if row["better"] == "higher":
                        delta = -delta
                    verdict = "worse" if delta > bound else "better" if delta < -bound else "same"
                    worse += verdict == "worse"
                print(
                    f"{workload:12s} {row['name']:46s} {ma:12.6g} {mb:12.6g} {ratio:13.4f} "
                    f"{spread(a):9.2%} {spread(b):9.2%}  {verdict}"
                )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
