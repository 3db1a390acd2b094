"""Runner of the benchmark of record.

Two ways in:

* **One pass of one workload** -- what the driver runs::

      python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

  ``--trace 0`` sets the workload up (several times; the median is
  ``setup_s``), measures its ops for ``S`` seconds with tracing off and
  prints the end-to-end metrics.  ``--trace 1`` runs the same ops with
  spans around the outside calls, writes ``bench/out/trace.<W>.jsonl``,
  then runs the layer ladder and prints the per-layer metrics.  Either way
  the last line of standard output is one JSON object with the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``.

* **A full record** -- every workload, both passes, each in its own child
  process, one after another::

      python3 bench/run.py [--seed N] [--workload W] [--out FILE]
      python3 bench/run.py --repeat-check

  The record carries the environment (commit, cores, CPU, versions, load
  average), every metric by name with its unit, sample counts, the share of
  op time each layer holds in the traced pass, the paper's values and the
  probes that found no function to call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _bootstrap() -> None:
    """Make ``bench`` and ``repro`` importable from a bare checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    # The script's own directory would shadow stdlib modules (trace).
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH]
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- summarising one pass --------------------------------------------------------------


def faster_half(values: list[float], reverse: bool = False) -> list[int]:
    """Indices of the better half of ``values`` (smallest, or largest if ``reverse``).

    The sandbox's speed drifts and dips for seconds at a time when a
    neighbour is busy.  Whatever part of a pass that touches is dropped: every
    timing is a median over the better half of its repeats, on both sides of
    any comparison alike.
    """
    order = sorted(range(len(values)), key=values.__getitem__, reverse=reverse)
    return order[: (len(values) + 1) // 2]


def undisturbed(m: Any) -> tuple[float, list[int]]:
    """Ops per second of a pass, and the ops inside its undisturbed windows.

    The pass comes cut into windows that hold the same op mix (whole cycles
    of the serial loop; equal slices of time across the concurrent clients).
    The faster half of the windows is kept and the rate is their median.
    """
    rates = [len(ops) / seconds if seconds > 0.0 else 0.0 for seconds, ops in m.windows]
    fast = faster_half(rates, reverse=True)
    kept = [i for w in fast for i in m.windows[w][1]]
    return statistics.median(rates[w] for w in fast), kept


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mix_percentile(m: Any, kept: list[int], q: float) -> float:
    """The ``q`` quantile of op latency per op kind, averaged over the mix.

    Every workload mixes op kinds whose latencies differ by up to 100x, so a
    quantile of the pooled samples sits on the boundary between two kinds and
    jumps with the data.  The per-kind quantile, weighted by each kind's
    share of the ops, moves only when some kind's latency moves.
    """
    by_kind: dict[str, list[float]] = {}
    for i in kept:
        by_kind.setdefault(m.kinds[i], []).append(m.durations[i])
    return sum(percentile(v, q) * len(v) for v in by_kind.values()) / len(kept)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of a server it started and reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end_pass(name: str, seed: int, seconds: float, scale: Any, out_dir: Path) -> dict:
    from bench import workloads

    setups = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
            workload = workloads.WORKLOADS[name](seed, scale, out_dir)
            started = time.perf_counter()
            workload.setup()
            # Lazy initialisation belongs to set-up: one unchecked warm-up
            # cycle runs before the clock of the first timed op starts.
            warmup = workload.measure(cycles=1, check=False)
            setups.append(time.perf_counter() - started)
        m = workload.measure(seconds=seconds)
        sizes = workload.sizes()
    finally:
        if workload is not None:
            workload.teardown()
    rate, kept = undisturbed(m)
    metrics = {
        "setup_s": statistics.median(setups[i] for i in faster_half(setups)),
        "ops_per_s": rate,
        "rows_per_s": rate * m.rows / max(m.attempted, 1),
        "op_p50_ms": mix_percentile(m, kept, 0.50) * 1e3,
        "op_p90_ms": mix_percentile(m, kept, 0.90) * 1e3,
        "stored_bytes_per_raw_byte": sizes.stored / sizes.raw,
        "saving_vs_single_column": 1.0 - sizes.corra / sizes.single_column,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "attempted": m.attempted + warmup.attempted,
        "failed": m.failed + warmup.failed,
        "errors": m.errors + warmup.errors,
        "samples": {
            "ops": m.attempted,
            "ops_in_undisturbed_windows": len(kept),
            "cycles": m.cycles,
            "ops_per_kind": {kind: m.kinds.count(kind) for kind in sorted(set(m.kinds))},
        },
        "timed_seconds": sum(m.durations),
    }


def trace_workload(name: str, seed: int, seconds: float, scale: Any, out_dir: Path) -> dict:
    """The workload's own ops, spans off then on; writes the span file."""
    from bench import trace, workloads

    recorder = trace.SpanRecorder()
    workload = workloads.WORKLOADS[name](seed, scale, out_dir)
    try:
        workload.setup()
        workload.measure(cycles=1, check=False)
        # Same ops, spans off then on: the difference is what tracing costs.
        plain = workload.measure(seconds=seconds / 4)
        traced = workload.measure(seconds=seconds / 4, rec=recorder)
    finally:
        workload.teardown()
    recorder.write(out_dir.parent / f"trace.{name}.jsonl")
    return {
        "metrics": {
            "bench.tracing_overhead_frac": 1.0 - undisturbed(traced)[0] / undisturbed(plain)[0],
            "bench.unattributed_frac": recorder.unattributed_fraction(),
        },
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": plain.errors + traced.errors,
        "samples": {"ops_traced": traced.attempted, "spans": len(recorder.spans)},
        "self_time_by_layer": recorder.self_time_by_layer(),
        "self_time_by_module": recorder.self_time_by_layer(depth=1),
    }


def traced_pass(name: str, seed: int, seconds: float, scale: Any, out_dir: Path) -> dict:
    """The workload's traced ops, then the layer ladder on its own small fixture."""
    from bench import layers, metrics, workloads

    detail = trace_workload(name, seed, seconds, scale, out_dir)
    probe = workloads.SMOKE if scale is workloads.SMOKE else workloads.PROBE
    ladder = layers.Ladder(seed, probe, out_dir)
    detail["metrics"].update(ladder.run())
    detail["layers_unavailable"] = ladder.unavailable
    detail["paper"] = metrics.PAPER
    return detail


def result_line(detail: dict, traced: bool, label: str = "") -> dict:
    """Print every metric by name with its unit; return the driver's result object."""
    from bench import metrics

    line = {}
    for name, unit, *_ in metrics.PER_LAYER if traced else metrics.END_TO_END:
        value = detail["metrics"].get(name)
        shown = "unavailable" if value is None else f"{value:.6g}"
        print(f"{label:12s} {name:48s} {shown:>14s} {unit}")
        # The result line holds numbers only: a probe that found nothing to
        # call reads 0 there and is named in the detail's layers_unavailable.
        line[name] = {"value": 0.0 if value is None else value, "unit": unit}
    return {
        "correct": detail["failed"] == 0,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": line,
    }


def run_pass(args: argparse.Namespace) -> int:
    """Driver mode: one pass of one workload; the result is the last line."""
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    out_dir = BENCH / "out" / f"run-{os.getpid()}"
    try:
        run = traced_pass if args.trace else end_to_end_pass
        detail = run(args.workload, args.seed, args.seconds, scale, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = result_line(detail, bool(args.trace), args.workload)
    for error in detail["errors"]:
        print(f"failed op: {error}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0


# -- a full record ------------------------------------------------------------------------


def environment(seed: int, seconds: float) -> dict:
    import numpy

    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "loadavg_start": os.getloadavg()[0],
        "os_page_cache": "warm: latencies are this sandbox's, not a storage device's",
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One pass in its own process, so peak RSS and caches are the workload's own."""
    out = BENCH / "out"
    out.mkdir(parents=True, exist_ok=True)
    detail = out / f"detail.{workload}.{trace}.{os.getpid()}.json"
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    try:
        return json.loads(detail.read_text())
    finally:
        detail.unlink(missing_ok=True)


def run_set(names: list[str], seed: int, seconds: float, smoke: bool) -> dict:
    record = {"environment": environment(seed, seconds), "workloads": {}}
    for name in names:
        untraced = run_child(name, seed, seconds, 0, smoke)
        traced = run_child(name, seed, seconds, 1, smoke)
        record["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failed_frac": (untraced["failed"] + traced["failed"])
            / max(untraced["attempted"] + traced["attempted"], 1),
            "errors": untraced["errors"] + traced["errors"],
            "samples": untraced["samples"] | traced["samples"],
            "self_time_by_layer": traced["self_time_by_layer"],
            "self_time_by_module": traced["self_time_by_module"],
            "layers_unavailable": traced["layers_unavailable"],
            "paper": traced["paper"],
        }
    env = record["environment"]
    env["loadavg_end"] = os.getloadavg()[0]
    env["noisy"] = max(env["loadavg_start"], env["loadavg_end"]) > (env["nproc"] or 1)
    return record


def repeat_check(first: dict, second: dict) -> list[str]:
    """End-to-end metrics of two sets of the same code that differ beyond their bound."""
    from bench import metrics

    out = []
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        if a["failed"] or b["failed"]:
            out.append(f"{workload}: failed ops {a['failed']} / {b['failed']}")
        for name, _, _, bound in metrics.END_TO_END:
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            if abs(x - y) > bound * min(abs(x), abs(y)):
                out.append(f"{workload} {name}: {x:.6g} vs {y:.6g} differ by more than {bound:.0%}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=str(BENCH / "out" / "BENCH.json"))
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny fixtures (the tier-1 test)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_pass(args)

    from bench import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    record = run_set(names, args.seed, args.seconds, args.smoke)
    problems = [
        f"{name}: {entry['failed']} failed ops" for name, entry in record["workloads"].items()
        if entry["failed"]
    ]  # fmt: skip
    if args.repeat_check:
        second = run_set(names, args.seed, args.seconds, args.smoke)
        record["repeat"] = second
        problems += repeat_check(record, second)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record written to {args.out}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
