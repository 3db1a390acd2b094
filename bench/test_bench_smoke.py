"""Tier-1 smoke test of the benchmark of record (a few seconds).

Runs every workload at ~2,000 rows for a handful of ops, untraced and
traced, and the layer ladder once, then holds the output against
``BENCHMARK.json``: every metric it names must appear with its unit, names
and counts must stay inside the contract's limits, and no op may fail.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import layers, metrics, run, workloads

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_matches_the_metric_tables():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]


def test_manifest_stays_inside_the_contract():
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("higher", "lower")
    assert all(0 < row["bound"] <= 0.25 for row in MANIFEST["end_to_end"])
    assert any(
        row["name"] == "setup_s" and row["unit"] == "s" and row["better"] == "lower"
        for row in MANIFEST["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert set(metrics.PAPER) <= set(metrics.per_layer_names())


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench") / "run"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_end_to_end_and_traced(name, out_dir, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    detail = run.end_to_end_pass(name, 7, 0.02, workloads.SMOKE, out_dir)
    line = run.result_line(detail, traced=False, label=name)
    assert line["failed"] == 0 and line["correct"] and line["attempted"] >= 1, detail["errors"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(v["value"] > 0 for v in line["metrics"].values()), line["metrics"]
    printed = capsys.readouterr().out
    assert all(m["name"] in printed for m in MANIFEST["end_to_end"])

    traced = run.trace_workload(name, 7, 0.02, workloads.SMOKE, out_dir)
    assert traced["failed"] == 0, traced["errors"]
    assert traced["samples"]["spans"] > traced["samples"]["ops_traced"] > 0
    assert 0.0 <= traced["metrics"]["bench.unattributed_frac"] <= 1.0
    assert (out_dir.parent / f"trace.{name}.jsonl").is_file()


def test_ladder_reports_every_per_layer_metric(out_dir):
    ladder = layers.Ladder(7, workloads.SMOKE, out_dir)
    values = ladder.run()
    assert ladder.unavailable == {}
    expected = {m["name"] for m in MANIFEST["per_layer"]} - {
        "bench.tracing_overhead_frac", "bench.unattributed_frac",
    }  # fmt: skip
    assert set(values) == expected
    assert all(isinstance(value, float) for value in values.values())


def test_ladder_survives_a_vanished_function(out_dir, monkeypatch):
    """API drift: a missing layer function nulls its metric, nothing else."""
    import repro.core.correlation as correlation

    monkeypatch.delattr(correlation, "hierarchy_score")
    ladder = layers.Ladder(7, workloads.SMOKE, out_dir)
    ladder.plan = workloads.PlanSearch(7, workloads.SMOKE, out_dir)
    ladder.load = workloads.BulkLoad(7, workloads.SMOKE, out_dir)
    ladder.plan.setup()
    ladder.load.setup()
    ladder.lineitem, ladder.dmv = ladder.load.tables["lineitem"], ladder.load.tables["dmv"]
    ladder._core_choosing()
    assert ladder.values["core.correlation.hierarchy_score_ms"] is None
    assert "core.correlation.hierarchy_score_ms" in ladder.unavailable
    assert ladder.values["core.correlation.bounded_difference_score_ms"] > 0
    line = run.result_line({"metrics": ladder.values, "failed": 0, "attempted": 1}, traced=True)
    assert line["metrics"]["core.correlation.hierarchy_score_ms"]["value"] == 0.0
