"""The detector's and the rule miner's decisions, pinned to a recorded snapshot.

``tests/data/detector_golden.json`` holds every field, in order, of
``CorrelationDetector().suggest(...)`` for the four generators at seeds 1-3
(2,000 rows each, plus taxi at 20,000 rows), and the groups and rules that
``mine_multi_reference_config(taxi 20,000, "total_amount")`` mines at the
same seeds.  The snapshot was captured before the detector scored pairs from
per-column codes (commit fc63325); a faster detector must reproduce it
exactly.  Regenerate it only for an intended change of decision::

    PYTHONPATH=src python tests/test_detector_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import CorrelationDetector
from repro.core.rule_mining import mine_multi_reference_config
from repro.datasets import DmvGenerator, LdbcMessageGenerator, TaxiGenerator, TpchLineitemGenerator

GOLDEN = Path(__file__).parent / "data" / "detector_golden.json"

GENERATORS = {
    "tpch": TpchLineitemGenerator,
    "taxi": TaxiGenerator,
    "dmv": DmvGenerator,
    "ldbc": LdbcMessageGenerator,
}
SEEDS = (1, 2, 3)
ROWS = 2_000
LARGE_TAXI_ROWS = 20_000

SUGGEST_CASES = [(label, seed, ROWS) for label in GENERATORS for seed in SEEDS]
SUGGEST_CASES.append(("taxi", 1, LARGE_TAXI_ROWS))


def suggest_record(label: str, seed: int, rows: int) -> list[list]:
    table = GENERATORS[label]().generate(rows, seed=seed)
    return [
        [
            s.kind,
            s.target,
            list(s.references),
            s.estimated_saving_bytes,
            s.estimated_saving_rate,
            s.detail,
        ]
        for s in CorrelationDetector().suggest(table)
    ]


def mine_record(seed: int) -> dict:
    table = TaxiGenerator().generate(LARGE_TAXI_ROWS, seed=seed)
    _, result = mine_multi_reference_config(table, "total_amount")
    return {
        "groups": {name: list(columns) for name, columns in result.groups.items()},
        "rules": [
            [list(rule.groups), rule.coverage, rule.marginal_coverage] for rule in result.rules
        ],
        "outlier_fraction": result.outlier_fraction,
    }


def snapshot() -> dict:
    return {
        "suggest": {
            f"{label}/{seed}/{rows}": suggest_record(label, seed, rows)
            for label, seed, rows in SUGGEST_CASES
        },
        "mine": {str(seed): mine_record(seed) for seed in SEEDS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label,seed,rows", SUGGEST_CASES)
def test_suggest_matches_snapshot(golden, label, seed, rows):
    assert suggest_record(label, seed, rows) == golden["suggest"][f"{label}/{seed}/{rows}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_mined_rules_match_snapshot(golden, seed):
    assert mine_record(seed) == golden["mine"][str(seed)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
