"""Unit tests for automatic multi-reference rule mining (future-work extension)."""

import gc

import numpy as np
import pytest

from repro.core import (
    MultiReferenceEncoding,
    discover_groups,
    mine_multi_reference_config,
    mine_rules,
)
from repro.datasets import TaxiGenerator, taxi_multi_reference_config
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def taxi_monetary():
    return TaxiGenerator().generate_monetary_only(20_000, seed=19)


@pytest.fixture
def synthetic_rule_data(rng):
    """Target = a + b (+ c on 40 % of rows), with d as an irrelevant column."""
    n = 5_000
    a = rng.integers(0, 500, size=n, dtype=np.int64)
    b = rng.integers(0, 500, size=n, dtype=np.int64)
    c = rng.integers(1, 100, size=n, dtype=np.int64)
    d = rng.integers(0, 1_000, size=n, dtype=np.int64)
    include_c = rng.random(n) < 0.4
    target = a + b + np.where(include_c, c, 0)
    return target, {"a": a, "b": b, "c": c, "d": d}


class TestDiscoverGroups:
    def test_base_group_found(self, synthetic_rule_data):
        target, candidates = synthetic_rule_data
        groups = discover_groups(target, {k: candidates[k] for k in ("a", "b", "c")})
        assert set(groups["A"]) == {"a", "b"}
        optional = {cols[0] for name, cols in groups.items() if name != "A"}
        assert optional == {"c"}

    def test_taxi_groups_match_paper(self, taxi_monetary):
        config = taxi_multi_reference_config()
        candidates = {
            name: taxi_monetary.column(name) for name in config.reference_columns
        }
        groups = discover_groups(taxi_monetary.column("total_amount"), candidates)
        assert set(groups["A"]) == set(config.groups[0].columns)
        optional_columns = {
            cols[0] for name, cols in groups.items() if name != "A"
        }
        assert optional_columns == {"congestion_surcharge", "airport_fee"}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            discover_groups(np.arange(5), {"a": np.arange(4)})

    def test_no_candidates_rejected(self):
        with pytest.raises(ValidationError):
            discover_groups(np.arange(5), {})


class TestMineRules:
    def test_recovers_planted_rules(self, synthetic_rule_data):
        target, candidates = synthetic_rule_data
        result = mine_rules(target, {k: candidates[k] for k in ("a", "b", "c")})
        labels = {rule.label for rule in result.rules}
        assert labels == {"A", "A + B"}
        assert result.outlier_fraction == pytest.approx(0.0, abs=1e-9)

    def test_irrelevant_column_does_not_break_mining(self, synthetic_rule_data):
        target, candidates = synthetic_rule_data
        result = mine_rules(target, candidates)
        assert result.outlier_fraction < 0.01

    def test_rule_budget_respected(self, taxi_monetary):
        candidates = {
            name: taxi_monetary.column(name)
            for name in taxi_multi_reference_config().reference_columns
        }
        result = mine_rules(
            taxi_monetary.column("total_amount"), candidates, max_rules=2
        )
        assert len(result.rules) <= 2

    def test_invalid_parameters(self, synthetic_rule_data):
        target, candidates = synthetic_rule_data
        with pytest.raises(ValidationError):
            mine_rules(target, candidates, max_rules=0)
        with pytest.raises(ValidationError):
            mine_rules(target, candidates, outlier_budget=1.5)

    def test_describe_mentions_rules(self, synthetic_rule_data):
        target, candidates = synthetic_rule_data
        result = mine_rules(target, {k: candidates[k] for k in ("a", "b", "c")})
        text = result.describe()
        assert "group A" in text
        assert "outliers" in text

    def test_mining_leaves_no_reference_cycles(self, taxi_monetary):
        # A cycle would hold every candidate rule's match vector until the
        # cyclic collector happens to run, so memory grows with each call.
        candidates = {
            name: taxi_monetary.column(name)
            for name in taxi_monetary.column_names
            if name != "total_amount"
        }
        gc.collect()
        gc.disable()
        try:
            mine_rules(taxi_monetary.column("total_amount"), candidates)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMinedConfigEndToEnd:
    def test_taxi_mined_config_matches_paper_rules(self, taxi_monetary):
        config, result = mine_multi_reference_config(
            taxi_monetary, "total_amount",
            candidates=list(taxi_multi_reference_config().reference_columns),
        )
        labels = {rule.label for rule in config.rules}
        assert labels == {"A", "A + B", "A + C", "A + B + C"}
        assert result.outlier_fraction == pytest.approx(0.0032, abs=0.003)

    def test_mined_config_compresses_like_hand_written(self, taxi_monetary):
        hand_written = taxi_multi_reference_config()
        mined, _ = mine_multi_reference_config(
            taxi_monetary, "total_amount",
            candidates=list(hand_written.reference_columns),
        )
        references = {
            name: taxi_monetary.column(name) for name in hand_written.reference_columns
        }
        target = taxi_monetary.column("total_amount")
        hand_size = MultiReferenceEncoding(hand_written).encode(target, references).size_bytes
        mined_references = {
            name: taxi_monetary.column(name) for name in mined.reference_columns
        }
        mined_size = MultiReferenceEncoding(mined).encode(target, mined_references).size_bytes
        assert mined_size == pytest.approx(hand_size, rel=0.02)

    def test_mined_config_roundtrips(self, taxi_monetary):
        mined, _ = mine_multi_reference_config(taxi_monetary, "total_amount")
        references = {
            name: taxi_monetary.column(name) for name in mined.reference_columns
        }
        target = taxi_monetary.column("total_amount")
        column = MultiReferenceEncoding(mined).encode(target, references)
        assert np.array_equal(column.decode_with_reference(references), target)

    def test_unknown_target_rejected(self, taxi_monetary):
        with pytest.raises(ValidationError):
            mine_multi_reference_config(taxi_monetary, "nope")

    def test_unexplainable_target_rejected(self, rng):
        from repro.dtypes import INT64
        from repro.storage import Table

        table = Table.from_columns(
            [
                ("x", INT64, rng.integers(0, 10**9, size=500, dtype=np.int64)),
                ("y", INT64, rng.integers(0, 10, size=500, dtype=np.int64)),
            ]
        )
        with pytest.raises(ValidationError):
            mine_multi_reference_config(table, "x", candidates=["y"])
