"""Unit tests for the predicate IR, block statistics, and the scan planner."""

import numpy as np
import pytest

import oracle
from repro.core import CompressionPlan, TableCompressor
from repro.datasets import TpchLineitemGenerator
from repro.dtypes import DATE, INT64, STRING
from repro.errors import UnknownColumnError, ValidationError
from repro.query import (
    And,
    Between,
    BlockDecision,
    Eq,
    In,
    Or,
    ScanPlanner,
    evaluate_block_predicate,
)
from repro.storage import BlockStatistics, ColumnStatistics, Table


NAN = float("nan")


def _stats(**columns):
    return BlockStatistics({name: stats for name, stats in columns.items()})


def _int_stats(lo, hi, n=100, exact=True, distinct=None):
    return ColumnStatistics(
        row_count=n, min_value=lo, max_value=hi,
        distinct_count=distinct, exact_bounds=exact,
    )


class TestColumnStatistics:
    def test_from_values_int(self):
        stats = ColumnStatistics.from_values(np.array([5, 1, 9, 1], dtype=np.int64))
        assert (stats.min_value, stats.max_value) == (1, 9)
        assert stats.row_count == 4
        assert stats.distinct_count == 3
        assert stats.exact_bounds

    def test_from_values_strings(self):
        stats = ColumnStatistics.from_values(["b", "a", "c", "a"])
        assert (stats.min_value, stats.max_value) == ("a", "c")
        assert stats.distinct_count == 3

    def test_from_values_empty(self):
        stats = ColumnStatistics.from_values(np.zeros(0, dtype=np.int64))
        assert stats.row_count == 0
        assert not stats.may_contain(1)
        assert not stats.overlaps(0, 10)

    def test_derived_bounds_are_conservative_and_inexact(self):
        reference = _int_stats(100, 200)
        derived = ColumnStatistics.from_reference_and_deltas(reference, 1, 30, 100)
        assert (derived.min_value, derived.max_value) == (101, 230)
        assert (derived.delta_min, derived.delta_max) == (1, 30)
        assert not derived.exact_bounds
        # A superset of the true range inside [low, high] puts every row there.
        assert derived.contained_in(0, 1_000)
        assert derived.contained_in(101, 230)
        assert not derived.contained_in(102, 230)
        assert not derived.is_constant(150)
        assert not derived.is_constant(101)
        # ... but the bounds are not the block's min/max.
        assert derived.aggregate_value("min") is None
        assert derived.aggregate_value("max") is None

    def test_derived_point_bounds_prove_constant(self):
        derived = ColumnStatistics.from_reference_and_deltas(_int_stats(7, 7), 3, 3, 10)
        assert derived.is_constant(10)
        assert not derived.is_constant(11)

    def test_derived_bounds_that_leave_int64_cover_all_of_it(self):
        # ``reference + difference`` wrapped for some row, which may then hold
        # any int64: the derived range must not claim anything narrower.
        top = (1 << 63) - 1
        derived = ColumnStatistics.from_reference_and_deltas(_int_stats(top - 5, top), 0, 10, 10)
        assert (derived.min_value, derived.max_value) == (-(1 << 63), top)
        assert derived.may_contain(-(1 << 63))
        assert not derived.contained_in(0, None)

    def test_derived_bounds_widened_by_outliers(self):
        reference = _int_stats(100, 200)
        derived = ColumnStatistics.from_reference_and_deltas(
            reference, 0, 5, 100, outlier_values=np.array([7, 9_000])
        )
        assert derived.min_value == 7
        assert derived.max_value == 9_000

    def test_mixed_type_comparison_does_not_prune(self):
        stats = ColumnStatistics.from_values(["a", "z"])
        assert stats.may_contain(42)
        assert stats.overlaps(0, 100)
        assert not stats.contained_in(0, 100)


class TestPredicateEvaluation:
    VALUES = {"x": np.array([1, 5, 9, 5], dtype=np.int64), "s": ["a", "b", "c", "b"]}

    def test_eq(self):
        assert Eq("x", 5).evaluate(self.VALUES).tolist() == [False, True, False, True]

    def test_eq_incomparable_types_matches_nothing(self):
        assert Eq("s", 5).evaluate(self.VALUES).tolist() == [False] * 4

    def test_between_inclusive_and_open_ended(self):
        assert Between("x", 5, 9).evaluate(self.VALUES).tolist() == [False, True, True, True]
        assert Between("x", low=6).evaluate(self.VALUES).tolist() == [False, False, True, False]
        assert Between("x", high=5).evaluate(self.VALUES).tolist() == [True, True, False, True]

    def test_between_needs_a_bound(self):
        with pytest.raises(ValidationError):
            Between("x")

    def test_in_numeric_uses_isin(self):
        assert In("x", [9, 1]).evaluate(self.VALUES).tolist() == [True, False, True, False]

    def test_in_strings(self):
        assert In("s", ["a", "c"]).evaluate(self.VALUES).tolist() == [True, False, True, False]

    def test_in_rejects_mixed_type_candidates(self):
        with pytest.raises(ValidationError):
            In("x", [1, "NY"])

    def test_between_type_mismatched_bounds_match_nothing(self):
        assert Between("x", "a", "z").evaluate(self.VALUES).tolist() == [False] * 4
        assert Between("s", 0, 5).evaluate(self.VALUES).tolist() == [False] * 4
        assert Between("x", 1, "z").evaluate(self.VALUES).tolist() == [False] * 4

    def test_compound_operators(self):
        pred = Between("x", 2, 9) & In("s", ["b"])
        assert isinstance(pred, And)
        assert pred.evaluate(self.VALUES).tolist() == [False, True, False, True]
        pred = Eq("x", 1) | Eq("s", "c")
        assert isinstance(pred, Or)
        assert pred.evaluate(self.VALUES).tolist() == [True, False, True, False]

    def test_compound_columns_deduplicated(self):
        pred = (Eq("x", 1) & Between("x", 0, 9)) & Eq("s", "a")
        assert pred.columns() == ("x", "s")

    def test_legacy_factories_return_ir_nodes(self):
        assert isinstance(Eq("x", 1), Eq)
        assert isinstance(Between("x", 0, 1), Between)
        assert isinstance(In("x", [1]), In)

    def test_describe(self):
        assert Between("x", 1, 2).describe() == "1 <= x <= 2"
        assert "AND" in (Eq("x", 1) & Eq("x", 2)).describe()


class TestPredicatePruning:
    def test_eq_pruning(self):
        stats = _stats(x=_int_stats(10, 20))
        assert Eq("x", 15).might_match(stats)
        assert not Eq("x", 9).might_match(stats)
        assert not Eq("x", 21).might_match(stats)

    def test_eq_constant_block_matches_all(self):
        stats = _stats(x=_int_stats(7, 7))
        assert Eq("x", 7).matches_all(stats)
        assert not Eq("x", 8).matches_all(stats)

    def test_between_pruning_and_coverage(self):
        stats = _stats(x=_int_stats(10, 20))
        assert Between("x", 15, 30).might_match(stats)
        assert not Between("x", 21, 30).might_match(stats)
        assert not Between("x", 0, 9).might_match(stats)
        assert Between("x", 10, 20).matches_all(stats)
        assert Between("x", 0, 100).matches_all(stats)
        assert not Between("x", 11, 20).matches_all(stats)

    def test_in_pruning(self):
        stats = _stats(x=_int_stats(10, 20))
        assert In("x", [1, 2, 15]).might_match(stats)
        assert not In("x", [1, 2, 30]).might_match(stats)

    def test_and_prunes_if_any_child_prunes(self):
        stats = _stats(x=_int_stats(10, 20), y=_int_stats(0, 5))
        pred = Between("x", 10, 20) & Eq("y", 99)
        assert not pred.might_match(stats)

    def test_or_prunes_only_if_all_children_prune(self):
        stats = _stats(x=_int_stats(10, 20))
        assert (Eq("x", 0) | Eq("x", 15)).might_match(stats)
        assert not (Eq("x", 0) | Eq("x", 99)).might_match(stats)

    def test_missing_statistics_never_prune(self):
        assert Eq("x", 0).might_match(None)
        assert Eq("unknown", 0).might_match(_stats(x=_int_stats(1, 2)))

    def test_inexact_bounds_prune_and_affirm(self):
        stats = _stats(x=_int_stats(10, 20, exact=False))
        assert not Between("x", 30, 40).might_match(stats)
        assert Between("x", 0, 100).matches_all(stats)
        assert not Between("x", 11, 100).matches_all(stats)
        assert Eq("x", 7).matches_all(_stats(x=_int_stats(7, 7, exact=False)))

    @pytest.mark.parametrize(
        "low, high", [(NAN, None), (None, NAN), (NAN, 15), (15, NAN), (NAN, NAN)]
    )
    def test_nan_bound_matches_nothing(self, low, high):
        # NaN is ordered against nothing: ``min < nan`` is False, which used
        # to veto neither overlap nor containment and classified blocks FULL.
        stats = _stats(x=_int_stats(10, 20))
        between = Between("x", low, high)
        assert not between.might_match(stats)
        assert not between.matches_all(stats)
        assert (~between).might_match(stats)
        assert (~between).matches_all(stats)
        assert not between.evaluate({"x": np.arange(10, 21)}).any()


@pytest.fixture
def sorted_relation():
    """A sorted two-column relation in 10 blocks of 100 rows."""
    ship = np.sort(np.repeat(np.arange(100, dtype=np.int64) + 8_000, 10))
    table = Table.from_columns(
        [("ship", DATE, ship), ("receipt", DATE, ship + 7)]
    )
    plan = (
        CompressionPlan.builder(table.schema)
        .diff_encode("receipt", reference="ship")
        .build()
    )
    return table, TableCompressor(plan, block_size=100).compress(table)


class TestScanPlanner:
    def test_no_predicate_plans_full_blocks(self, sorted_relation):
        _, relation = sorted_relation
        plan = ScanPlanner(relation).plan(None)
        assert plan.decisions == (BlockDecision.FULL,) * relation.n_blocks

    def test_selective_between_prunes_non_overlapping_blocks(self, sorted_relation):
        _, relation = sorted_relation
        plan = ScanPlanner(relation).plan(Between("ship", 8_031, 8_038))
        assert plan.count_of(BlockDecision.SCAN) == 1
        assert plan.count_of(BlockDecision.PRUNE) == relation.n_blocks - 1

    def test_covering_between_marks_blocks_full(self, sorted_relation):
        _, relation = sorted_relation
        plan = ScanPlanner(relation).plan(Between("ship", 8_000, 8_099))
        assert plan.count_of(BlockDecision.FULL) == relation.n_blocks

    def test_derived_diff_bounds_prune(self, sorted_relation):
        _, relation = sorted_relation
        plan = ScanPlanner(relation).plan(Between("receipt", 8_031 + 7, 8_038 + 7))
        assert plan.count_of(BlockDecision.PRUNE) >= relation.n_blocks - 2


class TestChainPruning:
    def test_filter_matches_brute_force(self, sorted_relation):
        table, relation = sorted_relation
        ship = table.column("ship")
        for predicate, expected_mask in (
            (Between("ship", 8_031, 8_038), (ship >= 8_031) & (ship <= 8_038)),
            (Eq("ship", 8_050), ship == 8_050),
            (In("ship", [8_001, 8_099]), np.isin(ship, [8_001, 8_099])),
        ):
            expected = np.flatnonzero(expected_mask)
            assert np.array_equal(relation.query().where(predicate).execute().row_ids, expected)
            assert oracle.filter_rows(table, predicate) == expected.tolist()

    def test_metrics_report_pruning(self, sorted_relation):
        _, relation = sorted_relation
        metrics = relation.query().where(Between("ship", 8_031, 8_038)).execute().metrics
        assert metrics.n_blocks == relation.n_blocks
        assert metrics.blocks_scanned == 1
        assert metrics.blocks_pruned == relation.n_blocks - 1
        # The surviving block is answered by the FOR word-space kernel; an
        # empty kernel registry restores the decode accounting.
        assert metrics.rows_decoded == 0
        assert metrics.rows_for_evaluated == 100
        assert metrics.pruned_fraction == pytest.approx(0.9)
        assert "pruned" in metrics.describe()

        with oracle.decode_engine() as decode:
            baseline = decode.query(relation).where(Between("ship", 8_031, 8_038))
            baseline.execute()
        assert baseline.last_metrics.rows_decoded == 100
        assert baseline.last_metrics.rows_for_evaluated == 0

    def test_count_equals_filter_size_without_decoding_covered_blocks(self, sorted_relation):
        table, relation = sorted_relation
        query = relation.query().where(Between("ship", 8_005, 8_060))
        count = query.count()
        assert count == int(np.count_nonzero(
            (table.column("ship") >= 8_005) & (table.column("ship") <= 8_060)
        ))
        metrics = query.last_metrics
        # Interior blocks are answered from statistics alone.
        assert metrics.blocks_full >= 4
        assert metrics.rows_decoded <= 200

    def test_select_attaches_metrics(self, sorted_relation):
        table, relation = sorted_relation
        result = relation.query().where(Between("ship", 8_031, 8_038)).select("receipt").execute()
        assert result.metrics is not None
        assert result.metrics.blocks_scanned == 1
        expected = np.flatnonzero(
            (table.column("ship") >= 8_031) & (table.column("ship") <= 8_038)
        )
        assert np.array_equal(result.row_ids, expected)
        assert np.array_equal(result.column("receipt"), table.column("receipt")[expected])

    def test_unknown_column_raises(self, sorted_relation):
        _, relation = sorted_relation
        with pytest.raises(UnknownColumnError):
            relation.query().where(Eq("nope", 1)).execute()

    def test_predicate_less_execute_has_no_metrics(self, sorted_relation):
        _, relation = sorted_relation
        filtered = relation.query().where(Between("ship", 8_031, 8_038))
        assert filtered.last_metrics is None  # nothing has run yet
        filtered.count()
        assert filtered.last_metrics is not None
        everything = relation.query().select("ship")
        result = everything.execute()
        assert result.metrics is None
        assert everything.last_metrics is None

    @pytest.mark.parametrize("scheme", ["for_bitpack", "dictionary", "rle", "plain"])
    @pytest.mark.parametrize("low, high", [(NAN, None), (None, NAN), (NAN, 8_050)])
    def test_nan_bound_selects_no_row_on_any_path(self, scheme, low, high):
        table = Table.from_columns([("c", INT64, np.arange(8_000, 8_300, dtype=np.int64))])
        plan = CompressionPlan.builder(table.schema).vertical("c", scheme).build()
        relation = TableCompressor(plan, block_size=100).compress(table)
        between = Between("c", low, high)
        assert oracle.filter_rows(table, between) == []
        with oracle.decode_engine() as decode:
            for query in (relation.query(), decode.query(relation)):
                assert query.where(between).count() == 0
                assert query.where(~between).count() == relation.n_rows
            # Every block offered to the kernels, none pruned by its zone map.
            for block in relation:
                assert not evaluate_block_predicate(block, between).any()
                assert evaluate_block_predicate(block, ~between).all()

    def test_string_zone_maps_prune_eq(self):
        names = sorted(f"name-{i:03d}" for i in range(500))
        table = Table.from_columns([("s", STRING, names)])
        relation = TableCompressor(block_size=100).compress(table)
        result = relation.query().where(Eq("s", "name-250")).execute()
        assert result.row_ids.tolist() == [250]
        assert result.metrics.blocks_scanned == 1

    def test_relation_without_statistics_still_correct(self):
        table = Table.from_columns([("x", INT64, np.arange(1_000, dtype=np.int64))])
        relation = TableCompressor(block_size=100, collect_statistics=False).compress(table)
        assert all(block.statistics is None for block in relation)
        result = relation.query().where(Between("x", 10, 19)).execute()
        assert np.array_equal(result.row_ids, np.arange(10, 20))
        assert result.metrics.blocks_pruned == 0

    def test_sorted_prefix_range_prunes_most_blocks(self):
        dates = TpchLineitemGenerator().generate_dates_only(10_000, seed=42)
        order = np.argsort(dates.column("l_shipdate"), kind="stable")
        ship = dates.column("l_shipdate")[order]
        receipt = dates.column("l_receiptdate")[order]
        table = Table.from_columns([("l_shipdate", DATE, ship), ("l_receiptdate", DATE, receipt)])
        plan = (
            CompressionPlan.builder(table.schema)
            .diff_encode("l_receiptdate", reference="l_shipdate")
            .build()
        )
        relation = TableCompressor(plan, block_size=1_250).compress(table)
        assert relation.n_blocks == 8
        for selectivity in (0.01, 0.1):
            predicate = Between("l_shipdate", int(ship[0]), int(ship[int(selectivity * ship.size)]))
            query = relation.query().where(predicate)
            assert query.count() == len(oracle.filter_rows(table, predicate))
            # The leading range lies inside the first of eight blocks.
            assert query.last_metrics.blocks_pruned >= 6


class TestAcceptanceSortedMillionRows:
    """ISSUE acceptance: sorted 1M-row TPC-H dates, 16 blocks, <= 2 decoded."""

    def test_between_one_block_range_decodes_at_most_two_blocks(self):
        rng = np.random.default_rng(42)
        ship = np.sort(rng.integers(8_766, 11_322, size=1_000_000)).astype(np.int64)
        table = Table.from_columns([("l_shipdate", DATE, ship)])
        plan = (
            CompressionPlan.builder(table.schema)
            .vertical("l_shipdate", "for_bitpack")
            .build()
        )
        relation = TableCompressor(plan, block_size=62_500).compress(table)
        assert relation.n_blocks == 16

        stats = relation.block(5).column_statistics("l_shipdate")
        predicate = Between("l_shipdate", stats.min_value + 1, stats.max_value - 1)
        result = relation.query().where(predicate).execute()
        row_ids, metrics = result.row_ids, result.metrics

        assert metrics.blocks_scanned + metrics.blocks_full <= 2
        assert metrics.blocks_pruned >= 14
        assert metrics.rows_decoded <= 2 * 62_500
        expected = np.flatnonzero(
            (ship >= stats.min_value + 1) & (ship <= stats.max_value - 1)
        )
        assert np.array_equal(row_ids, expected)
