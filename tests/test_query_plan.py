"""Tests for the lazy query API: logical plans, builder, compiler, pushdowns.

The property-based section checks three-way parity — lazy API ==
imperative ``QueryExecutor`` == a plain full-decode reference over the raw
table values — and serial == parallel, for randomized predicates
(including ``Not`` and string ``Between``) and randomized aggregates over
a relation mixing vertical encodings (FOR/delta/dictionary/RLE candidates)
with a diff-encoded horizontal column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import DATE, INT64, STRING
from repro.errors import UnknownColumnError, ValidationError
from repro.query import (
    Aggregate,
    Avg,
    Between,
    Count,
    EngineConfig,
    Eq,
    Filter,
    In,
    LazyQuery,
    Limit,
    Max,
    Min,
    Not,
    Or,
    Project,
    QueryCompiler,
    QueryExecutor,
    Scan,
    ScanMetrics,
    Sum,
    evaluate_block_predicate,
    render_plan,
)
from repro.storage import BlockStatistics, ColumnStatistics, Table
from repro.storage.serialization import deserialize_block, serialize_block

TAGS = [f"tag_{i:02d}" for i in range(9)]
N_ROWS = 3_000
BLOCK_SIZE = 250


def _reference_table(seed: int = 23) -> Table:
    rng = np.random.default_rng(seed)
    ship = np.arange(N_ROWS, dtype=np.int64) + 8_000  # sorted (prunable)
    receipt = ship + rng.integers(1, 15, N_ROWS)  # diff-encodable
    v = rng.integers(0, 500, N_ROWS)  # unsorted ints
    runs = np.repeat(np.arange(N_ROWS // 100, dtype=np.int64), 100)  # RLE-ish
    tags = [TAGS[i] for i in rng.integers(0, len(TAGS), N_ROWS)]
    return Table.from_columns(
        [
            ("ship", DATE, ship),
            ("receipt", DATE, receipt),
            ("v", INT64, v),
            ("runs", INT64, runs),
            ("tag", STRING, tags),
        ]
    )


@pytest.fixture(scope="module")
def table() -> Table:
    return _reference_table()


@pytest.fixture(scope="module")
def relation(table):
    plan = (
        CompressionPlan.builder(table.schema)
        .diff_encode("receipt", reference="ship")
        .build()
    )
    return TableCompressor(plan, block_size=BLOCK_SIZE).compress(table)


def _raw_columns(table: Table) -> dict:
    return {name: table.column(name) for name in table.column_names}


def _reference_mask(table: Table, predicate) -> np.ndarray:
    """Full-decode reference: the predicate kernel over the raw columns."""
    return np.asarray(predicate.evaluate(_raw_columns(table)), dtype=bool)


# -- random predicate / aggregate strategies ----------------------------------

_int_leaves = st.one_of(
    st.builds(Eq, st.sampled_from(["v", "ship", "receipt", "runs"]), st.integers(-10, 9_100)),
    st.builds(
        lambda c, lo, hi: Between(c, min(lo, hi), max(lo, hi)),
        st.sampled_from(["v", "ship", "receipt"]),
        st.integers(-10, 9_100),
        st.integers(-10, 9_100),
    ),
    st.builds(In, st.just("v"), st.lists(st.integers(-10, 510), min_size=1, max_size=5)),
)
_string_leaves = st.one_of(
    st.builds(Eq, st.just("tag"), st.sampled_from(TAGS + ["absent"])),
    st.builds(
        lambda lo, hi: Between("tag", min(lo, hi), max(lo, hi)),
        st.sampled_from(TAGS + ["absent", "zzz"]),
        st.sampled_from(TAGS + ["absent", "zzz"]),
    ),
    st.builds(lambda hi: Between("tag", None, hi), st.sampled_from(TAGS)),
    st.builds(
        In, st.just("tag"),
        st.lists(st.sampled_from(TAGS + ["absent"]), min_size=1, max_size=4),
    ),
)
_predicates = st.recursive(
    st.one_of(_int_leaves, _string_leaves),
    lambda children: st.one_of(
        st.builds(lambda a, b: a & b, children, children),
        st.builds(lambda a, b: Or(a, b), children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)
_aggregate_sets = st.lists(
    st.sampled_from(
        [
            ("n", Count()),
            ("total", Sum("v")),
            ("rsum", Sum("receipt")),
            ("lo", Min("ship")),
            ("hi", Max("receipt")),
            ("vmax", Max("v")),
            ("tmin", Min("tag")),
            ("mean", Avg("v")),
            ("rmean", Avg("receipt")),
        ]
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
)


def _reference_aggregate(table, mask, fn):
    if fn.kind == "count":
        return int(np.count_nonzero(mask))
    values = table.column(fn.column)
    if isinstance(values, np.ndarray):
        selected = values[mask]
        if fn.kind == "sum":
            return int(np.sum(selected, dtype=np.int64))
        if selected.size == 0:
            return None
        if fn.kind == "avg":
            return int(np.sum(selected, dtype=np.int64)) / int(selected.size)
        return int(selected.min()) if fn.kind == "min" else int(selected.max())
    selected = [value for value, keep in zip(values, mask) if keep]
    if not selected:
        return None
    return min(selected) if fn.kind == "min" else max(selected)


class TestLazyParity:
    """Lazy API == QueryExecutor == full-decode reference; serial == parallel."""

    @settings(max_examples=30, deadline=None)
    @given(predicate=_predicates)
    def test_filter_parity(self, relation, table, predicate):
        expected = np.flatnonzero(_reference_mask(table, predicate))
        executor_ids = QueryExecutor(relation).filter(predicate)
        lazy = relation.query().where(predicate).execute()
        assert np.array_equal(executor_ids, expected)
        assert np.array_equal(lazy.row_ids, expected)
        assert relation.query().where(predicate).count() == expected.size

    @settings(max_examples=25, deadline=None)
    @given(predicate=_predicates, aggs=_aggregate_sets)
    def test_aggregate_parity(self, relation, table, predicate, aggs):
        mask = _reference_mask(table, predicate)
        serial = relation.query().where(predicate).agg(**dict(aggs)).execute()
        parallel = (
            relation.query(config=EngineConfig(workers=4))
            .where(predicate)
            .agg(**dict(aggs))
            .execute()
        )
        for name, fn in aggs:
            expected = _reference_aggregate(table, mask, fn)
            assert serial.scalar(name) == expected, fn.describe()
            assert parallel.scalar(name) == expected, fn.describe()

    @settings(max_examples=20, deadline=None)
    @given(predicate=_predicates)
    def test_group_by_parity(self, relation, table, predicate):
        mask = _reference_mask(table, predicate)
        result = relation.query().where(predicate).group_by("tag").agg(
            n=Count(), total=Sum("v"), first=Min("ship")
        ).execute()
        expected: dict[str, list] = {}
        for keep, tag, v, ship in zip(
            mask, table.column("tag"), table.column("v"), table.column("ship")
        ):
            if not keep:
                continue
            state = expected.setdefault(tag, [0, 0, None])
            state[0] += 1
            state[1] += int(v)
            state[2] = int(ship) if state[2] is None else min(state[2], int(ship))
        keys = sorted(expected)
        assert list(result.column("tag")) == keys
        assert list(result.column("n")) == [expected[k][0] for k in keys]
        assert list(result.column("total")) == [expected[k][1] for k in keys]
        assert list(result.column("first")) == [expected[k][2] for k in keys]
        # Parallel grouping merges the same per-block states in block order.
        parallel = (
            relation.query(config=EngineConfig(workers=4))
            .where(predicate)
            .group_by("tag")
            .agg(n=Count(), total=Sum("v"), first=Min("ship"))
            .execute()
        )
        assert parallel.columns == result.columns

    @settings(max_examples=20, deadline=None)
    @given(predicate=_predicates)
    def test_kernels_and_decode_agree_with_the_oracle(self, relation, table, predicate):
        aggregates = dict(n=Count(), total=Sum("v"))
        with oracle.decode_engine() as decode:
            baseline = decode.query(relation).where(predicate).agg(**aggregates).execute()
        tuned = relation.query().where(predicate).agg(**aggregates).execute()
        want = oracle.group_by(table, predicate, (), aggregates)
        assert tuned.columns == baseline.columns == want

    def test_select_matches_executor_select(self, relation, table):
        predicate = Between("ship", 8_300, 8_700)
        lazy = relation.query().where(predicate).select("receipt", "tag").execute()
        imperative = QueryExecutor(relation).select(["receipt", "tag"], predicate)
        assert np.array_equal(lazy.row_ids, imperative.row_ids)
        assert np.array_equal(lazy.column("receipt"), imperative.column("receipt"))
        assert lazy.column("tag") == imperative.column("tag")


class TestAggregationPushdown:
    def test_count_over_covered_blocks_decodes_nothing(self, relation):
        # Block-aligned range: every block is either pruned or fully covered.
        query = relation.query().where(Between("ship", 8_250, 8_999))
        assert query.count() == 750
        metrics = query.last_metrics
        assert metrics.blocks_scanned == 0
        assert metrics.blocks_full == 3
        assert metrics.rows_decoded == 0
        assert metrics.rows_gathered == 0

    def test_sum_min_max_answered_from_statistics(self, relation, table):
        query = relation.query().where(Between("ship", 8_250, 8_999)).agg(
            total=Sum("v"), lo=Min("v"), hi=Max("v"), n=Count()
        )
        result = query.execute()
        mask = (table.column("ship") >= 8_250) & (table.column("ship") <= 8_999)
        selected = table.column("v")[mask]
        assert result.scalar("total") == int(selected.sum())
        assert result.scalar("lo") == int(selected.min())
        assert result.scalar("hi") == int(selected.max())
        assert result.scalar("n") == 750
        assert result.metrics.rows_decoded == 0
        assert result.metrics.rows_gathered == 0

    def test_derived_statistics_never_answer_min_max(self, relation):
        # receipt carries conservative (inexact) diff-derived bounds, so its
        # min/max aggregates must gather even over fully-covered blocks
        # (its sum, by contrast, is derived exactly — see TestDerivedDiffSum).
        result = relation.query().where(Between("ship", 8_250, 8_999)).agg(
            lo=Min("receipt")
        ).execute()
        assert result.metrics.rows_gathered == 750

    def test_diff_encoded_sums_answered_from_statistics(self, relation, table):
        # sum(receipt) = sum(ship) + sum(deltas) is recorded exactly at
        # compression time, so fully-covered blocks stat-answer it.
        result = relation.query().where(Between("ship", 8_250, 8_999)).agg(
            rsum=Sum("receipt")
        ).execute()
        mask = (table.column("ship") >= 8_250) & (table.column("ship") <= 8_999)
        assert result.scalar("rsum") == int(table.column("receipt")[mask].sum())
        assert result.metrics.rows_gathered == 0
        assert result.metrics.rows_decoded == 0

    def test_aggregate_without_predicate_covers_everything(self, relation, table):
        result = relation.query().agg(n=Count(), total=Sum("v")).execute()
        assert result.scalar("n") == N_ROWS
        assert result.scalar("total") == int(table.column("v").sum())
        assert result.metrics.blocks_full == relation.n_blocks
        assert result.metrics.rows_decoded == 0
        assert result.metrics.rows_gathered == 0

    def test_empty_selection_aggregates(self, relation):
        result = relation.query().where(Eq("v", -1)).agg(
            n=Count(), total=Sum("v"), lo=Min("v")
        ).execute()
        assert result.scalar("n") == 0
        assert result.scalar("total") == 0
        assert result.scalar("lo") is None

    def test_group_by_dictionary_column_stays_in_code_space(self, relation, table):
        result = relation.query().group_by("tag").agg(n=Count()).execute()
        n_groups = len(set(table.column("tag")))
        assert len(result.column("tag")) == n_groups
        # One heap decode per distinct group, regardless of block count.
        assert result.metrics.string_heap_decodes <= n_groups
        assert result.metrics.rows_gathered == 0
        # Decode-then-group answers the same, materialising every row's tag.
        with oracle.decode_engine() as decode:
            decoded = decode.query(relation).group_by("tag").agg(n=Count()).execute()
        assert decoded.columns == result.columns
        assert decoded.metrics.string_heap_decodes == relation.n_rows

    def test_group_by_multiple_columns(self, relation, table):
        result = relation.query().group_by("tag", "runs").agg(n=Count()).execute()
        expected: dict = {}
        for tag, run in zip(table.column("tag"), table.column("runs")):
            key = (tag, int(run))
            expected[key] = expected.get(key, 0) + 1
        keys = sorted(expected)
        assert list(zip(result.column("tag"), result.column("runs"))) == keys
        assert list(result.column("n")) == [expected[k] for k in keys]


class TestProjectionAndLimitPushdown:
    def test_limit_truncates_before_materialisation(self, relation):
        query = relation.query().where(Between("ship", 8_000, 8_999)).select("tag").limit(7)
        result = query.execute()
        assert result.n_rows == 7
        assert len(result.column("tag")) == 7
        assert np.array_equal(result.row_ids, np.arange(7))

    def test_plan_without_projection_materialises_nothing(self, relation):
        compiler = QueryCompiler(relation)
        result = compiler.execute(Filter(Scan(relation), Between("ship", 8_100, 8_105)))
        assert result.columns == {}
        assert result.row_ids.size == 6

    def test_select_defaults_to_all_columns(self, relation, table):
        result = relation.query().where(Eq("ship", 8_123)).execute()
        assert set(result.columns) == set(table.column_names)
        assert result.n_rows == 1

    def test_limit_zero(self, relation):
        result = relation.query().select("v").limit(0).execute()
        assert result.n_rows == 0


class TestBuilderValidation:
    def test_select_and_agg_are_exclusive(self, relation):
        with pytest.raises(ValidationError):
            relation.query().select("v").agg(n=Count())
        with pytest.raises(ValidationError):
            relation.query().agg(n=Count()).select("v")

    def test_group_by_requires_aggregates(self, relation):
        with pytest.raises(ValidationError):
            relation.query().group_by("tag").logical_plan()

    def test_count_rejects_aggregate_chains(self, relation):
        with pytest.raises(ValidationError):
            relation.query().agg(n=Count()).count()

    def test_unknown_columns_are_rejected(self, relation):
        with pytest.raises(UnknownColumnError):
            relation.query().where(Eq("nope", 1)).count()
        with pytest.raises(UnknownColumnError):
            relation.query().select("nope").execute()
        with pytest.raises(UnknownColumnError):
            relation.query().agg(x=Sum("nope")).execute()

    def test_sum_of_string_column_is_rejected(self, relation):
        with pytest.raises(ValidationError):
            relation.query().agg(x=Sum("tag")).execute()

    def test_negative_limit_is_rejected(self, relation):
        with pytest.raises(ValidationError):
            relation.query().limit(-1)

    def test_agg_requires_aggregate_functions(self, relation):
        with pytest.raises(ValidationError):
            relation.query().agg(n=42)

    def test_compiler_rejects_foreign_relation(self, relation):
        other = TableCompressor(block_size=100).compress(_reference_table(seed=5))
        with pytest.raises(ValidationError):
            QueryCompiler(relation).execute(Project(Scan(other), ("v",)))

    def test_scalar_requires_single_row(self, relation):
        result = relation.query().group_by("tag").agg(n=Count()).execute()
        with pytest.raises(ValidationError):
            result.scalar("n")

    def test_result_rejects_unknown_output_column(self, relation):
        result = relation.query().agg(n=Count()).execute()
        with pytest.raises(UnknownColumnError):
            result.column("nope")

    def test_duplicate_output_names_are_rejected(self, relation):
        compiler = QueryCompiler(relation)
        plan = Aggregate(Scan(relation), (("tag", Count()),), group_by=("tag",))
        with pytest.raises(ValidationError):
            compiler.compile(plan)

    def test_duplicate_limit_nodes_are_rejected(self, relation):
        compiler = QueryCompiler(relation)
        plan = Limit(Limit(Project(Scan(relation), ("v",)), 3), 5)
        with pytest.raises(ValidationError):
            compiler.compile(plan)

    def test_out_of_order_nodes_are_rejected(self, relation):
        compiler = QueryCompiler(relation)
        # A Limit below an Aggregate ("count the first 10 matches") is not
        # what the flattened execution would compute, so it must not compile.
        inner_limit = Aggregate(
            Limit(Filter(Scan(relation), Eq("v", 1)), 10), (("n", Count()),)
        )
        with pytest.raises(ValidationError):
            compiler.compile(inner_limit)
        # A Filter above an Aggregate is HAVING: it compiles into the
        # dedicated having slot, not the scan predicate.
        having = Filter(Aggregate(Scan(relation), (("n", Count()),)), Eq("n", 1))
        compiled = compiler.compile(having)
        assert compiled.having is not None
        assert compiled.having.describe() == Eq("n", 1).describe()
        assert compiled.predicate is None
        # A Filter above a Limit is above where the flattened execution
        # could apply it.
        with pytest.raises(ValidationError):
            compiler.compile(Filter(Limit(Project(Scan(relation), ("v",)), 3), Eq("v", 1)))
        # A Filter above a Project would be reordered below it too.
        late_filter = Filter(Project(Scan(relation), ("v",)), Eq("v", 1))
        with pytest.raises(ValidationError):
            compiler.compile(late_filter)

    def test_chain_reuses_one_compiler_across_terminals(self, relation):
        base = relation.query()
        query = base.where(Between("ship", 8_250, 8_999))
        sibling = base.where(Eq("v", 1))  # diverged before any terminal
        assert query.count() == 750
        compiler = query._compiler()
        assert compiler is not None
        cached = compiler.planner.cached_decisions
        assert cached > 0
        assert query.count() == 750
        assert query._compiler() is compiler
        assert compiler.planner.cached_decisions == cached  # memo reused
        # Every link derived from the same root shares the one compiler,
        # including siblings that diverged before the first terminal ran.
        assert query.limit(5)._compiler() is compiler
        sibling.count()
        assert sibling._compiler() is compiler
        query.close()

    def test_count_honours_limit_like_execute(self, relation):
        query = relation.query().where(Between("ship", 8_000, 8_499)).limit(10)
        assert query.count() == 10
        assert query.execute().n_rows == 10
        # A limit larger than the match count changes nothing.
        assert relation.query().where(Eq("ship", 8_123)).limit(10).count() == 1

    def test_stacked_filters_become_a_conjunction(self, relation, table):
        compiler = QueryCompiler(relation)
        plan = Filter(
            Filter(Scan(relation), Between("ship", 8_100, 8_900)), Eq("tag", TAGS[0])
        )
        result = compiler.execute(plan)
        ship, tags = table.column("ship"), table.column("tag")
        expected = [
            i for i in range(N_ROWS)
            if 8_100 <= ship[i] <= 8_900 and tags[i] == TAGS[0]
        ]
        assert result.row_ids.tolist() == expected

    def test_group_by_without_dictionary_matches_code_space(self, relation):
        tuned = relation.query().group_by("tag").agg(n=Count(), hi=Max("v")).execute()
        with oracle.decode_engine() as decode:
            decoded = decode.query(relation).group_by("tag").agg(n=Count(), hi=Max("v")).execute()
        assert tuned.columns == decoded.columns
        assert decoded.metrics.string_heap_decodes >= relation.n_rows

    def test_explain_without_predicate(self, relation):
        text = relation.query().agg(n=Count()).explain()
        assert "predicate: (none" in text
        assert text.count("full") >= relation.n_blocks

    def test_compound_on_horizontal_column_charges_rows_once(self, relation, table):
        # receipt is diff-encoded against ship: a compound touching both
        # resolves the reference through the shared per-block cache, and
        # rows_decoded is charged once per scanned block, not per leaf.
        predicate = Between("receipt", 8_010, 10_990) & Between("ship", 8_005, 10_995)
        metrics = ScanMetrics()
        # Every block evaluated, none pruned or filled by its zone map.
        masks = [evaluate_block_predicate(block, predicate, metrics) for block in relation]
        assert np.array_equal(np.concatenate(masks), _reference_mask(table, predicate))
        assert metrics.rows_decoded == relation.n_rows


class TestExplainAndRendering:
    def test_explain_lists_logical_tree_and_decisions(self, relation):
        text = (
            relation.query()
            .where(Between("ship", 8_250, 8_999))
            .agg(n=Count())
            .limit(3)
            .explain()
        )
        assert "Limit [3]" in text
        assert "Aggregate [n=count(*)]" in text
        assert "Filter [8250 <= ship <= 8999]" in text
        assert "Scan [" in text
        assert "prune" in text and "full" in text
        assert "columns decoded at most: ship" in text

    def test_render_plan_orders_root_first(self, relation):
        plan = Limit(Aggregate(Scan(relation), (("n", Count()),)), 5)
        rendered = render_plan(plan)
        assert rendered.splitlines()[0].startswith("Limit")
        assert rendered.splitlines()[-1].strip().startswith("Scan")

    def test_executor_exposes_compiler(self, relation):
        executor = QueryExecutor(relation)
        assert executor.compiler.relation is relation

    def test_lazy_query_type(self, relation):
        assert isinstance(relation.query(), LazyQuery)


class TestNotPredicate:
    def _stats(self, lo, hi, exact=True):
        return BlockStatistics(
            {"c": ColumnStatistics(row_count=10, min_value=lo, max_value=hi, exact_bounds=exact)}
        )

    def test_prunes_only_when_child_is_provably_full(self):
        constant = self._stats(5, 5)
        assert not Not(Eq("c", 5)).might_match(constant)
        assert Not(Eq("c", 5)).might_match(self._stats(5, 6))
        # Derived bounds over-cover the true range, so a superset inside the
        # child's range proves the child full and the negation empty.
        assert not Not(Between("c", 0, 10)).might_match(self._stats(5, 6, exact=False))
        assert Not(Between("c", 0, 5)).might_match(self._stats(5, 6, exact=False))

    def test_full_only_when_child_provably_empty(self):
        assert Not(Eq("c", 99)).matches_all(self._stats(5, 6))
        assert not Not(Eq("c", 5)).matches_all(self._stats(5, 6))
        assert not Not(Eq("c", 99)).matches_all(None)
        # A conservative range still proves absence soundly.
        assert Not(Eq("c", 99)).matches_all(self._stats(5, 6, exact=False))

    def test_invert_operator_and_double_negation(self):
        predicate = Eq("c", 5)
        negated = ~predicate
        assert isinstance(negated, Not)
        assert ~negated is predicate
        assert negated.describe() == "NOT (c == 5)"

    def test_fingerprint_tracks_child(self):
        assert Not(Eq("c", 5)).fingerprint() != Eq("c", 5).fingerprint()

    def test_not_stays_in_code_space(self, relation):
        executor = QueryExecutor(relation)
        count = executor.count(Not(Eq("tag", TAGS[0])))
        metrics = executor.last_scan_metrics
        assert metrics.string_heap_decodes == 0
        assert metrics.rows_dict_evaluated == relation.n_rows
        with oracle.decode_engine() as decode:
            assert decode.executor(relation).count(Not(Eq("tag", TAGS[0]))) == count


class TestBetweenCodeSpace:
    def test_string_range_never_touches_the_heap(self, relation, table):
        predicate = Between("tag", TAGS[2], TAGS[6])
        executor = QueryExecutor(relation)
        count = executor.count(predicate)
        metrics = executor.last_scan_metrics
        assert count == sum(TAGS[2] <= t <= TAGS[6] for t in table.column("tag"))
        assert metrics.string_heap_decodes == 0
        assert metrics.rows_dict_evaluated == relation.n_rows
        assert executor.count(Between("tag", "zzz", None)) == 0

    def test_open_and_mistyped_bounds_match_decode_path(self, relation):
        with_dict = QueryExecutor(relation)
        with oracle.decode_engine() as decode:
            without = decode.executor(relation)
            for predicate in (
                Between("tag", None, TAGS[4]),
                Between("tag", TAGS[4], None),
                Between("tag", 3, 7),
                Between("tag", TAGS[1], 9),
            ):
                assert with_dict.count(predicate) == without.count(predicate)

    def test_int_dictionary_code_range(self):
        from repro.encodings.dictionary import DictEncodedIntColumn

        column = DictEncodedIntColumn(np.asarray([2, 4, 4, 8, 16]))
        assert column.lookup_code_range(3, 9) == (1, 3)
        assert column.lookup_code_range(None, 4) == (0, 2)
        assert column.lookup_code_range(5, None) == (2, 4)
        assert column.lookup_code_range(3.5, 8.5) == (1, 3)
        assert column.lookup_code_range("a", 9) == (0, 0)
        assert column.lookup_code_range(float("nan"), None) == (0, 0)
        lo, hi = column.lookup_code_range(100, 200)
        assert lo >= hi

    def test_string_heap_bisect(self):
        from repro.encodings.dictionary import DictEncodedStringColumn

        column = DictEncodedStringColumn(["b", "d", "d", "f"])
        assert column.lookup_code_range("a", "z") == (0, 3)
        assert column.lookup_code_range("c", "e") == (1, 2)
        assert column.lookup_code_range("b", "b") == (0, 1)
        assert column.lookup_code_range(1, "z") == (0, 0)
        heap = column.heap
        assert heap.bisect_left("d") == 1
        assert heap.bisect_right("d") == 2
        assert heap.key_bytes(0) == b"b"


class TestSumStatistic:
    def test_from_values_records_exact_sum(self):
        stats = ColumnStatistics.from_values(np.asarray([5, 1, 9], dtype=np.int64))
        assert stats.sum_value == 15
        assert stats.aggregate_value("sum") == 15
        assert stats.aggregate_value("count") == 3
        assert stats.aggregate_value("min") == 1
        assert stats.aggregate_value("max") == 9
        assert stats.aggregate_value("median") is None

    def test_string_and_derived_statistics_have_no_sum(self):
        assert ColumnStatistics.from_values(["a", "b"]).sum_value is None
        reference = ColumnStatistics.from_values(np.asarray([100, 200], dtype=np.int64))
        derived = ColumnStatistics.from_reference_and_deltas(reference, 1, 30, 2)
        assert derived.aggregate_value("sum") is None
        assert derived.aggregate_value("min") is None

    def test_serialization_roundtrip_preserves_sum(self, relation):
        block = relation.block(0)
        restored = deserialize_block(serialize_block(block))
        assert restored.statistics == block.statistics
        assert restored.statistics.column("v").sum_value is not None

    def test_legacy_statistics_dicts_without_sum_stay_readable(self):
        stats = ColumnStatistics.from_values(np.asarray([1, 2], dtype=np.int64))
        state = stats.to_dict()
        state.pop("sum_value")
        restored = ColumnStatistics.from_dict(state)
        assert restored.sum_value is None
        assert restored.min_value == 1


class TestAvgAggregate:
    def test_avg_matches_reference(self, relation, table):
        predicate = Between("v", 100, 300)
        result = relation.query().where(predicate).agg(mean=Avg("v")).execute()
        v = table.column("v")
        selected = v[(v >= 100) & (v <= 300)]
        assert result.scalar("mean") == selected.sum() / selected.size
        assert isinstance(result.scalar("mean"), float)

    def test_avg_answered_from_statistics_over_covered_blocks(self, relation, table):
        # Block-aligned range: avg = stat-answered sums / row counts, and the
        # diff-encoded receipt column is stat-answerable too.
        result = relation.query().where(Between("ship", 8_250, 8_999)).agg(
            mean=Avg("v"), rmean=Avg("receipt")
        ).execute()
        mask = (table.column("ship") >= 8_250) & (table.column("ship") <= 8_999)
        assert result.scalar("mean") == table.column("v")[mask].sum() / 750
        assert result.scalar("rmean") == table.column("receipt")[mask].sum() / 750
        assert result.metrics.rows_gathered == 0
        assert result.metrics.rows_decoded == 0

    def test_avg_of_empty_selection_is_none(self, relation):
        result = relation.query().where(Eq("v", -1)).agg(mean=Avg("v")).execute()
        assert result.scalar("mean") is None

    def test_grouped_avg_matches_python_reference(self, relation, table):
        result = relation.query().group_by("tag").agg(mean=Avg("v"), n=Count()).execute()
        expected: dict[str, list[int]] = {}
        for tag, value in zip(table.column("tag"), table.column("v")):
            expected.setdefault(tag, []).append(int(value))
        for tag, mean in zip(result.column("tag"), result.column("mean")):
            assert mean == sum(expected[tag]) / len(expected[tag])
        parallel = (
            relation.query(config=EngineConfig(workers=4))
            .group_by("tag")
            .agg(mean=Avg("v"), n=Count())
            .execute()
        )
        assert parallel.columns == result.columns

    def test_avg_of_string_column_is_rejected(self, relation):
        with pytest.raises(ValidationError):
            relation.query().agg(mean=Avg("tag")).execute()

    def test_avg_needs_a_column(self):
        with pytest.raises(ValidationError):
            Avg("")

    def test_avg_survives_exact_partial_merges(self, relation, table):
        # Many blocks with different counts: the (sum, count) partials must
        # merge exactly instead of averaging the per-block averages.
        result = relation.query().where(Between("ship", 8_100, 8_905)).agg(
            mean=Avg("v")
        ).execute()
        ship = table.column("ship")
        mask = (ship >= 8_100) & (ship <= 8_905)
        selected = table.column("v")[mask]
        assert result.scalar("mean") == selected.sum() / selected.size


class TestDerivedDiffSum:
    def test_sum_differences_resolves_zigzag(self):
        from repro.core.diff_encoding import DiffEncodedColumn

        reference = np.arange(10, dtype=np.int64) * 10
        target = reference + np.asarray([-3, 5, -1, 2, 0, 7, -2, 4, 1, -6])
        column = DiffEncodedColumn(target, reference, "ref")
        assert column.uses_zigzag
        assert column.sum_differences() == int((target - reference).sum())

    def test_block_statistics_carry_exact_diff_sum(self, relation, table):
        for index, block in enumerate(relation.blocks):
            stats = block.column_statistics("receipt")
            start = index * BLOCK_SIZE
            chunk = table.column("receipt")[start : start + BLOCK_SIZE]
            assert stats.sum_value == int(chunk.sum())
            assert not stats.exact_bounds  # bounds stay conservative

    def test_outlier_rows_are_corrected(self):
        from repro.core import CompressionPlan, TableCompressor
        from repro.dtypes import INT64
        from repro.storage import Table

        rng = np.random.default_rng(3)
        base = np.arange(500, dtype=np.int64) + 1_000
        target = base + rng.integers(0, 4, 500)
        target[::50] += 1_000_000  # far outside any narrow bit budget
        t = Table.from_columns([("base", INT64, base), ("target", INT64, target)])
        plan = (
            CompressionPlan.builder(t.schema)
            .diff_encode("target", reference="base", outlier_bit_budget=2)
            .build()
        )
        block = TableCompressor(plan, block_size=500).compress(t).block(0)
        assert block.column("target").outliers.n_outliers > 0
        assert block.column_statistics("target").sum_value == int(target.sum())


class TestPythonGroupKeys:
    """A single integer group column is counted densely when its values span
    fewer slots than it has rows; keys and inverse equal ``np.unique``'s."""

    I64 = np.iinfo(np.int64)

    DENSE = {
        "negative": np.array([3, -2, 3, 0, -2, -1], dtype=np.int64),
        "one distinct value": np.full(7, -9, dtype=np.int64),
        "range n-1": np.arange(-25, 25, dtype=np.int64)[::-1],
        "int64 minimum": np.array([I64.min, I64.min + 2, I64.min], dtype=np.int64),
        "int64 maximum": np.array([I64.max, I64.max - 1, I64.max], dtype=np.int64),
        "uint64 top": np.array([2**64 - 1, 2**64 - 3, 2**64 - 2], dtype=np.uint64),
    }
    SPARSE = {
        "range n": np.array([0, 3, 1], dtype=np.int64),
        "range far beyond n": np.array([5, 10**12, 5, -(10**12)], dtype=np.int64),
        "int64 extremes": np.array([I64.min, I64.max, 0, I64.max], dtype=np.int64),
    }

    @staticmethod
    def _unique(values):
        unique, inverse = np.unique(values, return_inverse=True)
        return [int(u) for u in unique], inverse

    @pytest.mark.parametrize("name", list(DENSE) + list(SPARSE))
    def test_equals_np_unique(self, name):
        from repro.query.plan import _python_group_keys

        values = {**self.DENSE, **self.SPARSE}[name]
        want_keys, want_inverse = self._unique(values)
        keys, inverse = _python_group_keys(("g",), {"g": values})
        assert keys == want_keys
        assert all(type(key) is int for key in keys)
        assert inverse.dtype == want_inverse.dtype
        assert np.array_equal(inverse, want_inverse)

    @pytest.mark.parametrize("name", list(DENSE))
    def test_dense_inputs_never_sort(self, name, monkeypatch):
        from repro.query import plan

        values = self.DENSE[name]
        want = self._unique(values)
        monkeypatch.setattr(plan.np, "unique", None)
        keys, inverse = plan._python_group_keys(("g",), {"g": values})
        assert keys == want[0] and np.array_equal(inverse, want[1])

    def test_group_by_runs_dense(self, monkeypatch):
        from repro.query import plan as query_plan

        rng = np.random.default_rng(4)
        g, v = rng.integers(-3, 7, 2_000), rng.integers(0, 1_000, 2_000)
        t = Table.from_columns([("g", INT64, g), ("v", INT64, v)])
        # FOR has no grouping kernel, so the block gathers g and groups it.
        plan = CompressionPlan.builder(t.schema).vertical("g", "for_bitpack").build()
        relation = TableCompressor(plan, block_size=500).compress(t)
        monkeypatch.setattr(query_plan.np, "unique", None)  # dense blocks never sort
        result = relation.query().group_by("g").agg(n=Count(), total=Sum("v")).execute()
        keys = sorted(set(g.tolist()))
        assert list(result.column("g")) == keys
        assert list(result.column("n")) == [int((g == k).sum()) for k in keys]
        assert list(result.column("total")) == [int(v[g == k].sum()) for k in keys]
