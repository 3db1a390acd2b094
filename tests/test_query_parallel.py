"""Tests for the morsel-driven parallel engine, dictionary-domain predicate
evaluation, planner memoization, and parallel block compression."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import (
    DEFAULT_KERNELS,
    And,
    Between,
    Engine,
    EngineConfig,
    Eq,
    In,
    Or,
    ParallelEngine,
    QueryExecutor,
    ScanPlanner,
    parallel_map,
    resolve_workers,
)
from repro.storage.table import Table

TAGS = [f"tag_{i:02d}" for i in range(12)]
WORKER_COUNTS = (1, 2, 4)


def _make_relation(n_rows: int = 3000, block_size: int = 256, seed: int = 11):
    rng = np.random.default_rng(seed)
    table = Table.from_columns([
        ("v", INT64, rng.integers(0, 500, n_rows)),
        ("tag", STRING, [TAGS[i] for i in rng.integers(0, len(TAGS), n_rows)]),
    ])
    return TableCompressor(block_size=block_size).compress(table)


@pytest.fixture(scope="module")
def relation():
    return _make_relation()


# -- random predicate strategy -------------------------------------------------

_int_leaves = st.one_of(
    st.builds(Eq, st.just("v"), st.integers(-10, 510)),
    st.builds(
        lambda lo, hi: Between("v", min(lo, hi), max(lo, hi)),
        st.integers(-10, 510), st.integers(-10, 510),
    ),
    st.builds(In, st.just("v"), st.lists(st.integers(-10, 510), min_size=1, max_size=5)),
)
_string_leaves = st.one_of(
    st.builds(Eq, st.just("tag"), st.sampled_from(TAGS + ["absent"])),
    st.builds(
        In, st.just("tag"), st.lists(st.sampled_from(TAGS + ["absent"]), min_size=1, max_size=4)
    ),
)
_leaves = st.one_of(_int_leaves, _string_leaves)
_predicates = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(lambda a, b: And(a, b), children, children),
        st.builds(lambda a, b: Or(a, b), children, children),
    ),
    max_leaves=4,
)


class TestParallelMatchesSerial:
    """Property: parallel execution is indistinguishable from serial."""

    @settings(max_examples=40, deadline=None)
    @given(predicate=_predicates)
    def test_scan_identical_across_worker_counts(self, relation, predicate):
        serial = QueryExecutor(relation, config=EngineConfig(workers=1))
        expected_ids, expected_metrics = serial.scan(predicate)
        for workers in WORKER_COUNTS:
            with QueryExecutor(relation, config=EngineConfig(workers=workers)) as executor:
                row_ids, metrics = executor.scan(predicate)
                assert np.array_equal(row_ids, expected_ids)
                assert executor.count(predicate) == expected_ids.size
                # Metrics totals must agree: planning is shared and every
                # block is evaluated exactly once regardless of scheduling.
                for field in (
                    "n_blocks", "blocks_scanned", "blocks_pruned",
                    "blocks_full", "rows_total", "rows_decoded",
                    "rows_matched", "rows_dict_evaluated",
                    "string_heap_decodes",
                ):
                    assert getattr(metrics, field) == getattr(
                        expected_metrics, field
                    )

    @settings(max_examples=20, deadline=None)
    @given(predicate=_predicates)
    def test_dictionary_domain_matches_decode_path(self, relation, predicate):
        with_dict = QueryExecutor(relation).filter(predicate)
        with oracle.decode_engine() as decode:
            without = decode.executor(relation).filter(predicate)
        assert np.array_equal(with_dict, without)

    def test_engine_results_are_sorted_and_complete(self, relation):
        with ParallelEngine(relation, workers=4) as engine:
            row_ids, metrics = engine.scan(Between("v", 0, 499))
        assert np.array_equal(row_ids, np.arange(relation.n_rows))
        assert metrics.rows_matched == relation.n_rows

    def test_opaque_predicates_run_in_parallel(self, relation):
        predicate = oracle.Opaque(
            "tag", lambda values: np.char.endswith(values, "7"), "tag ends with 7"
        )
        serial = QueryExecutor(relation, config=EngineConfig(workers=1)).filter(predicate)
        with QueryExecutor(relation, config=EngineConfig(workers=4)) as executor:
            assert np.array_equal(serial, executor.filter(predicate))


class TestDictionaryDomain:
    def test_eq_decodes_zero_string_heaps(self, relation):
        executor = QueryExecutor(relation)
        executor.count(Eq("tag", "tag_07"))
        metrics = executor.last_scan_metrics
        assert metrics.string_heap_decodes == 0
        assert metrics.rows_dict_evaluated == relation.n_rows
        # Code-space-only blocks materialise nothing at all.
        assert metrics.rows_decoded == 0

    def test_decode_path_pays_heap_decodes(self, relation):
        with oracle.decode_engine() as decode:
            executor = decode.executor(relation)
            executor.count(Eq("tag", "tag_07"))
        metrics = executor.last_scan_metrics
        assert metrics.rows_dict_evaluated == 0
        assert metrics.string_heap_decodes == relation.n_rows
        assert metrics.rows_decoded == relation.n_rows

    def test_absent_and_mistyped_values_match_nothing(self, relation):
        executor = QueryExecutor(relation)
        assert executor.count(Eq("tag", "no_such_tag")) == 0
        assert executor.count(Eq("tag", 123)) == 0
        assert executor.count(In("tag", ["nope", "also_nope"])) == 0
        assert executor.last_scan_metrics.string_heap_decodes == 0

    def test_lookup_codes_string_column(self, relation):
        column = relation.block(0).column("tag")
        codes = column.lookup_codes(["tag_00", "absent", 42])
        decoded = column.decode()
        if codes.size:
            assert column.dictionary[int(codes[0])] == "tag_00"
            assert "tag_00" in decoded
        else:
            assert "tag_00" not in decoded

    def test_lookup_codes_int_column(self):
        from repro.encodings.dictionary import DictEncodedIntColumn

        column = DictEncodedIntColumn(np.asarray([5, 5, 9, 1, 9, 5]))
        codes = column.lookup_codes([9, 4, "x", 1])
        values = column.dictionary[codes]
        assert sorted(values.tolist()) == [1, 9]
        mask = np.isin(column.codes(), codes)
        assert mask.sum() == 3  # one 1 plus two 9s; 4 and "x" match nothing

    def test_numeric_candidates_compare_numerically(self):
        from repro.encodings.dictionary import DictEncodedIntColumn

        column = DictEncodedIntColumn(np.asarray([1, 5, 5, 7]))
        # 5.0 and True find 5 and 1, exactly like the decoded NumPy kernels.
        assert column.dictionary[column.lookup_codes([5.0])].tolist() == [5]
        assert column.dictionary[column.lookup_codes([True])].tolist() == [1]
        assert column.dictionary[column.lookup_codes([np.bool_(True)])].tolist() == [1]
        assert column.lookup_codes([5.5, "5", None, 2 ** 70]).size == 0

    def test_float_predicate_consistent_across_paths_and_zone_maps(self):
        from repro.core import CompressionPlan

        # First block is constant 5 (answered FULL from its exact zone map),
        # the rest are mixed (answered in code space) — both paths must agree
        # with the decoded kernel for the float constant 5.0.
        values = np.asarray([5] * 64 + [5, 9] * 96)
        table = Table.from_columns([("c", INT64, values)])
        plan = CompressionPlan.builder(table.schema).vertical(
            "c", "dictionary"
        ).build()
        rel = TableCompressor(plan, block_size=64).compress(table)
        expected = int(np.count_nonzero(values == 5.0))
        with oracle.decode_engine() as decode, Engine(EngineConfig(workers=2)) as parallel:
            for engine in (None, decode, parallel):
                executor = QueryExecutor(rel, engine=engine)
                assert executor.count(Eq("c", 5.0)) == expected
                assert executor.count(Eq("c", True)) == 0
                assert executor.count(In("c", [5.0, 5.5])) == expected

    def test_leaf_statistics_shortcut_inside_compound(self, relation):
        # "absent" sorts outside every block's [min, max], so the tag leaf of
        # the Or is answered all-false from statistics without any code
        # unpack — and the result must still match the decode path.
        predicate = Or(Eq("v", 5), Eq("tag", "absent"))
        with_dict = QueryExecutor(relation).filter(predicate)
        with oracle.decode_engine() as decode:
            without = decode.executor(relation).filter(predicate)
        assert np.array_equal(with_dict, without)

    def test_code_space_column_excludes_horizontal(self, relation):
        block = relation.block(0)
        assert DEFAULT_KERNELS.predicate_mask(block, "tag", Eq("tag", TAGS[0])) is not None
        # FOR/bit-packed column has no code-space API to translate a string through.
        assert DEFAULT_KERNELS.predicate_mask(block, "v", Eq("v", TAGS[0])) is None


class TestPlannerMemoization:
    def test_decisions_are_cached_per_block_and_fingerprint(self, relation):
        planner = ScanPlanner(relation)
        predicate = Between("v", 0, 10)
        first = planner.plan(predicate)
        assert planner.cached_decisions == relation.n_blocks
        calls = {"n": 0}
        original = predicate.might_match

        def counting(statistics):
            calls["n"] += 1
            return original(statistics)

        predicate.might_match = counting  # type: ignore[method-assign]
        second = planner.plan(Between("v", 0, 10))
        assert calls["n"] == 0  # zone maps never re-tested
        assert second.decisions == first.decisions

    def test_cache_invalidated_on_relation_change(self, relation):
        planner = ScanPlanner(relation)
        planner.plan(Between("v", 0, 10))
        assert planner.cached_decisions > 0
        other = _make_relation(n_rows=500, block_size=100, seed=3)
        planner.relation = other
        plan = planner.plan(Between("v", 0, 10))
        assert plan.n_blocks == other.n_blocks
        assert planner.cached_decisions == other.n_blocks

    def test_distinct_predicates_do_not_collide(self, relation):
        planner = ScanPlanner(relation)
        a = planner.plan(Between("v", 0, 10))
        b = planner.plan(Between("v", 0, 499))
        assert a.decisions != b.decisions
        # Eq on int 5 and string "5" must have distinct fingerprints.
        assert Eq("v", 5).fingerprint() != Eq("v", "5").fingerprint()


class TestParallelCompression:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_compression_is_deterministic_across_workers(self, workers):
        rng = np.random.default_rng(5)
        table = Table.from_columns([
            ("a", INT64, rng.integers(0, 100, 1200)),
            ("s", STRING, [TAGS[i] for i in rng.integers(0, len(TAGS), 1200)]),
        ])
        serial = TableCompressor(block_size=128).compress(table)
        threaded = TableCompressor(block_size=128, workers=workers).compress(table)
        assert threaded.n_blocks == serial.n_blocks
        assert threaded.size_bytes == serial.size_bytes
        for index in range(serial.n_blocks):
            a, b = serial.block(index), threaded.block(index)
            assert a.n_rows == b.n_rows
            assert a.statistics == b.statistics
            for name in ("a", "s"):
                assert a.encoding_of(name) == b.encoding_of(name)
                assert list(a.decode_column(name)) == list(b.decode_column(name))


class TestParallelHelpers:
    def test_parallel_map_preserves_order(self):
        items = list(range(57))
        assert parallel_map(lambda x: x * x, items, workers=4) == [
            x * x for x in items
        ]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValidationError):
            resolve_workers(-2)

    def test_morsel_grouping(self, relation):
        engine = ParallelEngine(relation, workers=2, morsel_blocks=3)
        items = [(i, i * relation.block_size) for i in range(7)]
        morsels = engine.morsels(items)
        assert [m.n_blocks for m in morsels] == [3, 3, 1]
        assert [i for m in morsels for i in m.block_indices] == list(range(7))

    def test_engine_context_manager_closes_pool(self, relation):
        with ParallelEngine(relation, workers=2) as engine:
            engine.scan(Between("v", 0, 100))
        assert engine._pool is None

    def test_executor_context_manager_closes_pool(self, relation):
        with QueryExecutor(relation, config=EngineConfig(workers=2)) as executor:
            executor.count(Between("v", 0, 100))
        assert executor._engine._pool is None
        QueryExecutor(relation, config=EngineConfig(workers=1)).close()  # serial: no-op
