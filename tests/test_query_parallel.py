"""Tests for parallel execution on the engine's pool, dictionary-domain
predicate evaluation, planner memoization, and parallel block compression."""

from __future__ import annotations

import ast
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    Count,
    Engine,
    EngineConfig,
    Eq,
    In,
    Or,
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
    def test_scan_identical_across_worker_counts(self, relation, engines, predicate):
        expected = relation.query().where(predicate).execute()
        for workers in WORKER_COUNTS:
            query = engines[workers].query(relation).where(predicate)
            result = query.execute()
            assert np.array_equal(result.row_ids, expected.row_ids)
            assert query.count() == expected.row_ids.size
            # Metrics totals must agree: planning is shared and every
            # block is evaluated exactly once regardless of scheduling.
            for field in (
                "n_blocks", "blocks_scanned", "blocks_pruned",
                "blocks_full", "rows_total", "rows_decoded",
                "rows_matched", "rows_dict_evaluated",
                "string_heap_decodes",
            ):
                assert getattr(result.metrics, field) == getattr(expected.metrics, field)

    @settings(max_examples=20, deadline=None)
    @given(predicate=_predicates)
    def test_dictionary_domain_matches_decode_path(self, relation, predicate):
        with_dict = relation.query().where(predicate).execute().row_ids
        with oracle.decode_engine() as decode:
            without = decode.query(relation).where(predicate).execute().row_ids
        assert np.array_equal(with_dict, without)

    def test_pooled_results_are_sorted_and_complete(self, relation):
        with Engine(EngineConfig(workers=4)) as engine:
            result = engine.query(relation).where(Between("v", 0, 499)).select("v").execute()
        assert np.array_equal(result.row_ids, np.arange(relation.n_rows))
        assert result.metrics.rows_matched == relation.n_rows

    def test_opaque_predicates_run_in_parallel(self, relation, engines):
        predicate = oracle.Opaque(
            "tag", lambda values: np.char.endswith(values, "7"), "tag ends with 7"
        )
        serial = relation.query().where(predicate).execute().row_ids
        threaded = engines[4].query(relation).where(predicate).execute().row_ids
        assert np.array_equal(serial, threaded)


class TestDictionaryDomain:
    def test_eq_decodes_zero_string_heaps(self, relation):
        query = relation.query().where(Eq("tag", "tag_07"))
        query.count()
        metrics = query.last_metrics
        assert metrics.string_heap_decodes == 0
        assert metrics.rows_dict_evaluated == relation.n_rows
        # Code-space-only blocks materialise nothing at all.
        assert metrics.rows_decoded == 0

    def test_decode_path_pays_heap_decodes(self, relation):
        with oracle.decode_engine() as decode:
            query = decode.query(relation).where(Eq("tag", "tag_07"))
            query.count()
        metrics = query.last_metrics
        assert metrics.rows_dict_evaluated == 0
        assert metrics.string_heap_decodes == relation.n_rows
        assert metrics.rows_decoded == relation.n_rows

    def test_absent_and_mistyped_values_match_nothing(self, relation):
        for predicate in (Eq("tag", "no_such_tag"), Eq("tag", 123), In("tag", ["nope", "x"])):
            query = relation.query().where(predicate)
            assert query.count() == 0
            assert query.last_metrics.string_heap_decodes == 0

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
            for query in (rel.query(), decode.query(rel), parallel.query(rel)):
                assert query.where(Eq("c", 5.0)).count() == expected
                assert query.where(Eq("c", True)).count() == 0
                assert query.where(In("c", [5.0, 5.5])).count() == expected

    def test_leaf_statistics_shortcut_inside_compound(self, relation):
        # "absent" sorts outside every block's [min, max], so the tag leaf of
        # the Or is answered all-false from statistics without any code
        # unpack — and the result must still match the decode path.
        predicate = Or(Eq("v", 5), Eq("tag", "absent"))
        with_dict = relation.query().where(predicate).execute().row_ids
        with oracle.decode_engine() as decode:
            without = decode.query(relation).where(predicate).execute().row_ids
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
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert parallel_map(lambda x: x * x, items, pool) == [x * x for x in items]
        assert parallel_map(lambda x: x * x, items) == [x * x for x in items]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValidationError):
            resolve_workers(-2)

    def test_engine_context_manager_closes_pool(self, relation):
        with Engine(EngineConfig(workers=2)) as engine:
            engine.query(relation).where(Between("v", 0, 100)).count()
            assert engine._pool is not None
        assert engine._pool is None


class TestFailureStopsTheQuery:
    """A block that raises cancels the blocks no worker has started yet."""

    N_BLOCKS = 64

    def _failing_predicate(self, evaluated: list):
        lock = threading.Lock()

        def condition(values):
            with lock:
                evaluated.append(int(values[0]))
            time.sleep(0.005)
            if values[0] == 0:
                raise RuntimeError("block 0 is corrupt")
            return values >= 0

        return oracle.Opaque("b", condition, description="b >= 0 (fails on block 0)")

    @pytest.mark.parametrize("terminal", ["select", "agg"])
    def test_failing_block_stops_a_parallel_query(self, terminal):
        block_size = 32
        blocks = np.repeat(np.arange(self.N_BLOCKS, dtype=np.int64), block_size)
        table = Table.from_columns([("b", INT64, blocks)])
        relation = TableCompressor(block_size=block_size).compress(table)
        evaluated: list[int] = []
        engine = Engine(EngineConfig(workers=2))
        query = engine.query(relation).where(self._failing_predicate(evaluated))
        query = query.select("b") if terminal == "select" else query.agg(n=Count())
        with pytest.raises(RuntimeError, match="block 0 is corrupt"):
            query.execute()
        engine.close()  # joins the pool: every started block has finished
        assert 0 in evaluated
        assert len(evaluated) <= 8, f"{len(evaluated)} of {self.N_BLOCKS} blocks evaluated"


# -- one scheduler -------------------------------------------------------------

QUERY_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "query"
#: Identifiers of the work-stealing scheduler the query layer used to carry.
SCHEDULER_WORDS = ("morsel", "parallelengine", "map_items", "steal", "deque")


def scheduler_leftovers(root: Path) -> list[str]:
    """``file:line what`` for every second scheduler or private pool under ``root``.

    Flags a ``ThreadPoolExecutor(...)`` call outside ``engine.py`` (the
    engine owns the one pool) and any identifier, import or span name
    containing one of :data:`SCHEDULER_WORDS`.
    """
    found = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Call) and path.name != "engine.py":
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == "ThreadPoolExecutor":
                    found.add((*where, "ThreadPoolExecutor()"))
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.arg):
                names = [node.arg]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value] if node.value.isidentifier() else []
            else:
                names = []
            for name in names:
                if any(word in name.lower() for word in SCHEDULER_WORDS):
                    found.add((*where, name))
    return [f"{name}:{line} {what}" for name, line, what in sorted(found)]


def test_query_layer_has_one_scheduler():
    assert scheduler_leftovers(QUERY_SRC) == []


def test_the_walk_sees_every_leftover(tmp_path):
    (tmp_path / "plan.py").write_text(
        "from collections import deque\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "class Morsel: ...\n"
        "def run(engine, map_items):\n"
        "    pool = ThreadPoolExecutor(2)\n"
        "    engine.steal_attempts += 1\n"
        "    return ParallelEngine, 'steal'\n"
    )
    (tmp_path / "engine.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor\npool = ThreadPoolExecutor(2)\n"
    )
    assert scheduler_leftovers(tmp_path) == [
        "plan.py:1 deque",
        "plan.py:3 Morsel",
        "plan.py:4 map_items",
        "plan.py:5 ThreadPoolExecutor()",
        "plan.py:6 steal_attempts",
        "plan.py:7 ParallelEngine",
        "plan.py:7 steal",
    ]
