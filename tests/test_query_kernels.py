"""Parity and unit tests for the compressed-domain kernels.

The contract under test: every kernel in :mod:`repro.query.kernels` is
*exact* — with kernels on, filters, aggregates, group-bys and materialised
selections are bit-identical to the decode-then-compare baseline (an
engine with an empty ``KernelRegistry``), serial and parallel alike, over
every vertical encoding and with outlier-bearing horizontal columns in the
mix (which the registry must decline, falling back to decode).
"""

import ast
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64
from repro.encodings import ForBitPackEncoding
from repro.query import (
    DEFAULT_KERNELS,
    And,
    Avg,
    Between,
    Count,
    Engine,
    EngineConfig,
    Eq,
    In,
    Max,
    Min,
    Not,
    Or,
    ScanMetrics,
    Sum,
    Var,
    evaluate_block_predicate,
    materialize_columns,
)
from repro.storage import DiskRelation, Table, write_table

#: Every vertical scheme: the three a kernel serves, and RLE, frequency and
#: plain, which have no kernel and take the decode path.
SCHEMES = ("rle", "delta", "frequency", "for_bitpack", "dictionary", "plain")

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def compress(table, block_size=256, scheme=None):
    if scheme is None:
        plan = CompressionPlan.vertical_only(table.schema)
    else:
        builder = CompressionPlan.builder(table.schema)
        for name in table.column_names:
            builder.vertical(name, scheme)
        plan = builder.build()
    return TableCompressor(plan, block_size=block_size).compress(table)


def single_column_relation(values, scheme, block_size=256):
    table = Table.from_columns([("x", INT64, np.asarray(values, dtype=np.int64))])
    return compress(table, block_size=block_size, scheme=scheme)


def block_count(relation, predicate, metrics=None) -> int:
    """Matches of ``predicate`` with the kernels offered every block.

    Bypasses the zone maps, so no block is pruned or answered from its
    statistics before a kernel sees it.
    """
    return sum(
        int(np.count_nonzero(evaluate_block_predicate(block, predicate, metrics)))
        for block in relation
    )


def assert_query_parity(relation, predicate):
    """Kernel-on (serial + parallel) results equal the decode baseline."""
    agg = dict(n=Count(), s=Sum("x"), lo=Min("x"), hi=Max("x"), a=Avg("x"))
    with oracle.decode_engine() as decode:
        got = relation.query().where(predicate).agg(**agg).execute()
        with Engine(EngineConfig(workers=2)) as parallel:
            got_parallel = parallel.query(relation).where(predicate).agg(**agg).execute()
        want = decode.query(relation).where(predicate).agg(**agg).execute()
        for name in agg:
            assert got.scalar(name) == want.scalar(name), name
            assert got_parallel.scalar(name) == want.scalar(name), name

        grouped = relation.query().where(predicate).group_by("x").agg(n=Count(), s=Sum("x"))
        grouped_base = (
            decode.query(relation).where(predicate).group_by("x").agg(n=Count(), s=Sum("x"))
        )
        assert grouped.execute().columns == grouped_base.execute().columns

        rows = relation.query().where(predicate).select("x").execute()
        rows_base = decode.query(relation).where(predicate).select("x").execute()
    assert np.array_equal(np.asarray(rows.columns["x"]), np.asarray(rows_base.columns["x"]))


# -- strategies ---------------------------------------------------------------

run_heavy_values = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=40)),
    min_size=1,
    max_size=30,
).map(lambda runs: np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(np.int64))

constants = st.integers(min_value=-60, max_value=60)


def leaf_predicates():
    eq = constants.map(lambda v: Eq("x", v))
    between = st.tuples(constants, constants).map(
        lambda lo_hi: Between("x", min(lo_hi), max(lo_hi))
    )
    open_range = st.tuples(constants, st.booleans()).map(
        lambda b: Between("x", b[0], None) if b[1] else Between("x", None, b[0])
    )
    member = st.lists(constants, min_size=1, max_size=5).map(lambda vs: In("x", vs))
    return st.one_of(eq, between, open_range, member)


predicates = st.recursive(
    leaf_predicates(),
    lambda children: st.one_of(
        children.map(lambda c: Not(c)),
        st.tuples(children, children).map(lambda pair: And(*pair)),
        st.tuples(children, children).map(lambda pair: Or(*pair)),
    ),
    max_leaves=4,
)


class TestKernelParityProperties:
    @given(values=run_heavy_values, predicate=predicates, scheme=st.sampled_from(SCHEMES))
    @settings(max_examples=60, deadline=None)
    def test_every_encoding_matches_decode_baseline(self, values, predicate, scheme):
        relation = single_column_relation(values, scheme, block_size=64)
        assert_query_parity(relation, predicate)

    @given(values=run_heavy_values, predicate=predicates)
    @settings(max_examples=30, deadline=None)
    def test_monotonic_delta_matches_decode_baseline(self, values, predicate):
        relation = single_column_relation(np.sort(values), "delta", block_size=64)
        assert_query_parity(relation, predicate)

    @given(values=run_heavy_values, predicate=predicates)
    @settings(max_examples=30, deadline=None)
    def test_outlier_bearing_diff_column_declines_and_matches(self, values, predicate):
        # A horizontal (diff-encoded) target with outliers: the registry
        # must decline (the column has a dependency) and the decode
        # fallback must keep parity.
        base = np.arange(values.size, dtype=np.int64) * 3
        outliers = np.where(np.arange(values.size) % 17 == 0, 10_000, 0)
        table = Table.from_columns(
            [("base", INT64, base), ("x", INT64, base + values + outliers)]
        )
        plan = CompressionPlan.builder(table.schema).diff_encode("x", "base").build()
        relation = TableCompressor(plan, block_size=64).compress(table)
        block = relation.blocks[0]
        assert block.dependency("x") is not None
        assert DEFAULT_KERNELS.predicate_mask(block, "x", Eq("x", 0)) is None
        assert_query_parity(relation, predicate)


# -- the differential matrix ----------------------------------------------------

#: Value shapes: in-order, shuffled, run-heavy, and both ends of int64 where
#: a float64 round trip merges neighbouring values.
SHAPES = {
    "sorted": np.arange(-20, 80),
    "random": np.random.default_rng(7).integers(-10, 10, 100),
    "runs": np.repeat([5, -5, 0, 1, 5], 20),
    "near+2**62": 2**62 + np.arange(100),
    "near-2**62": -(2**62) - np.arange(100),
}

#: Constants a client can send: exact, integral and fractional floats, the
#: unordered and the infinite, beyond int64 on both sides, the wrong type.
CONSTANTS = (
    0, 5, -5, True, 5.0, 5.5, float("nan"), float("inf"), float("-inf"),
    2**63, -(2**63) - 1, 2**64, "5", np.int64(5),
)  # fmt: skip


#: kind -> predicate over column x; ``anchor`` is a value the column holds,
#: so ``In`` always has a hit.
QUESTIONS = {
    "eq": lambda c, anchor: Eq("x", c),
    "in": lambda c, anchor: In("x", [c] if isinstance(c, str) else [c, anchor]),
    "at_least": lambda c, anchor: Between("x", c, None),
    "at_most": lambda c, anchor: Between("x", None, c),
    "not_eq": lambda c, anchor: Not(Eq("x", c)),
    "not_at_least": lambda c, anchor: Not(Between("x", c, None)),
}


def _python_int_mismatches(relation, values, constants=CONSTANTS) -> list:
    """Every (question, constant, path) whose count differs from Python's.

    The paths: the default engine (zone maps, then kernels), the decode
    engine (zone maps, then decode), and the kernels offered every block.
    """
    anchor = int(values[5])
    rows = [{"x": int(x)} for x in values]
    mismatches = []
    with oracle.decode_engine() as decode:
        paths = {
            "default": lambda predicate: relation.query().where(predicate).count(),
            "decode": lambda predicate: decode.query(relation).where(predicate).count(),
            "per-block": lambda predicate: block_count(relation, predicate),
        }
        for kind, build in QUESTIONS.items():
            for constant in constants:
                predicate = build(constant, anchor)
                want = sum(oracle.matches(predicate, row) for row in rows)
                for label, count in paths.items():
                    got = count(predicate)
                    if got != want:
                        mismatches.append((kind, constant, label, got, want))
    return mismatches


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_path_agrees_with_python_ints(scheme, shape):
    """Kernels, decode and zone maps all answer what plain Python ints answer."""
    values = SHAPES[shape]
    relation = single_column_relation(values, scheme, block_size=32)
    assert _python_int_mismatches(relation, values) == []


#: FOR columns whose span does not fit int64: the offsets need all 64 bits.
WIDE_SHAPES = {
    "full int64": np.array([-(2**63), 2**63 - 1, 0] * 30),
    "span 2**63+1": np.array([-(2**62), 2**62 + 1, 0] * 30),
}


@pytest.mark.parametrize("shape", WIDE_SHAPES)
def test_for_encodes_spans_beyond_int64(shape):
    values = WIDE_SHAPES[shape].astype(np.int64)
    small = TableCompressor().compress(Table.from_columns([("x", INT64, values[:3])]))
    assert small.query().select("x").execute().columns["x"].tolist() == values[:3].tolist()

    scheme = ForBitPackEncoding()
    assert scheme.estimate_size(values, INT64) == scheme.encode(values, INT64).size_bytes

    relation = single_column_relation(values, "for_bitpack", block_size=32)
    column = relation.blocks[0].column("x")
    assert column.encoding_name == "for_bitpack"
    assert column.bit_width == 64
    assert np.array_equal(column.decode(), values[:32])
    wide = (-(2**63), -(2**62), -1, 0, 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63)
    assert _python_int_mismatches(relation, values, CONSTANTS + wide) == []


# -- one dispatch ---------------------------------------------------------------


def test_kernels_name_no_predicate_kind():
    """``query/kernels.py`` knows ``Predicate`` and nothing more specific."""
    kinds = {"Eq", "Between", "In", "And", "Or", "Not"}
    tree = ast.parse((SRC / "query" / "kernels.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "Predicate" in named
    assert named & kinds == set()


def test_the_second_dispatch_is_gone():
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for name in ("code_space_column", "evaluate_encoded", "use_dictionary"):
            assert name not in text, (path, name)
    assert "dictionary" in DEFAULT_KERNELS.encodings


class TestDictionaryKernel:
    def test_compound_subtree_unpacks_the_codes_once_per_block(self, monkeypatch):
        from repro.encodings.dictionary import DictEncodedIntColumn

        values = np.random.default_rng(2).integers(0, 40, 512).astype(np.int64)
        relation = single_column_relation(values, "dictionary", block_size=128)
        unpack, calls = DictEncodedIntColumn.codes, []
        monkeypatch.setattr(
            DictEncodedIntColumn, "codes", lambda self: calls.append(self) or unpack(self)
        )
        predicate = Or(And(Between("x", 3, 30), Not(Eq("x", 7))), In("x", [35, 39]))
        metrics = ScanMetrics()
        count = block_count(relation, predicate, metrics)
        assert len(calls) == relation.n_blocks
        assert count == int(predicate.evaluate({"x": values}).sum())
        assert metrics.rows_dict_evaluated == relation.n_rows
        assert metrics.rows_decoded == 0

    def test_string_leaves_and_group_by_stay_in_code_space(self):
        from repro.dtypes import STRING

        tags = [f"tag_{i % 9:02d}" for i in range(600)]
        relation = compress(Table.from_columns([("t", STRING, tags)]), block_size=200)
        assert relation.block(0).encoding_of("t") == "dictionary"
        for predicate in (
            Eq("t", "tag_03"),
            In("t", ["tag_01", "tag_08", "absent"]),
            Between("t", "tag_02", "tag_05"),
        ):
            metrics = ScanMetrics()
            count = block_count(relation, predicate, metrics)
            assert count == int(predicate.evaluate({"t": tags}).sum())
            assert metrics.rows_dict_evaluated == relation.n_rows
            assert metrics.rows_decoded == 0
        grouped = relation.query().group_by("t").agg(n=Count()).execute()
        assert grouped.columns["t"] == sorted(set(tags))
        assert grouped.metrics.rows_kernel_aggregated == relation.n_rows
        assert grouped.metrics.rows_gathered == 0


class TestForKernel:
    def test_word_space_between_avoids_decoding(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 65_536, size=4_000).astype(np.int64)
        relation = single_column_relation(values, "for_bitpack", block_size=4_000)
        result = relation.query().where(Between("x", 1_000, 2_000)).agg(n=Count()).execute()
        assert result.scalar("n") == int(((values >= 1_000) & (values <= 2_000)).sum())
        assert result.metrics.rows_decoded == 0
        assert result.metrics.rows_for_evaluated == values.size

    @pytest.mark.parametrize("path", ["count", "select", "agg", "group_by", "top-k"])
    def test_an_injected_registry_reaches_every_path(self, path):
        values = np.random.default_rng(5).integers(0, 65_536, size=4_000).astype(np.int64)
        relation = single_column_relation(values, "for_bitpack", block_size=4_000)
        with oracle.decode_engine() as decode:
            for chain, for_evaluated in ((relation.query(), values.size), (decode.query(relation), 0)):
                chain = chain.where(Between("x", 100, 300))
                if path == "count":
                    assert chain.count() == int(((values >= 100) & (values <= 300)).sum())
                    metrics = chain.last_metrics
                else:
                    chain = {
                        "select": chain.select("x"),
                        "agg": chain.agg(n=Count(), s=Sum("x")),
                        "group_by": chain.group_by("x").agg(n=Count()),
                        "top-k": chain.select("x").order_by("x").limit(3),
                    }[path]
                    metrics = chain.execute().metrics
                assert metrics.rows_for_evaluated == for_evaluated, engine
                assert metrics.rows_decoded == values.size - for_evaluated, engine

    def test_out_of_domain_bounds_clamp(self):
        values = np.arange(100, 200, dtype=np.int64)
        relation = single_column_relation(values, "for_bitpack")
        for low, high, expected in [
            (-(10**9), 10**9, 100),  # clamps to the full domain
            (150, 10**9, 50),
            (300, 400, 0),  # zone map prunes or the kernel returns all-false
        ]:
            result = relation.query().where(Between("x", low, high)).agg(n=Count()).execute()
            assert result.scalar("n") == expected

    def test_non_integer_constants_fall_back_to_decode(self):
        values = np.arange(50, dtype=np.int64)
        relation = single_column_relation(values, "for_bitpack", block_size=50)
        block = relation.blocks[0]
        assert DEFAULT_KERNELS.predicate_mask(block, "x", Eq("x", 1.5)) is None
        mask = DEFAULT_KERNELS.predicate_mask(block, "x", Eq("x", 7))
        assert mask is not None and int(mask.sum()) == 1


class TestDeltaKernel:
    def test_monotonic_range_is_two_binary_searches(self):
        values = np.cumsum(np.random.default_rng(3).integers(0, 4, size=5_000)).astype(np.int64)
        relation = single_column_relation(values, "delta", block_size=5_000)
        result = relation.query().where(Between("x", 500, 900)).agg(n=Count()).execute()
        assert result.scalar("n") == int(((values >= 500) & (values <= 900)).sum())
        assert result.metrics.rows_decoded == 0
        assert result.metrics.rows_for_evaluated == values.size

    def test_non_monotonic_column_declines(self):
        values = np.array([5, 1, 9, 2, 8, 3] * 20, dtype=np.int64)
        relation = single_column_relation(values, "delta", block_size=values.size)
        block = relation.blocks[0]
        assert DEFAULT_KERNELS.predicate_mask(block, "x", Between("x", 2, 8)) is None
        result = relation.query().where(Between("x", 2, 8)).agg(n=Count()).execute()
        assert result.scalar("n") == int(((values >= 2) & (values <= 8)).sum())
        assert result.metrics.rows_decoded == values.size


#: Run-heavy and skewed columns (the inputs RLE and frequency are built
#: for), for the schemes that have no kernel.
KERNELLESS_VALUES = {
    "runs": np.repeat(np.arange(100, dtype=np.int64) % 7, 80),
    "skewed": np.where(
        np.random.default_rng(11).random(3_000) < 0.9,
        42,
        np.random.default_rng(12).integers(0, 500, 3_000),
    ).astype(np.int64),
}


@pytest.mark.parametrize("shape", KERNELLESS_VALUES)
@pytest.mark.parametrize("scheme", ["rle", "frequency"])
def test_kernelless_schemes_answer_like_the_oracle(scheme, shape):
    """RLE and frequency columns decode; every query shape matches the oracle."""
    values = KERNELLESS_VALUES[shape]
    table = Table.from_columns([("x", INT64, values)])
    relation = compress(table, block_size=1_000, scheme=scheme)
    assert relation.block(0).encoding_of("x") == scheme
    agg = dict(n=Count(), s=Sum("x"), lo=Min("x"), hi=Max("x"), a=Avg("x"), v=Var("x"))
    with oracle.decode_engine() as decode:
        for predicate in (
            Or(Eq("x", 2), Not(Between("x", 0, 4))),
            Between("x", 1, 42),
            In("x", [3, 42, 499]),
            Not(In("x", [*range(7), 42])),  # selects no row of "runs"
        ):
            for chain in (relation.query(), decode.query(relation)):
                chain = chain.where(predicate)
                assert chain.count() == len(oracle.filter_rows(table, predicate))
                assert chain.last_metrics.kernel_declines == 0
                assert chain.agg(**agg).execute().columns == oracle.group_by(
                    table, predicate, (), agg
                )
                grouped = chain.group_by("x").agg(n=Count(), s=Sum("x")).execute()
                assert grouped.columns == oracle.group_by(
                    table, predicate, ("x",), dict(n=Count(), s=Sum("x"))
                )
                for descending in (False, True):
                    for k in (5, 100):
                        top = chain.select("x").order_by("x", desc=descending).limit(k)
                        assert top.execute().row_ids.tolist() == oracle.order_by(
                            table, predicate, "x", descending, k
                        )


class TestParallelMaterialize:
    def test_workers_match_serial(self, rng):
        table = Table.from_columns(
            [(f"c{i}", INT64, rng.integers(0, 1_000, 4_000).astype(np.int64)) for i in range(4)]
        )
        relation = compress(table, block_size=500)
        selection = np.flatnonzero(rng.random(4_000) < 0.3)
        names = ["c0", "c2", "c3"]
        serial = materialize_columns(relation, names, selection)
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = materialize_columns(relation, names, selection, pool=pool)
        for name in names:
            assert np.array_equal(np.asarray(serial[name]), np.asarray(threaded[name]))


class TestCoalescedReads:
    @pytest.fixture
    def table_path(self, rng, tmp_path):
        table = Table.from_columns(
            [(f"c{i}", INT64, rng.integers(0, 1_000, 2_000).astype(np.int64)) for i in range(6)]
        )
        relation = compress(table, block_size=500)
        path = tmp_path / "wide.corra"
        write_table(path, relation)
        return path, relation

    def test_adjacent_segments_merge_into_one_read(self, table_path):
        path, relation = table_path
        with DiskRelation(path, prefetch_workers=0) as disk:
            query = disk.query().where(Between("c0", 0, 2_000)).select("c1", "c2", "c3")
            result = query.execute()
            want = (
                relation.query().where(Between("c0", 0, 2_000)).select("c1", "c2", "c3").execute()
            )
            for name in ("c1", "c2", "c3"):
                assert np.array_equal(
                    np.asarray(result.columns[name]), np.asarray(want.columns[name])
                )
            # c1..c3 are byte-adjacent in every block: each block's three
            # segments coalesce into one ranged read (two reads saved).
            assert disk.io.reads_coalesced > 0
            assert disk.io.columns_read > disk.io.reads_coalesced

    def test_single_column_reads_never_coalesce(self, table_path):
        path, _ = table_path
        with DiskRelation(path, prefetch_workers=0) as disk:
            disk.query().where(Between("c0", 0, 2_000)).agg(n=Count()).execute()
            assert disk.io.reads_coalesced == 0

    def test_warm_cache_skips_the_coalesced_path(self, table_path):
        path, _ = table_path
        with DiskRelation(path, prefetch_workers=0) as disk:
            query = disk.query().where(Between("c0", 0, 2_000)).select("c1", "c2")
            query.execute()
            cold = disk.io.reads_coalesced
            assert cold > 0
            query.execute()
            assert disk.io.reads_coalesced == cold  # everything was cached
