"""Tests for ORDER BY / top-k, skewed parallel scans, HAVING and var/std.

The contracts under test:

* ``order_by`` (and the fused ``order_by().limit(k)`` top-k) returns rows
  in total order — sort key, then ascending row id on ties — bit-identical
  across serial execution, parallel execution on the engine's pool and
  out-of-core tables.  That holds at the ends of int64 too, and a block's bounded
  top-k selection equals the first ``k`` of its full stable sort.
* A skewed workload (a few slow blocks among cheap ones) on the engine's
  pool returns exactly the serial result.
* The zone-map-driven top-k visits only the blocks whose bounds can still
  beat the k-th candidate; on a clustered disk table skipped blocks are
  never fetched.
* ``having`` filters aggregated rows by output name; ``Var``/``Std`` are
  exact population moments.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import (
    Aggregate,
    Between,
    Count,
    Eq,
    Limit,
    Min,
    Project,
    QueryCompiler,
    RleKernel,
    Scan,
    Sort,
    Std,
    Sum,
    TopK,
    Var,
)
from repro.query.plan import _ranked_positions
from repro.server.protocol import build_query, parse_request
from repro.storage import DiskRelation, Table, write_table

TAGS = [f"tag_{i:02d}" for i in range(12)]
WORKER_COUNTS = (1, 2, 4)


def _make_table(n_rows: int = 3000, seed: int = 11) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_columns([
        ("v", INT64, rng.integers(0, 500, n_rows)),
        ("tag", STRING, [TAGS[i] for i in rng.integers(0, len(TAGS), n_rows)]),
    ])


def _make_relation(n_rows: int = 3000, block_size: int = 256, seed: int = 11):
    return TableCompressor(block_size=block_size).compress(_make_table(n_rows, seed))


@pytest.fixture(scope="module")
def table():
    return _make_table()


@pytest.fixture(scope="module")
def relation(table):
    return TableCompressor(block_size=256).compress(table)


@pytest.fixture(scope="module")
def disk_relation(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("topk") / "t.corra"
    write_table(str(path), TableCompressor(block_size=256).compress(table))
    with DiskRelation(str(path), prefetch_workers=0) as disk:
        yield disk


# -- parity: order_by / top-k across workers and storage ----------------------


class TestOrderedParity:
    """Ordered output is bit-identical to the numpy reference everywhere."""

    @settings(max_examples=25, deadline=None)
    @given(
        lo=st.integers(-10, 510),
        hi=st.integers(-10, 510),
        descending=st.booleans(),
        k=st.one_of(st.none(), st.integers(0, 40)),
        order_column=st.sampled_from(["v", "tag"]),
    )
    def test_matches_reference_across_workers(
        self, table, relation, engines, lo, hi, descending, k, order_column
    ):
        lo, hi = min(lo, hi), max(lo, hi)
        keys = oracle.column(table, order_column)
        expected_ids = oracle.order_by(table, Between("v", lo, hi), order_column, descending, k)
        expected = [keys[i] for i in expected_ids]

        for workers in WORKER_COUNTS:
            query = (
                engines[workers].query(relation)
                .where(Between("v", lo, hi))
                .select(order_column)
                .order_by(order_column, desc=descending)
            )
            if k is not None:
                query = query.limit(k)
            got = list(query.execute().columns[order_column])
            assert got == expected, (workers, lo, hi, descending, k)

    @settings(max_examples=10, deadline=None)
    @given(descending=st.booleans(), k=st.integers(1, 25))
    def test_disk_topk_matches_in_memory(self, table, relation, disk_relation, descending, k):
        in_memory = (
            relation.query().select("v", "tag").order_by("v", desc=descending).limit(k).execute()
        )
        on_disk = (
            disk_relation.query()
            .select("v", "tag")
            .order_by("v", desc=descending)
            .limit(k)
            .execute()
        )
        assert list(on_disk.columns["v"]) == list(in_memory.columns["v"])
        assert list(on_disk.columns["tag"]) == list(in_memory.columns["tag"])

    @pytest.mark.parametrize("descending", [False, True])
    def test_topk_and_decode_match_the_oracle(self, table, relation, descending):
        expected = oracle.order_by(table, None, "v", descending, limit=9)
        with oracle.decode_engine() as decode:
            for query in (relation.query(), decode.query(relation)):
                result = (
                    query.select("v")
                    .order_by("v", desc=descending)
                    .limit(9)
                    .execute()
                )
                assert result.row_ids.tolist() == expected

    def test_limit_zero_returns_no_rows_and_prunes_everything(self, relation):
        result = relation.query().select("v").order_by("v").limit(0).execute()
        assert result.n_rows == 0
        assert result.metrics.blocks_pruned == result.metrics.n_blocks


# -- descending order at the ends of int64 -------------------------------------

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class TestDescendingInt64Extremes:
    """``-x`` wraps at ``-2**63``; descending order must not."""

    VALUES = np.array([INT64_MIN, INT64_MIN + 10, -5, INT64_MIN + 3] * 50, dtype=np.int64)

    @pytest.fixture(scope="class", params=["dictionary", "for_bitpack", "rle"])
    def relations(self, request, tmp_path_factory):
        table = Table.from_columns([("v", INT64, self.VALUES)])
        builder = CompressionPlan.builder(table.schema)
        builder.vertical("v", request.param)
        relation = TableCompressor(builder.build(), block_size=64).compress(table)
        assert relation.blocks[0].column("v").encoding_name == request.param
        path = tmp_path_factory.mktemp("extremes") / f"{request.param}.corra"
        write_table(str(path), relation)
        with DiskRelation(str(path), prefetch_workers=0) as disk:
            yield relation, disk

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("k", (None, 1, 3, 60, 120))
    def test_desc_ranks_like_python_ints(self, relations, engines, workers, k):
        keys = [int(v) for v in self.VALUES]
        expected = sorted(range(len(keys)), key=lambda i: (-keys[i], i))[:k]
        for relation in relations:
            query = engines[workers].query(relation).select("v").order_by("v", desc=True)
            if k is not None:
                query = query.limit(k)
            result = query.execute()
            assert result.row_ids.tolist() == expected
            assert [int(v) for v in result.columns["v"]] == [keys[i] for i in expected]


class TestBoundedTopkSelection:
    """The per-block partition-then-sort equals a full stable sort's first ``k``."""

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.one_of(
                st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
                st.integers(INT64_MIN, INT64_MAX),
            ),
            max_size=120,
        ),
        k=st.integers(0, 130),
        descending=st.booleans(),
    )
    def test_matches_full_stable_sort(self, keys, k, descending):
        array = np.asarray(keys, dtype=np.int64)
        expected = sorted(range(len(keys)), key=lambda i: (-keys[i] if descending else keys[i], i))
        assert _ranked_positions(array, k, descending).tolist() == expected[:k]

    @pytest.mark.parametrize("descending", (False, True))
    def test_ties_straddling_k_keep_ascending_positions(self, descending):
        keys = np.array([7, 3, 3, 9, 3, 3, 1, 3], dtype=np.int64)
        expected = sorted(range(keys.size), key=lambda i: (-keys[i] if descending else keys[i], i))
        for k in range(keys.size + 2):
            assert _ranked_positions(keys, k, descending).tolist() == expected[:k]

    @pytest.mark.parametrize("descending", (False, True))
    @pytest.mark.parametrize("shape", ("all_equal", "ties_straddle_k", "distinct"))
    def test_no_sort_sees_more_than_k_keys(self, monkeypatch, descending, shape):
        n, k = 200_000, 10
        rng = np.random.default_rng(3)
        keys = np.full(n, 5, dtype=np.int64)
        if shape == "ties_straddle_k":
            # A few better keys, then the k-th key's ties fill the rest of the block.
            keys[rng.choice(n, k // 2, replace=False)] = 6 if descending else 4
        elif shape == "distinct":
            keys = rng.permutation(n).astype(np.int64)
        sorted_sizes = []
        argsort = np.argsort

        def recording_argsort(array, *args, **kwargs):
            sorted_sizes.append(np.size(array))
            return argsort(array, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording_argsort)
        best = _ranked_positions(keys, k, descending)
        monkeypatch.undo()
        order = -keys if descending else keys
        assert best.tolist() == argsort(order, kind="stable")[:k].tolist()
        assert sorted_sizes and max(sorted_sizes) < k


# -- skewed parallel scans ---------------------------------------------------


class TestSkewedParallelScan:
    """Slow blocks among cheap ones never change a pooled result."""

    def _skewed_relation(self, block_size=128, n_blocks=16):
        # First half of the blocks carries marker 0 (cheap), second half
        # marker 1 (slow): the pool's shared queue hands whichever worker is
        # idle the next block, so blocks finish far out of order.
        half = (n_blocks // 2) * block_size
        marker = np.concatenate([
            np.zeros(half, dtype=np.int64),
            np.ones(half, dtype=np.int64),
        ])
        table = Table.from_columns([("m", INT64, marker)])
        return TableCompressor(block_size=block_size).compress(table)

    def _slow_predicate(self):
        def condition(values):
            if values.max(initial=0) > 0:
                time.sleep(0.02)
            return values >= 0

        return oracle.Opaque("m", condition, description="m >= 0 (slowed)")

    def test_skewed_workload_stays_bit_identical(self, engines):
        skewed = self._skewed_relation()
        serial = skewed.query().where(self._slow_predicate()).select("m").execute()
        parallel = engines[2].query(skewed).where(self._slow_predicate()).select("m").execute()
        assert list(parallel.columns["m"]) == list(serial.columns["m"])
        assert np.array_equal(parallel.row_ids, serial.row_ids)


# -- zone-map early exit ------------------------------------------------------


class TestEarlyExit:
    """Top-k over a clustered column visits a fraction of the blocks."""

    def _clustered(self, n_rows=20_000, block_size=512):
        rng = np.random.default_rng(3)
        table = Table.from_columns([
            ("ts", INT64, np.sort(rng.integers(0, 1_000_000, n_rows))),
            ("payload", INT64, rng.integers(0, 1000, n_rows)),
        ])
        return table, TableCompressor(block_size=block_size).compress(table)

    def test_skipped_blocks_are_never_fetched(self, tmp_path):
        table, relation = self._clustered()
        path = tmp_path / "clustered.corra"
        write_table(str(path), relation)
        expected = np.asarray(table.column("ts"), dtype=np.int64)
        with DiskRelation(str(path), prefetch_workers=0) as disk:
            for descending in (False, True):
                result = disk.query().select("ts").order_by("ts", desc=descending).limit(20).execute()
                ref = np.sort(expected)[::-1][:20] if descending else np.sort(expected)[:20]
                assert list(result.columns["ts"]) == ref.tolist()
                metrics = result.metrics
                visited = metrics.blocks_scanned + metrics.blocks_full
                assert visited <= 0.25 * metrics.n_blocks
                assert metrics.blocks_pruned == metrics.n_blocks - visited

    def test_early_exit_counts_blocks_as_pruned_in_memory(self):
        _, relation = self._clustered()
        result = relation.query().select("ts").order_by("ts").limit(10).execute()
        metrics = result.metrics
        assert metrics.blocks_pruned > 0.7 * metrics.n_blocks


# -- plan shapes and builder validation ---------------------------------------


class TestPlanShapes:
    def test_sort_below_project_is_rejected(self, relation):
        compiler = QueryCompiler(relation)
        plan = Project(Sort(Scan(relation), "v"), ("v",))
        with pytest.raises(ValidationError):
            compiler.compile(plan)

    def test_two_sort_nodes_are_rejected(self, relation):
        compiler = QueryCompiler(relation)
        plan = Sort(Sort(Scan(relation), "v"), "tag")
        with pytest.raises(ValidationError):
            compiler.compile(plan)

    def test_sort_over_aggregate_is_rejected(self, relation):
        compiler = QueryCompiler(relation)
        plan = Sort(Aggregate(Scan(relation), (("n", Count()),)), "n")
        with pytest.raises(ValidationError):
            compiler.compile(plan)

    def test_topk_keeps_tighter_enclosing_limit(self, relation):
        compiler = QueryCompiler(relation)
        compiled = compiler.compile(Limit(TopK(Scan(relation), column="v", k=7), 3))
        assert compiled.limit == 3
        compiled = compiler.compile(Limit(TopK(Scan(relation), column="v", k=2), 9))
        assert compiled.limit == 2

    def test_negative_k_is_rejected(self, relation):
        compiler = QueryCompiler(relation)
        with pytest.raises(ValidationError):
            compiler.compile(TopK(Scan(relation), column="v", k=-1))

    def test_order_by_rejects_aggregate_chains(self, relation):
        with pytest.raises(ValidationError):
            relation.query().agg(n=Count()).order_by("n")
        with pytest.raises(ValidationError):
            relation.query().order_by("v").agg(n=Count())
        with pytest.raises(ValidationError):
            relation.query().order_by("v").group_by("tag")

    def test_order_by_rejects_empty_column(self, relation):
        with pytest.raises(ValidationError):
            relation.query().order_by("")

    def test_having_requires_aggregation(self, relation):
        query = relation.query().having(Eq("n", 1)).select("v")
        with pytest.raises(ValidationError):
            query.execute()

    def test_having_must_reference_output_columns(self, relation):
        query = relation.query().group_by("tag").agg(n=Count()).having(Eq("v", 1))
        with pytest.raises(ValidationError):
            query.execute()

    def test_count_terminal_rejects_having(self, relation):
        query = relation.query().agg(n=Count()).having(Eq("n", 1))
        with pytest.raises(ValidationError):
            query.count()

    def test_explain_renders_sort_and_topk(self, relation):
        assert "Sort [v desc]" in relation.query().select("v").order_by("v", desc=True).explain()
        text = relation.query().select("v").order_by("v").limit(3).explain()
        assert "TopK [v asc, k=3]" in text


# -- fingerprints -------------------------------------------------------------


class TestFingerprints:
    def _fingerprint(self, relation, query):
        return QueryCompiler(relation).compile(query.logical_plan()).fingerprint()

    def test_order_direction_and_k_are_canonical(self, relation):
        asc = self._fingerprint(relation, relation.query().select("v").order_by("v"))
        desc = self._fingerprint(
            relation, relation.query().select("v").order_by("v", desc=True)
        )
        assert asc is not None and desc is not None
        assert asc != desc
        k3 = self._fingerprint(relation, relation.query().select("v").order_by("v").limit(3))
        k4 = self._fingerprint(relation, relation.query().select("v").order_by("v").limit(4))
        assert k3 != k4

    def test_having_participates_in_fingerprint(self, relation):
        base = relation.query().group_by("tag").agg(n=Count())
        plain = self._fingerprint(relation, base)
        having = self._fingerprint(relation, base.having(Between("n", 10, 1000)))
        assert plain is not None and having is not None
        assert plain != having

    def test_protocol_order_by_shapes_share_a_fingerprint(self, relation):
        terse = parse_request({"table": "t", "order_by": "v", "select": ["v"], "k": 5})
        verbose = parse_request({
            "table": "t",
            "order_by": {"column": "v", "desc": False},
            "select": ["v"],
            "limit": 5,
        })
        a = self._fingerprint(relation, build_query(relation.query(), terse))
        b = self._fingerprint(relation, build_query(relation.query(), verbose))
        assert a is not None
        assert a == b


# -- kernel declines ----------------------------------------------------------


class TestKernelDeclines:
    def _rle_relation(self):
        values = np.repeat(np.arange(20, dtype=np.int64), 100)
        table = Table.from_columns([("x", INT64, values)])
        builder = CompressionPlan.builder(table.schema)
        builder.vertical("x", "rle")
        return TableCompressor(builder.build(), block_size=256).compress(table)

    def test_opaque_predicate_over_rle_counts_declines(self):
        relation = self._rle_relation()
        opaque = oracle.Opaque("x", lambda values: values % 2 == 0, "x is even")
        result = relation.query().where(opaque).select("x").execute()
        assert list(result.columns["x"]) == [v for v in range(0, 20, 2) for _ in range(100)]
        assert result.metrics.kernel_declines > 0

    def test_run_space_predicate_does_not_decline(self):
        relation = self._rle_relation()
        result = relation.query().where(Between("x", 3, 7)).select("x").execute()
        assert result.metrics.kernel_declines == 0
        assert result.metrics.rows_rle_evaluated > 0

    def test_declines_surface_in_explain_analyze(self):
        relation = self._rle_relation()
        opaque = oracle.Opaque("x", lambda values: values % 2 == 0, "x is even")
        text = relation.query().where(opaque).select("x").limit(1).explain(analyze=True)
        assert "kernel declines" in text


# -- RLE run-space top-k ------------------------------------------------------


class TestRleTopk:
    def _column(self, values):
        table = Table.from_columns([("x", INT64, np.asarray(values, dtype=np.int64))])
        builder = CompressionPlan.builder(table.schema)
        builder.vertical("x", "rle")
        relation = TableCompressor(builder.build(), block_size=len(values)).compress(table)
        block = relation.blocks[0]
        return block.column("x")

    def test_best_first_with_ascending_position_ties(self):
        values = [5, 5, 1, 1, 9, 9, 5, 5]
        column = self._column(values)
        mask = np.ones(len(values), dtype=bool)
        kernel = RleKernel()
        out_values, positions = kernel.topk(column, mask, k=4, descending=True)
        assert out_values.tolist() == [9, 9, 5, 5]
        assert positions.tolist() == [4, 5, 0, 1]
        out_values, positions = kernel.topk(column, mask, k=3, descending=False)
        assert out_values.tolist() == [1, 1, 5]
        assert positions.tolist() == [2, 3, 0]

    def test_mask_restricts_candidates(self):
        values = [5, 5, 1, 1, 9, 9]
        column = self._column(values)
        mask = np.array([False, True, True, False, False, True])
        out_values, positions = RleKernel().topk(column, mask, k=10, descending=True)
        assert out_values.tolist() == [9, 5, 1]
        assert positions.tolist() == [5, 1, 2]

    def test_empty_mask_returns_empty(self):
        values = [5, 5, 1]
        column = self._column(values)
        mask = np.zeros(len(values), dtype=bool)
        out_values, positions = RleKernel().topk(column, mask, k=2, descending=False)
        assert out_values.size == 0
        assert positions.size == 0

    def test_non_rle_column_declines(self):
        assert RleKernel().topk(object(), np.ones(1, dtype=bool), 1, False) is None


# -- HAVING and var/std -------------------------------------------------------


class TestHavingAndMoments:
    def test_grouped_having_matches_reference(self, table, relation):
        tags = np.asarray(table.column("tag"))
        values = np.asarray(table.column("v"), dtype=np.int64)
        result = (
            relation.query()
            .group_by("tag")
            .agg(n=Count(), s=Sum("v"))
            .having(Between("n", 250, 10**9))
            .execute()
        )
        expected = {
            tag: int(np.sum(tags == tag))
            for tag in sorted(set(tags.tolist()))
            if np.sum(tags == tag) >= 250
        }
        assert dict(zip(result.columns["tag"], result.columns["n"])) == expected
        for tag, total in zip(result.columns["tag"], result.columns["s"]):
            assert total == int(values[tags == tag].sum())

    def test_having_applies_before_limit(self, relation, table):
        tags = np.asarray(table.column("tag"))
        counts = sorted(
            (int(np.sum(tags == tag)) for tag in set(tags.tolist())), reverse=True
        )
        qualifying = sum(1 for c in counts if c >= 200)
        result = (
            relation.query()
            .group_by("tag")
            .agg(n=Count())
            .having(Between("n", 200, 10**9))
            .limit(qualifying + 5)
            .execute()
        )
        assert result.n_rows == qualifying

    def test_ungrouped_having_drops_null_outputs(self, relation):
        # No rows match, so Min is None: a having over it drops the row
        # (SQL NULL semantics — a NULL never satisfies a predicate).
        empty = relation.query().where(Eq("v", -1)).agg(lo=Min("v"))
        result = empty.having(Between("lo", -(10**9), 10**9)).execute()
        assert result.n_rows == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200))
    def test_var_std_match_numpy(self, values):
        array = np.asarray(values, dtype=np.int64)
        table = Table.from_columns([("x", INT64, array)])
        relation = TableCompressor(block_size=64).compress(table)
        result = relation.query().agg(v=Var("x"), s=Std("x")).execute()
        assert result.scalar("v") == pytest.approx(array.var(), rel=1e-12, abs=1e-9)
        assert result.scalar("s") == pytest.approx(array.std(), rel=1e-12, abs=1e-9)

    def test_grouped_var_matches_numpy(self, table, relation):
        tags = np.asarray(table.column("tag"))
        values = np.asarray(table.column("v"), dtype=np.int64)
        result = relation.query().group_by("tag").agg(v=Var("v"), s=Std("v")).execute()
        for tag, var, std in zip(result.columns["tag"], result.columns["v"], result.columns["s"]):
            member = values[tags == tag]
            assert var == pytest.approx(member.var(), rel=1e-12, abs=1e-9)
            assert std == pytest.approx(member.std(), rel=1e-12, abs=1e-9)

    def test_var_over_rle_kernel_matches_decode_baseline(self):
        values = np.repeat(np.arange(-5, 15, dtype=np.int64), 37)
        table = Table.from_columns([("x", INT64, values)])
        builder = CompressionPlan.builder(table.schema)
        builder.vertical("x", "rle")
        relation = TableCompressor(builder.build(), block_size=128).compress(table)
        kernel = relation.query().where(Between("x", -2, 11)).agg(v=Var("x"), s=Std("x"))
        with oracle.decode_engine() as decode:
            baseline = decode.query(relation).where(Between("x", -2, 11))
            got, want = kernel.execute(), baseline.agg(v=Var("x"), s=Std("x")).execute()
        assert got.scalar("v") == pytest.approx(want.scalar("v"), rel=1e-12)
        assert got.scalar("s") == pytest.approx(want.scalar("s"), rel=1e-12)

    def test_var_rejects_string_columns(self, relation):
        with pytest.raises(ValidationError):
            relation.query().agg(v=Var("tag")).execute()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_having_and_var_parity_across_workers(self, table, relation, engines, workers):
        serial = (
            relation.query()
            .where(Between("v", 50, 450))
            .group_by("tag")
            .agg(n=Count(), v=Var("v"))
            .having(Between("n", 100, 10**9))
            .execute()
        )
        parallel = (
            engines[workers].query(relation)
            .where(Between("v", 50, 450))
            .group_by("tag")
            .agg(n=Count(), v=Var("v"))
            .having(Between("n", 100, 10**9))
            .execute()
        )
        assert list(parallel.columns["tag"]) == list(serial.columns["tag"])
        assert list(parallel.columns["n"]) == list(serial.columns["n"])
        assert list(parallel.columns["v"]) == pytest.approx(list(serial.columns["v"]))


# -- wire protocol ------------------------------------------------------------


class TestProtocol:
    def test_order_by_string_and_object_forms(self):
        request = parse_request({"table": "t", "select": ["v"], "order_by": "v"})
        assert request.order_by == "v" and request.order_desc is False
        request = parse_request({
            "table": "t",
            "select": ["v"],
            "order_by": {"column": "v", "desc": True},
            "k": 3,
        })
        assert request.order_by == "v" and request.order_desc is True
        assert request.limit == 3

    def test_having_parses_over_aggregates(self):
        request = parse_request({
            "table": "t",
            "aggregates": {"n": {"fn": "count"}},
            "having": {"op": "eq", "column": "n", "value": 3},
        })
        assert request.having is not None

    def test_var_and_std_aggregates_parse(self):
        request = parse_request({
            "table": "t",
            "aggregates": {"v": {"fn": "var", "column": "x"}, "s": {"fn": "std", "column": "x"}},
        })
        names = dict(request.aggregates)
        assert isinstance(names["v"], Var)
        assert isinstance(names["s"], Std)

    @pytest.mark.parametrize(
        "payload",
        [
            {"table": "t", "k": 5},  # k without order_by
            {"table": "t", "order_by": "v", "k": 5, "limit": 5},  # both k and limit
            {"table": "t", "order_by": ""},  # empty column
            {"table": "t", "order_by": {"column": "v", "extra": 1}},  # unknown key
            {"table": "t", "order_by": {"column": "v", "desc": "yes"}},  # bad desc
            {"table": "t", "order_by": "v", "group_by": ["g"],
             "aggregates": {"n": {"fn": "count"}}},  # order_by over aggregation
            {"table": "t", "having": {"op": "eq", "column": "n", "value": 1}},  # no aggregates
            {"table": "t", "order_by": "v", "k": -1},  # negative k
            {"table": "t", "aggregates": {"v": {"fn": "var"}}},  # var without column
        ],
    )
    def test_malformed_requests_are_rejected(self, payload):
        with pytest.raises(ValidationError):
            parse_request(payload)

    def test_build_query_matches_fluent_chain(self, relation):
        request = parse_request({
            "table": "t",
            "where": {"op": "between", "column": "v", "lo": 10, "hi": 400},
            "select": ["v"],
            "order_by": {"column": "v", "desc": True},
            "k": 8,
        })
        via_protocol = build_query(relation.query(), request).execute()
        via_fluent = (
            relation.query()
            .where(Between("v", 10, 400))
            .select("v")
            .order_by("v", desc=True)
            .limit(8)
            .execute()
        )
        assert list(via_protocol.columns["v"]) == list(via_fluent.columns["v"])
