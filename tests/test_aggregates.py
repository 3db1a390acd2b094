"""The aggregate algebra: moments agree with each other and with plain Python.

Four contracts of :mod:`repro.query.aggregates`:

* every moment's three entry points (gathered values, selected runs,
  per-group scatter) equal a plain-Python reference, and ``merge`` is
  associative and commutative — including values that overflow int64;
* an aggregate declared *outside* ``src/`` (``Range`` below) runs through
  every execution path with no compiler edit;
* Σx and Σx² never wrap;
* nothing else in the query layer, the server or the CLI compares against
  an aggregate or moment name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import (
    DEFAULT_KERNELS,
    AggregateFunction,
    Avg,
    Between,
    Count,
    Engine,
    EngineConfig,
    Eq,
    In,
    Max,
    Min,
    Std,
    Sum,
    Var,
)
from repro.query.aggregates import AGGREGATES, MOMENTS, moment_slots, parse_aggregate
from repro.storage import ColumnStatistics, DiskRelation, Table, write_table

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@dataclass(frozen=True, repr=False)
class Range(AggregateFunction):
    """``max − min`` — declared here only; nothing under ``src/`` knows it."""

    column: str
    kind = "range"
    moments = ("min", "max")
    needs_int = True

    def finalize(self, lo, hi):
        return None if lo is None else hi - lo


# -- helpers --------------------------------------------------------------------


def relation_of(columns: dict, block_size: int, schemes: dict | None = None):
    table = Table.from_columns(
        [(name, INT64, np.asarray(values, dtype=np.int64)) for name, values in columns.items()]
    )
    builder = CompressionPlan.builder(table.schema)
    for name in table.column_names:
        builder.vertical(name, (schemes or {}).get(name, "plain"))
    return TableCompressor(builder.build(), block_size=block_size).compress(table)


def runs_of(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(run_values, selected count per run)`` of ``values`` under ``mask``."""
    if values.size == 0:
        return values, np.zeros(0, dtype=np.int64)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(values)) + 1])
    return values[starts], np.add.reduceat(mask.astype(np.int64), starts)


REFERENCE = {
    "count": len,
    "sum": sum,
    "sumsq": lambda xs: sum(x * x for x in xs),
    "min": lambda xs: min(xs) if xs else None,
    "max": lambda xs: max(xs) if xs else None,
}

#: Runs of small and of near-int64-limit values, so both the vectorised
#: fast path and the Python-int fallback are exercised.
run_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-(2**62), max_value=2**62),
)
masked_columns = st.lists(
    st.tuples(run_values, st.integers(min_value=1, max_value=6)), min_size=0, max_size=12
).flatmap(
    lambda runs: st.tuples(
        st.just(np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(np.int64)),
        st.lists(
            st.booleans(),
            min_size=sum(n for _, n in runs),
            max_size=sum(n for _, n in runs),
        ).map(lambda bits: np.asarray(bits, dtype=bool)),
    )
)


# -- (i) the moment table -----------------------------------------------------------


class TestMoments:
    def test_table_is_the_five_moments(self):
        assert tuple(MOMENTS) == ("count", "sum", "sumsq", "min", "max")
        assert set(REFERENCE) == set(MOMENTS)

    @pytest.mark.parametrize("name", list(MOMENTS))
    @given(column=masked_columns)
    @settings(max_examples=60, deadline=None)
    def test_entry_points_agree_with_python(self, name, column):
        values, mask = column
        moment = MOMENTS[name]
        selected = values[mask]
        want = REFERENCE[name]([int(v) for v in selected])
        zeros = np.zeros(selected.size, dtype=np.int64)
        assert moment.from_values(selected) == want
        assert moment.from_runs(*runs_of(values, mask)) == want
        assert moment.scatter_by_group(selected, zeros, 1)[0] == want
        if name in ("min", "max") and want is None:
            return
        assert type(moment.from_values(selected)) is int

    @pytest.mark.parametrize("name", list(MOMENTS))
    @given(
        values=st.lists(run_values, max_size=30),
        cuts=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative_and_commutative(self, name, values, cuts):
        moment = MOMENTS[name]
        lo, hi = sorted(cuts)
        array = np.asarray(values, dtype=np.int64)
        a, b, c = (moment.from_values(part) for part in (array[:lo], array[lo:hi], array[hi:]))
        merge = moment.merge
        assert merge(merge(a, b), c) == merge(a, merge(b, c)) == moment.from_values(array)
        assert merge(a, b) == merge(b, a)
        assert merge(moment.empty, a) == a == merge(a, moment.empty)

    @pytest.mark.parametrize("name", ["count", "min", "max"])
    def test_order_moments_take_strings(self, name):
        words = ["pear", "apple", "fig", "apple"]
        moment = MOMENTS[name]
        assert moment.from_values(words) == REFERENCE[name](words)
        inverse = np.asarray([0, 1, 0, 1])
        assert moment.scatter_by_group(words, inverse, 2) == [
            REFERENCE[name](["pear", "fig"]),
            REFERENCE[name](["apple", "apple"]),
        ]

    def test_sums_reject_strings(self):
        with pytest.raises(ValidationError, match="cannot sum a string column"):
            MOMENTS["sum"].from_values(["a"])

    def test_scatter_groups_independently(self):
        values = np.asarray([2**62, 1, 2**62, 5], dtype=np.int64)
        inverse = np.asarray([0, 1, 0, 2])
        assert MOMENTS["sum"].scatter_by_group(values, inverse, 4) == [2**63, 1, 5, 0]
        assert MOMENTS["count"].scatter_by_group(values, inverse, 4) == [2, 1, 1, 0]
        assert MOMENTS["min"].scatter_by_group(values, inverse, 4) == [2**62, 1, 5, None]

    def test_bound_hint_only_widens_never_changes_the_value(self):
        values = np.asarray([3, -4, 5], dtype=np.int64)
        for bound in (None, 5, 2**40, 2**62):
            assert MOMENTS["sum"].from_values(values, bound) == 4
            assert MOMENTS["sumsq"].from_values(values, bound) == 50


class TestAggregateDescriptors:
    def test_moments_and_finalize(self):
        assert Count().moments == ("count",)
        assert Avg("v").moments == ("sum", "count")
        assert Var("v").moments == Std("v").moments == ("count", "sum", "sumsq")
        assert Avg("v").finalize(7, 2) == 3.5
        assert Avg("v").finalize(0, 0) is None
        assert Var("v").finalize(2, 6, 20) == 1.0
        assert Std("v").finalize(2, 6, 26) == 2.0
        assert Min("v").finalize(None) is None

    def test_shared_moments_are_computed_once(self):
        spec = (("s", Sum("x")), ("a", Avg("x")), ("v", Var("x")), ("n", Count()), ("m", Max("y")))
        pairs, slots = moment_slots(spec)
        assert [(column, moment.name) for column, moment in pairs] == [
            ("x", "sum"),
            ("x", "count"),
            ("x", "sumsq"),
            (None, "count"),
            ("y", "max"),
        ]
        assert slots == [(0,), (0, 1), (1, 0, 2), (3,), (4,)]

    def test_unknown_moment_is_a_validation_error(self):
        class Median(AggregateFunction):
            kind = "median"
            column = "x"
            moments = ("median",)

        with pytest.raises(ValidationError, match="unknown moment 'median'"):
            moment_slots((("m", Median()),))

    def test_parse_aggregate(self):
        assert parse_aggregate("count") == Count()
        assert parse_aggregate("std", "fare") == Std("fare")
        assert tuple(AGGREGATES) == ("count", "sum", "min", "max", "avg", "var", "std")
        with pytest.raises(ValidationError, match="unknown aggregate function 'median'"):
            parse_aggregate("median", "x")
        with pytest.raises(ValidationError, match="expected one of count, sum, min"):
            parse_aggregate(None)
        with pytest.raises(ValidationError, match="count takes no input column"):
            parse_aggregate("count", "x")
        with pytest.raises(ValidationError, match="avg needs an input column"):
            parse_aggregate("avg")


# -- (ii) a test-local aggregate on every path ----------------------------------------


def range_columns(n: int = 4_000, seed: int = 11) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "ship": np.arange(n, dtype=np.int64),  # clustered: prunes and fully covers
        "v": rng.integers(-10_000, 10_000, n),
        "g": rng.integers(0, 5, n),
        "r": np.repeat(rng.integers(-50, 50, n // 40), 40),  # run-heavy
    }


class TestTestLocalAggregate:
    COLUMNS = range_columns()

    @pytest.fixture(scope="class")
    def relation(self):
        return relation_of(self.COLUMNS, block_size=500, schemes={"r": "rle"})

    def spread(self, column: str, keep: np.ndarray) -> int:
        values = self.COLUMNS[column][keep]
        return int(values.max() - values.min())

    @pytest.mark.parametrize("workers", [1, 4])
    def test_scanned_blocks(self, relation, workers):
        # ``v`` has no kernel, so the selection is gathered and reduced.
        keep = (self.COLUMNS["g"] == 2) & (self.COLUMNS["ship"] >= 250)
        with Engine(EngineConfig(workers=workers)) as engine:
            result = (
                engine.query(relation)
                .where(Eq("g", 2), Between("ship", 250, None))
                .agg(r=Range("v"), n=Count())
                .execute()
            )
        assert result.scalar("r") == self.spread("v", keep)
        assert result.scalar("n") == int(keep.sum())
        assert result.metrics.rows_gathered == int(keep.sum())

    @pytest.mark.parametrize("workers", [1, 4])
    def test_grouped(self, relation, workers):
        with Engine(EngineConfig(workers=workers)) as engine:
            result = engine.query(relation).group_by("g").agg(r=Range("v")).execute()
        groups = sorted(set(self.COLUMNS["g"].tolist()))
        assert result.columns["g"] == groups
        assert result.columns["r"] == [self.spread("v", self.COLUMNS["g"] == g) for g in groups]

    def test_rle_block_answers_in_run_space(self, relation):
        keep = self.COLUMNS["g"] == 1
        with Engine() as engine:
            result = engine.query(relation).where(Eq("g", 1)).agg(r=Range("r")).execute()
        assert result.scalar("r") == self.spread("r", keep)
        assert result.metrics.rows_gathered == 0
        # Both of Range's moments read one (run values, counts) pair: the
        # selection is charged once per column per block.
        assert result.metrics.rows_kernel_aggregated == int(keep.sum())

    def test_fully_covered_blocks_answer_from_the_zone_map(self, relation):
        keep = (self.COLUMNS["ship"] >= 1_000) & (self.COLUMNS["ship"] <= 2_999)
        with Engine() as engine:
            result = (
                engine.query(relation).where(Between("ship", 1_000, 2_999)).agg(r=Range("v"))
            ).execute()
        assert result.scalar("r") == self.spread("v", keep)
        assert result.metrics.blocks_full == 4
        assert result.metrics.rows_gathered == result.metrics.rows_decoded == 0

    def test_cold_disk_relation(self, relation, tmp_path):
        path = tmp_path / "range.corra"
        write_table(path, relation)
        keep = self.COLUMNS["ship"] >= 3_250
        with Engine() as engine, DiskRelation(path) as cold:
            result = (
                engine.query(cold)
                .where(Between("ship", 3_250, None))
                .group_by("g")
                .agg(r=Range("v"), wide=Range("r"))
                .execute()
            )
            ungrouped = engine.query(cold).where(Eq("g", 3)).agg(r=Range("v")).execute()
        groups = sorted(set(self.COLUMNS["g"][keep].tolist()))
        assert result.columns["g"] == groups
        for name, column in (("r", "v"), ("wide", "r")):
            assert result.columns[name] == [
                self.spread(column, keep & (self.COLUMNS["g"] == g)) for g in groups
            ]
        assert ungrouped.scalar("r") == self.spread("v", self.COLUMNS["g"] == 3)

    def test_empty_selection(self, relation):
        with Engine() as engine:
            empty = engine.query(relation).where(Eq("g", 99)).agg(r=Range("v"), n=Count())
            assert empty.execute().columns == {"r": [None], "n": [0]}

    def test_needs_int_rejects_a_string_column_at_compile_time(self):
        table = Table.from_columns([("tag", STRING, ["a", "b", "a"])])
        words = TableCompressor(
            CompressionPlan.vertical_only(table.schema), block_size=2
        ).compress(table)
        with Engine() as engine:
            with pytest.raises(ValidationError, match="range.. needs an integer column"):
                engine.query(words).agg(r=Range("tag")).execute()
            lo_hi = engine.query(words).agg(lo=Min("tag"), hi=Max("tag"), n=Count()).execute()
        assert lo_hi.columns == {"lo": ["a"], "hi": ["b"], "n": [3]}

    def test_nothing_under_src_mentions_it(self):
        for path in SRC.rglob("*.py"):
            text = path.read_text()
            assert "class Range" not in text and '"range"' not in text, path


# -- (iii) exact sums -------------------------------------------------------------------


class TestExactSums:
    @pytest.fixture(scope="class")
    def near_2_32(self):
        return relation_of({"v": [2**32, 2**32 + 2] * 2000, "g": [0, 0, 1, 1] * 1000}, 1000)

    @pytest.mark.parametrize(
        "make_engine",
        [Engine, lambda: Engine(EngineConfig(workers=4)), oracle.decode_engine],
        ids=["serial", "parallel", "decode"],
    )
    def test_variance_near_2_32(self, near_2_32, make_engine):
        with make_engine() as engine:
            ungrouped = engine.query(near_2_32).agg(var=Var("v"), std=Std("v")).execute()
            # Keeps every row, but no zone map can prove it: every block
            # gathers ``v`` instead of lifting count and sum from statistics.
            scanned = (
                engine.query(near_2_32)
                .where(In("g", [0, 1]))
                .agg(var=Var("v"), std=Std("v"))
                .execute()
            )
            grouped = engine.query(near_2_32).group_by("g").agg(var=Var("v")).execute()
        assert ungrouped.columns == scanned.columns == {"var": [1.0], "std": [1.0]}
        assert scanned.metrics.blocks_full == 0
        assert grouped.columns == {"g": [0, 1], "var": [1.0, 1.0]}

    def test_variance_near_2_32_in_run_space(self):
        relation = relation_of({"v": [2**32] * 500 + [2**32 + 2] * 500}, 1000, {"v": "rle"})
        with Engine() as engine:
            result = engine.query(relation).agg(var=Var("v")).execute()
        assert result.scalar("var") == 1.0
        assert result.metrics.rows_kernel_aggregated == 1000

    @pytest.mark.parametrize("scheme", ["plain", "rle"])
    @pytest.mark.parametrize(
        "make_engine", [Engine, oracle.decode_engine], ids=["kernels", "decode"]
    )
    def test_sum_beyond_int64(self, scheme, make_engine):
        relation = relation_of({"v": [2**62] * 8, "k": list(range(8))}, 4, {"v": scheme})
        with make_engine() as engine:
            covered = engine.query(relation).agg(s=Sum("v"), a=Avg("v")).execute()
            # Keeps every row, but only decoding ``k`` can tell.
            scanned = (
                engine.query(relation)
                .where(In("k", list(range(8))))
                .agg(s=Sum("v"), a=Avg("v"))
                .execute()
            )
            in_range = (
                engine.query(relation)
                .where(Between("v", 0, 2**63 - 1))
                .agg(s=Sum("v"), a=Avg("v"))
                .execute()
            )
        for result in (covered, scanned, in_range):
            assert result.columns == {"s": [36893488147419103232], "a": [2.0**62]}
        assert scanned.metrics.blocks_full == 0

    def test_zone_map_sum_is_recorded_only_when_exact(self):
        exact = ColumnStatistics.from_values(np.asarray([2**61] * 3, dtype=np.int64))
        assert exact.sum_value == 3 * 2**61
        wrapped = ColumnStatistics.from_values(np.asarray([2**62] * 4, dtype=np.int64))
        assert wrapped.sum_value is None and wrapped.aggregate_value("sum") is None
        assert wrapped.magnitude == 2**62
        derived = ColumnStatistics.from_reference_and_deltas(
            wrapped, delta_min=-1, delta_max=1, row_count=4, sum_value=0
        )
        assert derived.sum_value is None
        small = ColumnStatistics.from_values(np.asarray([5, 7], dtype=np.int64))
        derived = ColumnStatistics.from_reference_and_deltas(
            small, delta_min=-1, delta_max=1, row_count=2, sum_value=13
        )
        assert derived.sum_value == 13

    def test_selected_runs_without_a_mask_are_the_run_lengths(self):
        relation = relation_of({"v": [7] * 5 + [9] * 3}, 8, {"v": "rle"})
        block = relation.block(0)
        values, counts = DEFAULT_KERNELS.selected_runs(block, "v", None)
        assert values.tolist() == [7, 9] and counts.tolist() == [5, 3]
        mask = np.asarray([1, 0, 0, 0, 0, 0, 1, 1], dtype=bool)
        values, counts = DEFAULT_KERNELS.selected_runs(block, "v", mask)
        assert counts.tolist() == [1, 2]
        assert MOMENTS["sum"].from_runs(values, counts) == 7 + 18
        assert DEFAULT_KERNELS.group_keys(block, "v", None)[0] == [7, 9]


# -- (iv) no other module knows an aggregate by name ----------------------------------------

NAMES = set(MOMENTS) | set(AGGREGATES)


def _names_a_kind(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(element) for element in node.elts)
    return False


def kind_comparisons(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare) and any(
            _names_a_kind(side) for side in [node.left, *node.comparators]
        ):
            found.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_aggregates_py_compares_against_kind_names():
    paths = [p for p in (SRC / "query").glob("*.py") if p.name != "aggregates.py"]
    paths += list((SRC / "server").glob("*.py")) + [SRC / "cli.py"]
    assert len(paths) > 10
    assert [hit for path in paths for hit in kind_comparisons(path)] == []


def test_the_walk_catches_both_spellings(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('a = kind == "avg"\nb = kind in ("var", "std")\nc = op == "eq"\n')
    assert len(kind_comparisons(sample)) == 2
