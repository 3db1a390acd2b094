"""Canonical predicate and plan fingerprints (result-cache keys).

The query service keys its result cache on ``(table, plan fingerprint)``,
so fingerprints must be *canonical*: semantically equal predicates —
regardless of construction order — must produce identical strings.  Every
predicate and every plan has one, so every plan can be cached.  A plan's
fingerprint is its canonical JSON text, so a plan survives the wire
unchanged and the library chain, a JSON body and ``corra query`` flags
that mean one query build one plan.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import (
    And,
    Between,
    Count,
    Eq,
    In,
    Max,
    Not,
    Or,
    Predicate,
    Sum,
)
from repro.query.plan import Plan, QueryCompiler
from repro.server import parse_request
from repro.storage import Relation, Table


def _relation() -> Relation:
    from repro.core import CompressionPlan, TableCompressor

    table = Table.from_columns(
        [
            ("a", INT64, np.arange(100, dtype=np.int64)),
            ("b", INT64, np.arange(100, dtype=np.int64) % 5),
        ]
    )
    plan = CompressionPlan.vertical_only(table.schema)
    return TableCompressor(plan, block_size=50).compress(table)


class TestPredicateFingerprints:
    def test_and_is_commutative(self):
        left = And(Eq("a", 1), Between("b", 2, 3))
        right = And(Between("b", 2, 3), Eq("a", 1))
        assert left.fingerprint() == right.fingerprint()

    def test_or_is_commutative(self):
        left = Or(Eq("a", 1), Eq("b", 2), Eq("a", 3))
        right = Or(Eq("a", 3), Eq("a", 1), Eq("b", 2))
        assert left.fingerprint() == right.fingerprint()

    def test_nested_compounds_canonicalise(self):
        left = And(Or(Eq("a", 1), Eq("a", 2)), Eq("b", 0))
        right = And(Eq("b", 0), Or(Eq("a", 2), Eq("a", 1)))
        assert left.fingerprint() == right.fingerprint()

    def test_different_predicates_differ(self):
        assert And(Eq("a", 1), Eq("b", 2)).fingerprint() != Or(
            Eq("a", 1), Eq("b", 2)
        ).fingerprint()
        assert Eq("a", 1).fingerprint() != Eq("a", 2).fingerprint()
        assert Eq("a", 1).fingerprint() != Eq("b", 1).fingerprint()

    def test_in_values_are_order_insensitive(self):
        assert In("a", [3, 1, 2]).fingerprint() == In("a", [2, 3, 1]).fingerprint()

    def test_not_wraps_inner(self):
        fp = Not(Eq("a", 1)).fingerprint()
        assert Eq("a", 1).fingerprint() in fp
        assert fp != Eq("a", 1).fingerprint()


class TestPlanFingerprints:
    def test_same_plan_same_fingerprint(self):
        relation = _relation()
        compiler = QueryCompiler(relation)
        base = relation.query()
        one = compiler.compile(base.where(Eq("a", 1) & Eq("b", 2)).logical_plan())
        two = compiler.compile(base.where(Eq("b", 2) & Eq("a", 1)).logical_plan())
        assert one.fingerprint() == two.fingerprint()

    def test_plan_shape_distinguishes(self):
        relation = _relation()
        compiler = QueryCompiler(relation)
        base = relation.query()
        filter_only = compiler.compile(base.where(Eq("a", 1)).logical_plan())
        projected = compiler.compile(base.where(Eq("a", 1)).select("b").logical_plan())
        limited = compiler.compile(base.where(Eq("a", 1)).limit(5).logical_plan())
        grouped = compiler.compile(
            base.where(Eq("a", 1)).group_by("b").agg(n=Count()).logical_plan()
        )
        summed = compiler.compile(
            base.where(Eq("a", 1)).group_by("b").agg(n=Sum("a")).logical_plan()
        )
        fingerprints = [
            plan.fingerprint() for plan in (filter_only, projected, limited, grouped, summed)
        ]
        assert all(isinstance(fp, str) for fp in fingerprints)
        assert len(set(fingerprints)) == len(fingerprints)

    def test_no_predicate_still_fingerprints(self):
        relation = _relation()
        compiler = QueryCompiler(relation)
        compiled = compiler.compile(relation.query().select("a").logical_plan())
        assert isinstance(compiled.fingerprint(), str)


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_every_predicate_and_plan_has_a_fingerprint():
    assert get_type_hints(Predicate.fingerprint)["return"] is str
    assert get_type_hints(Plan.fingerprint)["return"] is str
    # So no planner, compiler or service path handles a missing one.
    for name in ("query/scan.py", "query/plan.py", "query/predicates.py", "server/service.py"):
        text = (SRC / name).read_text()
        assert "fingerprint is None" not in text and "cache_key is None" not in text, name


# -- one plan record: JSON round trip and front-end agreement --------------------

TAG_VALUES = [f"t{i}" for i in range(4)]


def _tagged_relation() -> Relation:
    from repro.core import CompressionPlan, TableCompressor

    rng = np.random.default_rng(7)
    table = Table.from_columns(
        [
            ("a", INT64, np.arange(400, dtype=np.int64)),
            ("b", INT64, rng.integers(0, 5, 400)),
            ("tag", STRING, [TAG_VALUES[i] for i in rng.integers(0, 4, 400)]),
        ]
    )
    return TableCompressor(CompressionPlan.vertical_only(table.schema), block_size=100).compress(
        table
    )


TAGGED = _tagged_relation()
_ints = st.integers(-5, 420)
_int_leaf = st.sampled_from(["a", "b"]).flatmap(
    lambda column: st.one_of(
        st.builds(lambda v: {"op": "eq", "column": column, "value": v}, _ints),
        st.builds(
            lambda lo, hi: {"op": "between", "column": column, "lo": lo, "hi": hi},
            st.one_of(st.none(), _ints),
            _ints,
        ),
        st.builds(
            lambda lo: {"op": "between", "column": column, "lo": lo, "hi": None}, _ints
        ),
        st.builds(
            lambda vs: {"op": "in", "column": column, "values": vs},
            st.lists(_ints, min_size=1, max_size=4),
        ),
    )
)
_tag_leaf = st.one_of(
    st.builds(
        lambda v: {"op": "eq", "column": "tag", "value": v}, st.sampled_from(TAG_VALUES)
    ),
    st.builds(
        lambda vs: {"op": "in", "column": "tag", "values": vs},
        st.lists(st.sampled_from(TAG_VALUES), min_size=1, max_size=3),
    ),
)
_predicates = st.recursive(
    st.one_of(_int_leaf, _tag_leaf),
    lambda children: st.one_of(
        st.builds(
            lambda op, nodes: {"op": op, "children": nodes},
            st.sampled_from(["and", "or"]),
            st.lists(children, min_size=2, max_size=3),
        ),
        st.builds(lambda node: {"op": "not", "child": node}, children),
    ),
    max_leaves=6,
)
_aggregate_specs = st.one_of(
    st.just({"fn": "count"}),
    st.builds(
        lambda fn, column: {"fn": fn, "column": column},
        st.sampled_from(["sum", "min", "max", "avg", "var", "std"]),
        st.sampled_from(["a", "b"]),
    ),
    st.builds(lambda fn: {"fn": fn, "column": "tag"}, st.sampled_from(["min", "max"])),
)


@st.composite
def _plan_bodies(draw) -> dict:
    """A protocol-valid JSON plan over ``TAGGED``'s schema."""
    body: dict = {}
    if draw(st.booleans()):
        body["where"] = draw(_predicates)
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(["n", "s", "m", "x"]), min_size=1, unique=True))
        body["aggregates"] = {name: draw(_aggregate_specs) for name in names}
        if draw(st.booleans()):
            body["group_by"] = draw(st.sampled_from([["b"], ["tag"], ["tag", "b"]]))
        if draw(st.booleans()):
            body["having"] = {"op": "between", "column": names[0], "lo": draw(_ints), "hi": None}
    else:
        body["select"] = draw(st.lists(st.sampled_from(["a", "b", "tag"]), min_size=1, unique=True))
        if draw(st.booleans()):
            column = draw(st.sampled_from(["a", "b", "tag"]))
            desc = draw(st.booleans())
            body["order_by"] = draw(st.sampled_from([column, {"column": column, "desc": desc}]))
            if draw(st.booleans()):
                body["k"] = draw(st.integers(0, 30))
    if "k" not in body and draw(st.booleans()):
        body["limit"] = draw(st.integers(0, 30))
    return body


def _same_result(left, right) -> None:
    assert list(left.columns) == list(right.columns)
    for name, values in left.columns.items():
        assert list(values) == list(right.columns[name])
    if left.row_ids is None:
        assert right.row_ids is None
    else:
        assert np.array_equal(left.row_ids, right.row_ids)


class TestOnePlanRecord:
    @settings(max_examples=60, deadline=None)
    @given(body=_plan_bodies())
    def test_json_round_trip_keeps_fingerprint_and_result(self, body):
        compiler = QueryCompiler(TAGGED)
        plan = Plan.from_json(body)
        wire = json.loads(json.dumps(plan.to_json()))
        again = Plan.from_json(wire)
        assert again.fingerprint() == plan.fingerprint()
        assert json.loads(plan.fingerprint()) == plan.to_json()
        expected = compiler.execute(compiler.compile(plan))
        _same_result(compiler.execute(compiler.compile(again)), expected)

    def test_open_between_sides_are_null_and_required(self):
        plan = Plan(predicate=Between("a", None, 50))
        assert plan.to_json()["where"] == {"op": "between", "column": "a", "lo": None, "hi": 50}
        assert Plan.from_json(plan.to_json()).fingerprint() == plan.fingerprint()
        with pytest.raises(ValidationError):
            Plan.from_json({"where": {"op": "between", "column": "a", "hi": 50}})
        with pytest.raises(ValidationError):
            Plan.from_json({"where": {"op": "between", "column": "a", "lo": None, "hi": None}})

    def test_numpy_constants_encode_as_json_ints(self):
        plan = Plan(predicate=In("a", [np.int64(3), 1]) & Eq("b", np.int32(2)), limit=np.int64(4))
        same = Plan(predicate=Eq("b", 2) & In("a", [1, 3]), limit=4)
        assert plan.fingerprint() == same.fingerprint()

    @pytest.mark.parametrize(
        "chain, body, flags",
        [
            (
                lambda q: q.where(Between("a", 10, 40) & Eq("b", 2)).agg(n=Count(), s=Sum("a")),
                {
                    "where": {"op": "and", "children": [
                        {"op": "eq", "column": "b", "value": 2},
                        {"op": "between", "column": "a", "lo": 10, "hi": 40},
                    ]},
                    "aggregates": {"n": {"fn": "count"}, "s": {"fn": "sum", "column": "a"}},
                },
                ["--between", "a:10:40", "--equals", "b:2", "--agg", "n:count", "--agg", "s:sum:a"],
            ),
            (
                lambda q: q.where(Between("a", None, 50)).select("a", "tag")
                .order_by("a", desc=True).limit(5),
                {
                    "where": {"op": "between", "column": "a", "lo": None, "hi": 50},
                    "select": ["a", "tag"],
                    "order_by": {"column": "a", "desc": True},
                    "k": 5,
                },
                ["--between", "a::50", "--select", "a,tag", "--order-by", "a:desc", "--limit", "5"],
            ),
            (
                lambda q: q.where(In("tag", ["t1", "t0"])).group_by("b").agg(hi=Max("a")),
                {
                    "where": {"op": "in", "column": "tag", "values": ["t0", "t1"]},
                    "group_by": ["b"],
                    "aggregates": {"hi": {"fn": "max", "column": "a"}},
                },
                ["--in", "tag:t1,t0", "--group-by", "b", "--agg", "hi:max:a"],
            ),
        ],
        ids=["aggregate", "topk", "group-by"],
    )
    def test_chain_json_and_cli_flags_build_one_plan(self, chain, body, flags):
        from repro.cli import _request_body, build_parser

        library = chain(TAGGED.query()).logical_plan()
        wire = parse_request({"table": "t", **body}).plan
        cli = Plan.from_json(_request_body(build_parser().parse_args(["query", "t", *flags])))
        assert library.fingerprint() == wire.fingerprint() == cli.fingerprint()
