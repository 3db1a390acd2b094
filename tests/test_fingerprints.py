"""Canonical predicate and plan fingerprints (result-cache keys).

The query service keys its result cache on ``(table, plan fingerprint)``,
so fingerprints must be *canonical*: semantically equal predicates —
regardless of construction order — must produce identical strings.  Every
predicate and every plan has one, so every plan can be cached.
"""

from __future__ import annotations

from pathlib import Path
from typing import get_type_hints

import numpy as np

from repro.dtypes import INT64
from repro.query import (
    And,
    Between,
    Count,
    Eq,
    In,
    Not,
    Or,
    Predicate,
    Sum,
)
from repro.query.plan import CompiledQuery, QueryCompiler
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
    assert get_type_hints(CompiledQuery.fingerprint)["return"] is str
    # So no planner, compiler or service path handles a missing one.
    for name in ("query/scan.py", "query/plan.py", "query/predicates.py", "server/service.py"):
        text = (SRC / name).read_text()
        assert "fingerprint is None" not in text and "cache_key is None" not in text, name
