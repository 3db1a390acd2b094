"""Derived (diff-encoding) zone maps prune and prove blocks full, soundly.

A diff-encoded column's zone map is derived from its reference's bounds and
the stored difference range, widened by the outlier region.  It is a
superset of the block's true values, so it may both prune (the predicate
misses the superset) and prove a block full (the superset lies inside the
predicate).  The property below checks both decisions row by row against
the Python-int oracle (``tests/oracle.py``) on tables that exercise every
stored form of the difference stream — raw, zig-zag, framed, with and
without outliers — and checks the default and the kernel-less engine's
answers against it, in memory and on a cold
:class:`~repro.storage.DiskRelation`.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import repro.core.plan as core_plan
from repro.core import CompressionPlan, NonHierarchicalEncoding, TableCompressor
from repro.dtypes import INT64
from repro.query import (
    Between,
    BlockDecision,
    Count,
    Engine,
    Eq,
    In,
    Max,
    Min,
    Not,
    QueryExecutor,
    ScanPlanner,
    Sum,
)
from repro.storage import DiskRelation, Table, write_table


@st.composite
def diff_tables(draw):
    """``(reference, target, block_size, outlier_bit_budget, use_frame)``."""
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(-(10**6), 10**6))
    reference = base + rng.integers(0, draw(st.integers(1, 300)), n)
    if draw(st.booleans()):
        reference = np.sort(reference)  # clustered: blocks prune and fill
    low = draw(st.integers(-40, 40))  # negative differences store zig-zag
    target = reference + rng.integers(low, low + draw(st.integers(0, 40)) + 1, n)
    if draw(st.booleans()):
        rows = rng.integers(0, n, draw(st.integers(1, 3)))
        target[rows] += draw(st.sampled_from([-5_000, 5_000, 10**9]))
    return (
        reference.astype(np.int64),
        target.astype(np.int64),
        draw(st.integers(1, 40)),
        draw(st.sampled_from([None, 0, 3, 6])),
        draw(st.booleans()),
    )


def _compress(reference, target, block_size, budget, use_frame):
    table = Table.from_columns([("a", INT64, reference), ("b", INT64, target)])
    plan = (
        CompressionPlan.builder(table.schema)
        .diff_encode("b", reference="a", outlier_bit_budget=budget)
        .build()
    )
    # The plan has no frame switch; the encoder it builds blocks with does.
    encoder = functools.partial(NonHierarchicalEncoding, use_frame=use_frame)
    with mock.patch.object(core_plan, "NonHierarchicalEncoding", encoder):
        return TableCompressor(plan, block_size=block_size).compress(table)


def _constants(draw, relation) -> list[int]:
    """Constants at, just inside and just outside one block's derived bounds."""
    stats = draw(st.sampled_from([block.statistics.column("b") for block in relation]))
    lo, hi = int(stats.min_value), int(stats.max_value)
    return [lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 1]


def _predicates(draw, constants):
    pick = st.sampled_from(constants)
    leaf = st.one_of(
        st.builds(lambda x, y: Between("b", min(x, y), max(x, y)), pick, pick),
        st.builds(lambda x: Between("b", x, None), pick),
        st.builds(lambda x: Between("b", None, x), pick),
        st.builds(lambda x: Eq("b", x), pick),
        st.builds(lambda x, y: In("b", [x, y]), pick, pick),
    )
    return draw(st.one_of(leaf, leaf.map(Not)))


AGGREGATES = dict(n=Count(), total=Sum("b"), low=Min("b"), high=Max("b"))


def _answers(relation, predicate, engine: Engine) -> tuple:
    executor = QueryExecutor(relation, engine=engine)
    result = engine.query(relation).where(predicate).agg(**AGGREGATES).execute()
    return executor.filter(predicate).tolist(), executor.count(predicate), result.columns


@settings(max_examples=100, deadline=None)
@given(case=diff_tables(), data=st.data())
def test_derived_zone_maps_are_sound(case, data):
    reference, target, block_size, budget, use_frame = case
    relation = _compress(reference, target, block_size, budget, use_frame)
    predicate = _predicates(data.draw, _constants(data.draw, relation))
    table = Table.from_columns([("a", INT64, reference), ("b", INT64, target)])
    hits = oracle.filter_rows(table, predicate)
    matched = np.zeros(table.n_rows, dtype=bool)
    matched[hits] = True

    decisions = ScanPlanner(relation).plan(predicate).decisions
    for index, decision in enumerate(decisions):
        rows = matched[index * block_size : (index + 1) * block_size]
        if decision == BlockDecision.FULL:
            assert all(rows), (index, predicate)
        elif decision == BlockDecision.PRUNE:
            assert not any(rows), (index, predicate)

    expected = (hits, len(hits), oracle.group_by(table, predicate, (), AGGREGATES))
    with Engine() as engine, oracle.decode_engine() as decode:
        for label, runner in (("default", engine), ("decode", decode)):
            assert _answers(relation, predicate, runner) == expected, label
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.corra"
            write_table(path, relation)
            for label, runner in (("default", engine), ("decode", decode)):
                with DiskRelation(path, prefetch_workers=0) as disk:
                    assert ScanPlanner(disk).plan(predicate).decisions == decisions
                    assert _answers(disk, predicate, runner) == expected, label


def test_derived_bounds_answer_fully_covered_counts_from_metadata():
    reference = np.arange(1_000, dtype=np.int64)
    target = reference + np.random.default_rng(5).integers(1, 30, reference.size)
    relation = _compress(reference, target, 100, None, False)
    # Every derived lower bound is a reference minimum plus a difference >= 1.
    predicate = Between("b", 1, None)
    plan = ScanPlanner(relation).plan(predicate)
    assert plan.count_of(BlockDecision.FULL) == relation.n_blocks
    result = relation.query().where(predicate).agg(n=Count(), total=Sum("b")).execute()
    assert result.scalar("n") == reference.size
    assert result.scalar("total") == int(target.sum())
    assert result.metrics.rows_decoded == 0


def test_wrapped_differences_neither_prune_nor_fill_wrongly():
    # target - reference wraps around int64 (stored difference 6), so the
    # derived range ``reference + difference`` leaves int64 in Python ints;
    # the zone map must then cover all of int64, not a range past its top.
    top = (1 << 63) - 1
    reference = np.array([top - 2, top - 2, 0], dtype=np.int64)
    target = np.array([-(1 << 63) + 3, -(1 << 63) + 3, 5], dtype=np.int64)
    relation = _compress(reference, target, 3, None, False)
    for predicate in (Eq("b", -(1 << 63) + 3), Between("b", None, 0), Not(Eq("b", 5))):
        want = [i for i, v in enumerate(target.tolist()) if oracle.matches(predicate, {"b": v})]
        assert QueryExecutor(relation).filter(predicate).tolist() == want
        with oracle.decode_engine() as decode:
            assert decode.executor(relation).filter(predicate).tolist() == want
