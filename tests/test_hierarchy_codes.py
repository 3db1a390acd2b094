"""Pair scores and hierarchical sizes from per-column codes.

The detector factorises each column once and scores every (reference →
target) pair from integer codes.  These properties pin that to the direct
computations: the pair score equals :func:`oracle.hierarchy_score`, which
sorts both raw columns as Python objects, and the closed-form size equals
the size of an actual encode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.bitpack import required_bits
from repro.core import CorrelationDetector, HierarchicalEncoding, hierarchy_score
from repro.core import hierarchical as hierarchical_module
from repro.core.correlation import _fanout_bound
from repro.datasets import DmvGenerator, LdbcMessageGenerator
from repro.errors import EncodingError

# Small values, values near ±2^62 and anything in int64: the codes must not
# depend on magnitude, sign or where int64 wraps.
INT_VALUES = st.one_of(
    st.integers(-50, 50),
    st.integers(2**62 - 50, 2**62 + 50),
    st.integers(-(2**62) - 50, -(2**62) + 50),
    st.integers(-(2**63), 2**63 - 1),
)
# Multi-byte UTF-8 included: heap bytes are bytes, not characters.
STR_VALUES = st.text(alphabet="abéß日本\U0001f600", max_size=4)


@st.composite
def pooled_column(draw, elements, n):
    """``n`` values drawn from a small pool, so values repeat and nest."""
    pool = draw(st.lists(elements, min_size=1, max_size=8, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    values = [pool[i] for i in picks]
    if elements is INT_VALUES:
        return np.asarray(values, dtype=np.int64)
    return values


@st.composite
def column_pairs(draw):
    n = draw(st.integers(0, 60))
    target = draw(pooled_column(draw(st.sampled_from([INT_VALUES, STR_VALUES])), n))
    reference = draw(pooled_column(draw(st.sampled_from([INT_VALUES, STR_VALUES])), n))
    return target, reference


@given(pair=column_pairs())
@settings(max_examples=100, deadline=None)
def test_score_equals_object_sort_reference(pair):
    target, reference = pair
    assert hierarchy_score(target, reference) == oracle.hierarchy_score(target, reference)


@given(pair=column_pairs())
@settings(max_examples=100, deadline=None)
def test_estimated_size_equals_encoded_size(pair):
    target, reference = pair
    encoded = HierarchicalEncoding().encode(target, reference, "x")
    assert HierarchicalEncoding().estimate_size(target, reference) == encoded.size_bytes


@given(pair=column_pairs())
@settings(max_examples=100, deadline=None)
def test_fanout_bound_is_never_below_the_saving(pair):
    # The detector skips a pair whose bound is <= 0 without scoring it.
    target, reference = pair
    score = hierarchy_score(target, reference)
    bound = _fanout_bound(score["global_distinct"], score["n_groups"])
    assert bound >= score["bits_saved_per_row"]


def _fanout_pair(fanout: int, strings: bool):
    """Group 0 holds ``fanout`` distinct targets, group 1 a single one."""
    target = list(range(fanout)) * 3 + [fanout]
    reference = [0] * (3 * fanout) + [1]
    if strings:
        return [f"日{v}é" for v in target], reference
    return np.asarray(target, dtype=np.int64), np.asarray(reference, dtype=np.int64)


@pytest.mark.parametrize("strings", [False, True], ids=["int", "str"])
@pytest.mark.parametrize("fanout", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
def test_size_at_power_of_two_fanouts(fanout, strings):
    target, reference = _fanout_pair(fanout, strings)
    encoded = HierarchicalEncoding().encode(target, reference, "x")
    assert encoded.code_bit_width == required_bits(fanout - 1)
    assert HierarchicalEncoding().estimate_size(target, reference) == encoded.size_bytes


@pytest.mark.parametrize(
    "target,reference",
    [
        ([], []),
        (np.arange(7, dtype=np.int64), np.zeros(7, dtype=np.int64)),  # one group
        (np.arange(40, dtype=np.int64), np.arange(40, dtype=np.int64) % 3),  # all distinct
        (["é", "日本", "😀", "a"], ["x", "x", "y", "y"]),  # multi-byte UTF-8
        (["日本"] * 5, [1, 2, 3, 4, 5]),
    ],
    ids=["empty", "one-group", "all-distinct", "utf8", "constant-string"],
)
def test_size_edge_cases(target, reference):
    encoded = HierarchicalEncoding().encode(target, reference, "x")
    assert HierarchicalEncoding().estimate_size(target, reference) == encoded.size_bytes


def test_estimate_size_validates_like_encode():
    with pytest.raises(EncodingError):
        HierarchicalEncoding().estimate_size([1, 2], [1])
    with pytest.raises(EncodingError):
        HierarchicalEncoding().estimate_size(np.array([1.5, 2.5]), ["a", "b"])


@pytest.mark.parametrize("generator", [DmvGenerator, LdbcMessageGenerator])
def test_suggest_never_encodes(monkeypatch, generator):
    table = generator().generate(2_000, seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("the detector encoded a hierarchical column")

    monkeypatch.setattr(hierarchical_module.HierarchicalEncodedColumn, "__init__", refuse)
    suggestions = CorrelationDetector().suggest(table)
    assert any(s.kind == "hierarchical" for s in suggestions)
