"""Bit-identity of the index-free bit-packing paths against the scatter originals.

:func:`repro.bitpack.pack` writes lane-periodic word columns and
:func:`repro.bitpack.unpack` (with span gathers and the whole-array
comparisons) reads strided unaligned lanes.  Both must produce exactly what
the original per-value implementations produce: the ``np.bitwise_or.at``
scatter ``pack`` used to be lives on here as ``_pack_reference``, and the
two-word extraction over a zero-padded copy of the word buffer that sparse
gathers used to run lives on as ``_extract_reference``, the reference
reader at ``np.arange`` positions.  An ``ast`` test keeps the hot loops
free of ``ufunc.at`` scatters, index arrays, unbounded sorts and buffer
copies.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack import BitPackedArray, _extract_unsigned, gather, pack, unpack
from repro.errors import DecodingError

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# -- the original implementations, kept as references ---------------------------


def _pack_reference(values: np.ndarray, bit_width: int) -> np.ndarray:
    """Scatter each value's low and high part into its word(s)."""
    vals = np.asarray(values).astype(np.uint64)
    n = vals.size
    n_words = (n * bit_width + 63) // 64
    words = np.zeros(n_words + 1, dtype=np.uint64)
    if n == 0 or bit_width == 0:
        return words[:n_words]
    bit_pos = np.arange(n, dtype=np.uint64) * np.uint64(bit_width)
    word_idx = (bit_pos >> np.uint64(6)).astype(np.int64)
    offset = bit_pos & np.uint64(63)
    low = vals << offset
    high = (vals >> (np.uint64(63) - offset)) >> np.uint64(1)
    np.bitwise_or.at(words, word_idx, low)
    np.bitwise_or.at(words, word_idx + 1, high)
    return words[:n_words]


def _extract_reference(words: np.ndarray, bit_width: int, pos: np.ndarray) -> np.ndarray:
    """Read each value from its first word and the next one of a padded copy."""
    bit_pos = pos.astype(np.uint64) * np.uint64(bit_width)
    word_idx = (bit_pos >> np.uint64(6)).astype(np.int64)
    offset = bit_pos & np.uint64(63)
    padded = np.concatenate([words, np.zeros(1, dtype=np.uint64)])
    low = padded[word_idx] >> offset
    high = (padded[word_idx + 1] << (np.uint64(63) - offset)) << np.uint64(1)
    combined = low | high
    if bit_width < 64:
        combined &= np.uint64((1 << bit_width) - 1)
    return combined


def _unpack_reference(words: np.ndarray, bit_width: int, n: int) -> np.ndarray:
    """All ``n`` (unsigned) values, read one by one at ``np.arange`` positions."""
    if bit_width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    return _extract_reference(np.asarray(words, dtype=np.uint64), bit_width, np.arange(n))


# -- cases ------------------------------------------------------------------------


def _period(width: int) -> int:
    """Values per repeat of the word layout at ``width`` bits."""
    return 64 // math.gcd(width, 64) if width else 1


def _lengths(width: int) -> list[int]:
    """Lengths straddling the layout period and the 8-value lane group."""
    period = _period(width)
    return sorted({0, 1, 7, 8, 9, period - 1, period, period + 1, 4099})


def _values(width: int, n: int, seed: int, fill: str) -> np.ndarray:
    if width == 0 or fill == "zero":
        return np.zeros(n, dtype=np.uint64)
    mask = np.uint64((1 << width) - 1)
    if fill == "max":
        return np.full(n, mask, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, n, dtype=np.uint64) & mask


@pytest.mark.parametrize("width", range(65))
def test_pack_and_unpack_are_bit_identical_at_every_width(width):
    for n in _lengths(width):
        for fill in ("random", "max"):
            values = _values(width, n, seed=width * 7919 + n, fill=fill)
            words = pack(values, width)
            reference = _pack_reference(values, width)
            assert words.dtype == np.uint64
            assert np.array_equal(words, reference), (n, fill)
            expected = _unpack_reference(reference, width, n)
            assert np.array_equal(unpack(words, width, n), expected.view(np.int64)), (n, fill)


@pytest.mark.parametrize("width", range(1, 65))
def test_sparse_extraction_matches_the_padded_reader(width):
    # Lengths that end a value exactly on, just before and just after a
    # word boundary: the last value read is in the last word either way.
    for n in sorted({1, 63, 64, 65, 64 // math.gcd(width, 64), 129}):
        for fill in ("random", "max"):
            words = pack(_values(width, n, seed=width * 31 + n, fill=fill), width)
            scattered = np.arange(n)[::-1]  # reversed: never the span path
            assert np.array_equal(
                _extract_unsigned(words, width, scattered),
                _extract_reference(words, width, scattered),
            ), (n, fill)


@st.composite
def packed_cases(draw):
    width = draw(st.integers(0, 64))
    n = draw(st.sampled_from(_lengths(width)))
    values = _values(width, n, draw(st.integers(0, 2**32 - 1)), draw(
        st.sampled_from(("random", "random", "max", "zero"))
    ))
    start = draw(st.integers(0, n))
    length = draw(st.integers(0, n - start))
    return width, values, start, length


def _bound(draw, width, values):
    """A ``compare_range`` bound: open, arbitrary, a domain edge or a held value."""
    top = (1 << width) - 1 if width else 0
    edges = [0, top] + [int(v) for v in values[:8]]
    return draw(st.one_of(st.none(), st.integers(-3, top + 3), st.sampled_from(edges)))


class TestFastPathsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(case=packed_cases(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reads_are_bit_identical(self, case, seed, data):
        width, values, start, length = case
        n = values.size
        words = _pack_reference(values, width)
        expected = _unpack_reference(words, width, n)
        assert np.array_equal(expected, values)

        assert np.array_equal(unpack(words, width, n), expected.view(np.int64))
        span = np.arange(start, start + length)
        assert np.array_equal(gather(words, width, span), expected[span].view(np.int64))
        if n:
            scattered = np.random.default_rng(seed).integers(0, n, 2 * n + 3)
            assert np.array_equal(
                gather(words, width, scattered), expected[scattered].view(np.int64)
            )

        packed = BitPackedArray(words, width, n)
        low, high = _bound(data.draw, width, expected), _bound(data.draw, width, expected)
        lo = 0 if low is None else low
        hi = 2**64 if high is None else high
        want = np.array([lo <= int(v) <= hi for v in expected], dtype=bool)
        assert np.array_equal(packed.compare_range(low, high), want)
        candidates = data.draw(
            st.lists(st.sampled_from([int(v) for v in expected[:16]] + [-1, 2**width]), max_size=4)
        )
        want = np.array([int(v) in candidates for v in expected], dtype=bool)
        assert np.array_equal(packed.compare_values(candidates), want)

    @settings(max_examples=150, deadline=None)
    @given(case=packed_cases())
    def test_read_only_word_buffers_are_accepted(self, case):
        width, values, start, length = case
        n = values.size
        words = np.frombuffer(_pack_reference(values, width).tobytes(), dtype=np.uint64)
        assert not words.flags.writeable
        expected = values.view(np.int64)
        assert np.array_equal(unpack(words, width, n), expected)
        span = np.arange(start, start + length)
        assert np.array_equal(gather(words, width, span), expected[span])
        packed = BitPackedArray(words, width, n)
        assert np.array_equal(packed.to_numpy(), expected)
        assert np.array_equal(packed.compare_range(1, None), values >= 1)

    @settings(max_examples=150, deadline=None)
    @given(case=packed_cases(), overshoot=st.integers(1, 70))
    def test_out_of_range_still_raises(self, case, overshoot):
        width, values, start, length = case
        if width == 0:
            return
        words = pack(values, width)
        capacity = words.size * 64 // width  # positions the buffer can hold
        last = capacity - 1 + overshoot
        with pytest.raises(DecodingError):
            gather(words, width, np.arange(start, last + 1))  # a span past the end
        with pytest.raises(DecodingError):
            gather(words, width, np.array([last, 0]))  # a scattered read past the end
        with pytest.raises(DecodingError):
            unpack(words, width, last + 1)
        with pytest.raises(DecodingError):
            gather(words, width, np.arange(-1, length))  # a span from before the start
        with pytest.raises(DecodingError):
            BitPackedArray(words, width, values.size).gather(np.arange(start, values.size + 1))


# -- no index arrays in the hot loops -----------------------------------------------


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name}")


def _called(node: ast.AST) -> list[tuple[str, ast.Call]]:
    """``(callee name, call)`` for every call under ``node``."""
    calls = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            calls.append((name, call))
    return calls


def test_hot_loops_build_no_index_arrays():
    bitpack = ast.parse((SRC / "bitpack.py").read_text())
    assert [name for name, _ in _called(bitpack) if name == "at"] == []
    for name in ("pack", "_span_unsigned"):
        assert "arange" not in {callee for callee, _ in _called(_function(bitpack, name))}, name

    plan = ast.parse((SRC / "query" / "plan.py").read_text())
    topk = {callee for callee, _ in _called(_function(plan, "_topk_block"))}
    assert "argsort" not in topk
    assert "_ranked_positions" in topk
    ranked = _called(_function(plan, "_ranked_positions"))
    assert "partition" in {callee for callee, _ in ranked}
    sorts = [call for callee, call in ranked if callee == "argsort"]
    assert sorts and all(isinstance(call.args[0], ast.Subscript) for call in sorts)


def test_sparse_gather_copies_no_word_buffer():
    # A sparse gather reads the words it needs, not a padded copy of all of them.
    bitpack = ast.parse((SRC / "bitpack.py").read_text())
    extract = {callee for callee, _ in _called(_function(bitpack, "_extract_unsigned"))}
    assert "concatenate" not in extract
