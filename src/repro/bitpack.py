"""Bit-packing kernel.

Every encoding in this library ultimately stores small unsigned integers with
as few bits as possible.  This module provides the packing/unpacking kernel
used for that: values of a fixed bit width ``k`` (0..64) are laid out
back-to-back in a little-endian ``uint64`` word buffer.

The implementation is fully vectorised with NumPy, and the per-block paths
build no per-value index arrays:

* :func:`pack` relies on the layout being *lane-periodic*: at width ``w``,
  ``P = 64 // gcd(w, 64)`` values fill exactly ``P·w/64`` words, so the
  values are reshaped to ``(groups, P)``, each lane is shifted to its offset
  in its word column, and the lanes are ORed into their one or two word
  columns — a fixed handful of NumPy calls, whatever the width or the
  length.  Machine lane widths (8/16/32/64) are the case of one word column
  per row and no straddling lane.
* :func:`unpack` (and the whole-array comparisons of
  :class:`BitPackedArray`) read a contiguous span.  Lane widths are a view;
  any other width reads eight strided, unaligned ``uint64`` lanes — eight
  consecutive values span exactly ``w`` bytes, so value ``8g + r`` sits at a
  fixed bit shift inside the 8 bytes ``g·w`` past lane ``r``'s start.  A
  value wider than 57 bits can spill one byte past that window; the spill is
  read from a ninth byte lane.
* :func:`gather` takes the span path when its positions are one ascending
  contiguous run, and otherwise reads each value from (at most) two words
  with plain vectorised shifts, so random access into a packed buffer does
  not require decompressing the whole buffer — the property the paper relies
  on when it restricts its baseline to FOR/Dict + bit-packing ("fast random
  access into the compressed column").

The paper's prototype uses native SIMD bit-packing; the layout here is the
same up to word size, so compressed *sizes* are identical and access costs
scale the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecodingError, ValidationError

__all__ = [
    "required_bits",
    "pack",
    "unpack",
    "gather",
    "packed_size_bytes",
    "BitPackedArray",
]

_WORD_BITS = 64

#: Bit ``i`` of the stream is bit ``i % 64`` of word ``i // 64``.  In the
#: words' little-endian byte image that is bit ``i % 8`` of byte ``i // 8``,
#: which the views below rely on; their explicit little-endian dtypes make
#: them read the same values on any host.
_WORD = np.dtype("<u8")

#: Bit widths that are whole machine lanes: the packed values *are* an array
#: of this dtype laid over the word buffer.
_LANE_DTYPES = {8: np.dtype("<u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4"), 64: _WORD}


def required_bits(max_value: int) -> int:
    """Number of bits needed to represent values in ``[0, max_value]``.

    ``max_value == 0`` needs 0 bits (the column is a constant zero and can be
    reconstructed without any payload).  Negative inputs are rejected: callers
    must first shift values into the unsigned domain (e.g. via FOR).
    """
    if max_value < 0:
        raise ValidationError(
            f"required_bits expects a non-negative maximum, got {max_value}"
        )
    return int(max_value).bit_length()


def packed_size_bytes(n_values: int, bit_width: int) -> int:
    """Size in bytes of ``n_values`` packed at ``bit_width`` bits each.

    This is the *logical* payload size (rounded up to whole bytes), which is
    what the paper reports; the in-memory word buffer rounds up to 8 bytes.
    """
    if n_values < 0:
        raise ValidationError("n_values must be non-negative")
    _check_width(bit_width)
    return (n_values * bit_width + 7) // 8


def _check_width(bit_width: int) -> None:
    if not 0 <= bit_width <= _WORD_BITS:
        raise ValidationError(
            f"bit width must be between 0 and {_WORD_BITS}, got {bit_width}"
        )


def pack(values: np.ndarray, bit_width: int) -> np.ndarray:
    """Pack unsigned integers into a little-endian ``uint64`` word buffer.

    Parameters
    ----------
    values:
        Non-negative integers, each representable in ``bit_width`` bits.
    bit_width:
        Number of bits per value, 0..64.  A width of 0 produces an empty
        buffer (all values must then be zero).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array holding the packed payload.
    """
    _check_width(bit_width)
    vals = np.asarray(values)
    if vals.size and vals.dtype.kind not in "iu":
        raise ValidationError(f"pack expects integer values, got dtype {vals.dtype}")
    if vals.size and vals.min() < 0:
        raise ValidationError("pack expects non-negative values; apply FOR first")
    if bit_width == 0:
        if vals.size and vals.max() != 0:
            raise ValidationError("bit width 0 requires all values to be zero")
        return np.zeros(0, dtype=np.uint64)
    if vals.size and bit_width < _WORD_BITS and int(vals.max()) >= (1 << bit_width):
        raise ValidationError(
            f"value {int(vals.max())} does not fit into {bit_width} bits"
        )

    n = vals.size
    n_words = (n * bit_width + _WORD_BITS - 1) // _WORD_BITS
    # Lane-periodic layout: value ``P·g + r`` starts at bit ``r·w`` of group
    # ``g``'s ``P·w/64`` words.  Lanes are in bit order and narrower than a
    # word, so every word column holds the start of a contiguous run of
    # lanes: one broadcast shift and one segmented OR per row assemble all
    # the low parts.  A lane that straddles a word boundary is the only one
    # crossing it, so the high parts OR into distinct columns in one step.
    period = _WORD_BITS // math.gcd(bit_width, _WORD_BITS)
    groups = -(-n // period)
    lanes = np.zeros((groups, period), dtype=np.uint64)
    lanes.reshape(-1)[:n] = vals
    column, shift = zip(*(divmod(r * bit_width, _WORD_BITS) for r in range(period)))
    first = [r for r in range(period) if r == 0 or column[r] != column[r - 1]]
    words = np.bitwise_or.reduceat(lanes << np.array(shift, dtype=np.uint64), first, axis=1)
    spill = [r for r in range(period) if shift[r] + bit_width > _WORD_BITS]
    if spill:
        high = np.array([_WORD_BITS - shift[r] for r in spill], dtype=np.uint64)
        words[:, [column[r] + 1 for r in spill]] |= lanes[:, spill] >> high
    return words.reshape(-1)[:n_words]


def unpack(words: np.ndarray, bit_width: int, n_values: int) -> np.ndarray:
    """Unpack ``n_values`` integers of ``bit_width`` bits from a word buffer."""
    _check_width(bit_width)
    if n_values < 0:
        raise ValidationError("n_values must be non-negative")
    if bit_width == 0:
        return np.zeros(n_values, dtype=np.int64)
    return _span_int64(np.asarray(words, dtype=np.uint64), bit_width, 0, n_values)


def gather(words: np.ndarray, bit_width: int, positions: np.ndarray) -> np.ndarray:
    """Random access: extract the values at ``positions`` from a packed buffer.

    This is the kernel used by the query engine to materialise a selection
    vector without decompressing the whole block.  Positions that are one
    ascending contiguous run (a whole block, a dense window) are read as a
    span; anything else — sparse, unsorted, repeated — by per-value
    extraction.
    """
    _check_width(bit_width)
    pos = np.asarray(positions, dtype=np.int64)
    if bit_width == 0:
        return np.zeros(pos.size, dtype=np.int64)
    words = np.asarray(words, dtype=np.uint64)
    if pos.size == 0:
        return np.zeros(0, dtype=np.int64)
    start = int(pos[0])
    if int(pos[-1]) - start == pos.size - 1 and bool(np.all(np.diff(pos) == 1)):
        return _span_int64(words, bit_width, start, pos.size)
    if pos.min() < 0:
        raise DecodingError("positions must be non-negative")
    return _extract_unsigned(words, bit_width, pos).astype(np.int64, copy=False)


def _span_int64(words: np.ndarray, bit_width: int, start: int, n: int) -> np.ndarray:
    """:func:`_span_unsigned` as ``int64`` that never aliases ``words``.

    Lane widths come back as a view of the word buffer and are copied; any
    other width is already a fresh ``uint64`` buffer and is reinterpreted.
    """
    values = _span_unsigned(words, bit_width, start, n)
    if bit_width in _LANE_DTYPES:
        return values.astype(np.int64)
    return values.view(np.int64)


def _span_unsigned(words: np.ndarray, bit_width: int, start: int, n: int) -> np.ndarray:
    """The ``n`` packed values from position ``start`` on, kept unsigned.

    Lane widths return a zero-copy view of the word buffer (in the lane
    dtype).  Every other width copies the span's words into a buffer with
    one spare zero word and reads eight strided, unaligned ``uint64`` lanes
    from it: values ``r, r+8, r+16, ...`` start ``w`` bytes apart at the same
    bit shift ``s < 8``, so lane ``r`` is one view and one shift, and one
    mask over all lanes finishes.  When ``s + w > 64`` (widths 58..63) the
    value's top bits sit in the next byte, read as a ninth strided ``uint8``
    lane.  Word-space comparison kernels use the unsigned result directly.
    """
    if start < 0:
        raise DecodingError("positions must be non-negative")
    end_bit = (start + n) * bit_width
    if end_bit > words.size * _WORD_BITS:
        raise DecodingError(
            f"position {start + n - 1} out of range for packed buffer of "
            f"{words.size} words at width {bit_width}"
        )
    lane = _LANE_DTYPES.get(bit_width)
    if lane is not None:
        return np.ascontiguousarray(words, dtype=_WORD).view(lane)[start : start + n]
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    first_word = (start * bit_width) // _WORD_BITS
    last_word = -(-end_bit // _WORD_BITS)
    span = np.zeros(last_word - first_word + 1, dtype=_WORD)
    span[:-1] = words[first_word:last_word]
    base = start * bit_width - first_word * _WORD_BITS
    # Row g of the grid holds values 8g..8g+7; cells past ``n`` in the last
    # row are never written and are sliced off.
    grid = np.empty((-(-n // 8), 8), dtype=np.uint64)
    for r in range(min(8, n)):
        byte, shift = divmod(base + r * bit_width, 8)
        rows = (n - r + 7) // 8
        values_r = grid[:rows, r]
        low = np.ndarray((rows,), _WORD, buffer=span, offset=byte, strides=(bit_width,))
        np.right_shift(low, np.uint64(shift), out=values_r)
        if shift + bit_width > _WORD_BITS:
            spill = np.ndarray((rows,), np.uint8, buffer=span, offset=byte + 8, strides=(bit_width,))
            values_r |= spill.astype(np.uint64) << np.uint64(_WORD_BITS - shift)
    grid &= np.uint64((1 << bit_width) - 1)
    return grid.reshape(-1)[:n]


def _extract_unsigned(words: np.ndarray, bit_width: int, pos: np.ndarray) -> np.ndarray:
    """The two-word extraction behind random-access :func:`gather`, unsigned.

    Each value is read from the word holding its first bit and the next one;
    the per-value index arrays make this the right tool for sparse or
    unordered positions only — contiguous spans go through
    :func:`_span_unsigned`.  The next-word index is clamped to the last
    word: a value that starts in the last word also ends there (the bound
    check below guarantees it), so the clamped read only feeds bits the
    mask discards, and at width 64 the offset is always 0.
    """
    bit_pos = pos.astype(np.uint64) * np.uint64(bit_width)
    word_idx = (bit_pos >> np.uint64(6)).astype(np.int64)
    offset = bit_pos & np.uint64(63)

    last_bit = int(bit_pos.max()) + bit_width
    if last_bit > words.size * _WORD_BITS:
        raise DecodingError(
            f"position {int(pos.max())} out of range for packed buffer of "
            f"{words.size} words at width {bit_width}"
        )

    low_words = words[word_idx]
    word_idx += 1
    np.minimum(word_idx, words.size - 1, out=word_idx)
    high_words = words[word_idx]

    low = low_words >> offset
    high = (high_words << (np.uint64(63) - offset)) << np.uint64(1)
    combined = low | high
    if bit_width < _WORD_BITS:
        mask = np.uint64((1 << bit_width) - 1)
        combined &= mask
    return combined


@dataclass
class BitPackedArray:
    """A packed integer array with enough metadata to read itself back.

    This is the unit the encodings store: a word buffer, the bit width, and
    the logical length.  ``size_bytes`` reports the byte-rounded payload size
    (the figure the paper's size tables are built from).
    """

    words: np.ndarray
    bit_width: int
    n_values: int

    @classmethod
    def from_values(cls, values: np.ndarray, bit_width: int | None = None) -> "BitPackedArray":
        """Pack ``values`` using ``bit_width`` (or the minimal width)."""
        vals = np.asarray(values)
        if bit_width is None:
            bit_width = required_bits(int(vals.max())) if vals.size else 0
        return cls(pack(vals, bit_width), bit_width, int(vals.size))

    def to_numpy(self) -> np.ndarray:
        """Decode the full array back to ``int64`` values."""
        return unpack(self.words, self.bit_width, self.n_values)

    def gather(self, positions: np.ndarray) -> np.ndarray:
        """Decode only the values at ``positions``."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and pos.max() >= self.n_values:
            raise DecodingError(
                f"position {int(pos.max())} out of range for array of "
                f"{self.n_values} values"
            )
        return gather(self.words, self.bit_width, pos)

    # -- word-space comparison kernels ----------------------------------------

    def _lanes(self) -> np.ndarray:
        """All packed values as unsigned lanes, in one span read.

        When the bit width is a machine lane width (8/16/32/64) the
        back-to-back little-endian layout means reinterpreting the word
        buffer *is* the value array, so this is a zero-copy view in the lane
        dtype and comparisons run directly over the packed bytes; any other
        width is one :func:`_span_unsigned` pass into ``uint64``.
        """
        if self.bit_width == 0 or self.n_values == 0:
            # Width-0 columns store no words at all; every value is zero.
            return np.zeros(self.n_values, dtype=np.uint64)
        return _span_unsigned(
            np.asarray(self.words, dtype=np.uint64), self.bit_width, 0, self.n_values
        )

    def compare_range(self, low: int | None, high: int | None) -> np.ndarray:
        """Mask of packed values inside ``[low, high]`` (``None`` = open).

        Bounds are in the *packed* (unsigned offset) domain — callers shift
        by their frame of reference first.  Out-of-domain bounds clamp, so an
        empty or all-covering range short-circuits without touching words.
        """
        n = self.n_values
        max_code = (1 << self.bit_width) - 1 if self.bit_width else 0
        lo = 0 if low is None else max(int(low), 0)
        hi = max_code if high is None else min(int(high), max_code)
        if lo > hi:
            return np.zeros(n, dtype=bool)
        if lo == 0 and hi == max_code:
            return np.ones(n, dtype=bool)
        lanes = self._lanes()
        if lo == 0:
            return lanes <= hi
        if hi == max_code:
            return lanes >= lo
        # The fused range check ``(x - lo) <= (hi - lo)`` is valid in the
        # lanes' own modular arithmetic, since every code fits the lane.
        code = lanes.dtype.type
        return (lanes - code(lo)) <= code(hi - lo)

    def compare_values(self, values) -> np.ndarray:
        """Mask of packed values equal to any candidate (packed domain)."""
        n = self.n_values
        max_code = (1 << self.bit_width) - 1 if self.bit_width else 0
        candidates = np.unique(
            np.array([int(v) for v in values if 0 <= int(v) <= max_code], dtype=np.uint64)
        )
        if candidates.size == 0 or n == 0:
            return np.zeros(n, dtype=bool)
        if candidates.size == 1:
            lanes = self._lanes()
            return lanes == candidates[0]
        return np.isin(self._lanes(), candidates)

    def __len__(self) -> int:
        return self.n_values

    @property
    def size_bytes(self) -> int:
        """Logical payload size in bytes (bit width times length, byte-rounded)."""
        return packed_size_bytes(self.n_values, self.bit_width)
