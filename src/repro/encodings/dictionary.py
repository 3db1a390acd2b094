"""Dictionary encoding for integer and string columns.

The second half of the paper's single-column baseline.  Distinct values are
collected into a dictionary; each row stores a bit-packed code indexing that
dictionary.  For strings, the distinct values are packed into a *flattened*
character array with an offsets array ("we use Dict encoding and pack the
distinct strings into a flattened array"), mirroring the paper's setup.

Random access stays O(1): fetch the packed code, then one dictionary lookup.

Both dictionary columns additionally expose a *code-space* API used by the
query layer's dictionary kernel: ``codes`` returns the raw per-row dictionary
codes, ``lookup_codes`` translates a small set of candidate values into the
codes they map to (values absent from the dictionary simply translate to
nothing), and ``lookup_code_range`` maps an inclusive value range to the
contiguous half-open code interval covering it.  Because the dictionaries are
kept sorted, every translation is a binary search — for strings this touches
``O(log n_distinct)`` heap entries per candidate/bound and never materialises
the per-row strings.  ``compare_values``/``compare_range`` — the contract FOR
and delta columns also implement — put the two together: translate the
constants, then compare the packed codes, so ``Eq``/``In``/``Between`` run as
integer kernels without decoding the :class:`StringHeap`.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from ..bitpack import BitPackedArray, required_bits
from ..dtypes import DataType
from ..errors import DecodingError, EncodingError
from .base import (
    ColumnEncoding,
    EncodedColumn,
    ensure_int_array,
    ensure_strings,
    int64_candidates,
)

__all__ = [
    "DictionaryEncoding",
    "DictEncodedIntColumn",
    "DictEncodedStringColumn",
    "StringHeap",
]

#: Per-column fixed metadata: counts, bit width, dictionary length.
_METADATA_BYTES = 16


class StringHeap:
    """Distinct strings stored as one flattened UTF-8 buffer plus offsets.

    This is the physical layout the paper uses for string dictionaries; its
    size (payload + one 4-byte offset per distinct string) is charged to the
    compressed column size.
    """

    def __init__(self, distinct: Sequence[str]):
        self._strings = list(distinct)
        payload = bytearray()
        offsets = [0]
        for s in self._strings:
            payload.extend(s.encode("utf-8"))
            offsets.append(len(payload))
        self._payload = bytes(payload)
        self._offsets = np.asarray(offsets, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._strings)

    def __getitem__(self, index: int) -> str:
        return self.key_bytes(index).decode("utf-8")

    def key_bytes(self, index: int) -> bytes:
        """The raw UTF-8 payload slice of one entry, without decoding it.

        UTF-8 byte order equals code-point order, so these slices compare
        and hash exactly like the decoded strings — hash aggregation can
        group on them and defer the actual string materialisation to one
        decode per distinct group.
        """
        start, end = self._offsets[index], self._offsets[index + 1]
        return self._payload[start:end]

    def lookup_many(self, indices: np.ndarray) -> list[str]:
        """Materialise the strings at the given dictionary indices."""
        return [self[int(i)] for i in np.asarray(indices)]

    def find(self, value: str) -> int | None:
        """Binary-search the heap for ``value``; its index or ``None``.

        Requires the heap to have been built over sorted distinct strings
        (which :class:`DictEncodedStringColumn` guarantees).  Only the
        ``O(log n)`` probed entries are decoded — the heap is never
        materialised in full.
        """
        index = self.bisect_left(value)
        if index < len(self._strings) and self[index] == value:
            return index
        return None

    def bisect_left(self, value: str) -> int:
        """Index of the first entry ``>= value`` (requires a sorted heap).

        The heap implements the sequence protocol, so the stdlib search
        probes (and decodes) only ``O(log n)`` entries.
        """
        return bisect.bisect_left(self, value)

    def bisect_right(self, value: str) -> int:
        """Index one past the last entry ``<= value`` (requires a sorted heap)."""
        return bisect.bisect_right(self, value)

    @property
    def size_bytes(self) -> int:
        # Payload plus a 4-byte offset per entry (plus the terminating offset).
        return len(self._payload) + 4 * (len(self._strings) + 1)

    def all_strings(self) -> list[str]:
        return [self[i] for i in range(len(self._strings))]


class _CodeSpaceColumn(EncodedColumn):
    """What both dictionary columns share: packed codes over a sorted dictionary."""

    _codes: BitPackedArray

    def codes(self) -> np.ndarray:
        """The raw per-row dictionary codes as an int64 array."""
        return self._codes.to_numpy()

    def compare_values(self, values: Sequence) -> np.ndarray:
        """Row mask for ``value in values``, compared over the packed codes.

        No candidate in the dictionary answers all-false without touching
        the codes at all.
        """
        return self._codes.compare_values(self.lookup_codes(values))

    def compare_range(self, low, high) -> np.ndarray | None:
        """Row mask for ``low <= value <= high``, compared over the packed codes.

        The dictionary is sorted, so the range is one code interval and the
        mask one integer-range comparison; ``None`` (decline) when a bound's
        type has no defined order against the dictionary.
        """
        interval = self.lookup_code_range(low, high)
        if interval is None:
            return None
        return self._codes.compare_range(interval[0], interval[1] - 1)


class DictEncodedIntColumn(_CodeSpaceColumn):
    """Dictionary-encoded integer-like column: codes + int64 dictionary."""

    encoding_name = "dictionary"

    def __init__(self, values: np.ndarray):
        vals = ensure_int_array(values)
        self._dictionary, codes = np.unique(vals, return_inverse=True)
        width = required_bits(len(self._dictionary) - 1) if len(self._dictionary) else 0
        self._codes = BitPackedArray.from_values(codes.astype(np.int64), width)

    @property
    def dictionary(self) -> np.ndarray:
        return self._dictionary

    @property
    def bit_width(self) -> int:
        return self._codes.bit_width

    @property
    def n_values(self) -> int:
        return self._codes.n_values

    @property
    def size_bytes(self) -> int:
        return self._codes.size_bytes + self._dictionary.size * 8 + _METADATA_BYTES

    def decode(self) -> np.ndarray:
        return self._dictionary[self._codes.to_numpy()]

    def gather(self, positions: np.ndarray) -> np.ndarray:
        return self._dictionary[self._codes.gather(positions)]

    def gather_codes(self, positions: np.ndarray) -> np.ndarray:
        """Positional access to the raw dictionary codes (used by Corra)."""
        return self._codes.gather(positions)

    def decode_codes(self) -> np.ndarray:
        """Legacy alias of :meth:`codes`."""
        return self.codes()

    # -- code-space API (dictionary-domain predicate evaluation) --------------

    def lookup_codes(self, values: Sequence) -> np.ndarray:
        """Codes of the candidate ``values`` present in the dictionary.

        Candidates compare *numerically*
        (:func:`~repro.encodings.base.int64_candidates`): ``5.0`` and
        ``True`` find the rows storing ``5`` and ``1``, while non-integral
        floats, strings and values outside the dictionary translate to
        nothing.  The dictionary is sorted (``np.unique``), so each
        candidate costs one binary search.
        """
        candidates = int64_candidates(values)
        if not candidates or self._dictionary.size == 0:
            return np.empty(0, dtype=np.int64)
        cand = np.asarray(candidates, dtype=np.int64)
        pos = np.searchsorted(self._dictionary, cand)
        in_range = pos < self._dictionary.size
        hits = pos[in_range][self._dictionary[pos[in_range]] == cand[in_range]]
        return np.unique(hits).astype(np.int64)

    def lookup_code_range(self, low, high) -> tuple[int, int] | None:
        """Half-open code interval ``[lo, hi)`` of values within ``[low, high]``.

        The dictionary is sorted, so an inclusive range predicate maps to a
        contiguous run of codes found with two binary searches; ``None``
        bounds leave that side open.  Bounds compare numerically, exactly
        like the decoded kernel (floats compare as floats, NaN and string
        bounds match nothing); an unsupported bound type returns ``None``
        so the caller falls back to decoded evaluation.
        """
        numeric = (int, np.integer, bool, np.bool_, float, np.floating)
        for bound in (low, high):
            if bound is None:
                continue
            if isinstance(bound, str):
                # The decoded kernel degrades a mistyped bound to all-false.
                return (0, 0)
            if not isinstance(bound, numeric):
                return None
            if isinstance(bound, (float, np.floating)) and math.isnan(bound):
                return (0, 0)
        lo = 0 if low is None else int(np.searchsorted(self._dictionary, low, side="left"))
        hi = (
            self._dictionary.size
            if high is None
            else int(np.searchsorted(self._dictionary, high, side="right"))
        )
        return (lo, hi)


class DictEncodedStringColumn(_CodeSpaceColumn):
    """Dictionary-encoded string column: codes + flattened string heap."""

    encoding_name = "dictionary"

    def __init__(self, values: Sequence[str]):
        strings = ensure_strings(values)
        distinct = sorted(set(strings))
        index = {s: i for i, s in enumerate(distinct)}
        codes = np.fromiter(
            (index[s] for s in strings), dtype=np.int64, count=len(strings)
        )
        self._heap = StringHeap(distinct)
        width = required_bits(len(distinct) - 1) if distinct else 0
        self._codes = BitPackedArray.from_values(codes, width)

    @property
    def dictionary(self) -> list[str]:
        return self._heap.all_strings()

    @property
    def heap(self) -> StringHeap:
        return self._heap

    @property
    def bit_width(self) -> int:
        return self._codes.bit_width

    @property
    def n_values(self) -> int:
        return self._codes.n_values

    @property
    def size_bytes(self) -> int:
        return self._codes.size_bytes + self._heap.size_bytes + _METADATA_BYTES

    def decode(self) -> list[str]:
        return self._heap.lookup_many(self._codes.to_numpy())

    def gather(self, positions: np.ndarray) -> list[str]:
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and pos.max() >= self.n_values:
            raise DecodingError("gather positions out of range")
        return self._heap.lookup_many(self._codes.gather(pos))

    def gather_codes(self, positions: np.ndarray) -> np.ndarray:
        """Positional access to the raw dictionary codes (used by Corra)."""
        return self._codes.gather(positions)

    def decode_codes(self) -> np.ndarray:
        """Legacy alias of :meth:`codes`."""
        return self.codes()

    # -- code-space API (dictionary-domain predicate evaluation) --------------

    def lookup_codes(self, values: Sequence) -> np.ndarray:
        """Codes of the candidate ``values`` present in the dictionary.

        Each string candidate is compared once against ``O(log n_distinct)``
        heap entries via :meth:`StringHeap.find`; the per-row strings are
        never materialised.  Non-string candidates and strings absent from
        the dictionary translate to nothing.
        """
        found = {
            code for code in (
                self._heap.find(v) for v in values if isinstance(v, str)
            ) if code is not None
        }
        return np.asarray(sorted(found), dtype=np.int64)

    def lookup_code_range(self, low, high) -> tuple[int, int]:
        """Half-open code interval ``[lo, hi)`` of values within ``[low, high]``.

        The heap holds the distinct strings sorted, so an inclusive range
        predicate maps to a contiguous run of codes found with two binary
        searches (each touching ``O(log n_distinct)`` heap entries); ``None``
        bounds leave that side open and non-string bounds match nothing,
        mirroring the decoded kernel's degrade-to-empty semantics.
        """
        for bound in (low, high):
            if bound is not None and not isinstance(bound, str):
                return (0, 0)
        lo = 0 if low is None else self._heap.bisect_left(low)
        hi = len(self._heap) if high is None else self._heap.bisect_right(high)
        return (lo, hi)


class DictionaryEncoding(ColumnEncoding):
    """Scheme wrapper: dictionary + bit-packed codes for any logical type."""

    name = "dictionary"

    def encode(self, values, dtype: DataType) -> EncodedColumn:
        if dtype.is_string:
            column: EncodedColumn = DictEncodedStringColumn(values)
        elif dtype.is_integer_like:
            column = DictEncodedIntColumn(values)
        else:
            raise EncodingError(
                f"dictionary encoding does not support {dtype.name} columns"
            )
        column.encoding_name = self.name
        return column

    def supports(self, dtype: DataType) -> bool:
        return dtype.is_string or dtype.is_integer_like
