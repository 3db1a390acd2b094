"""Frame-of-Reference (FOR) + bit-packing encoding.

This is one half of the paper's single-column baseline ("We use FOR- or
Dict-encoding schemes, followed by a bit-packing"): subtract the column
minimum (the *frame of reference*) so values become small non-negative
offsets, then pack those offsets at the minimal bit width.

Random access is O(1) per value — fetch the packed offset and add the frame —
which is exactly why the paper chooses FOR/Dict over RLE/Delta for its
baseline (no checkpoints needed).
"""

from __future__ import annotations

import numpy as np

from ..bitpack import BitPackedArray, required_bits
from ..dtypes import DataType
from ..errors import EncodingError
from .base import ColumnEncoding, EncodedColumn, ensure_int_array

__all__ = ["ForBitPackEncoding", "ForBitPackedColumn"]

#: Fixed per-column metadata: 8-byte frame value + 2 bytes (bit width, count).
_METADATA_BYTES = 8 + 2


class ForBitPackedColumn(EncodedColumn):
    """A column stored as (frame, bit-packed offsets)."""

    encoding_name = "for_bitpack"

    def __init__(self, values: np.ndarray):
        vals = ensure_int_array(values)
        self._frame = int(vals.min()) if vals.size else 0
        # Offsets in uint64 modular arithmetic: a span of 2**63 or more does
        # not fit int64, and decode's int64 ``+ frame`` wraps it back.
        offsets = vals.view(np.uint64) - np.uint64(self._frame % 2**64)
        width = required_bits(int(offsets.max())) if vals.size else 0
        self._packed = BitPackedArray.from_values(offsets, width)

    @property
    def frame(self) -> int:
        """The frame of reference (column minimum) added back on decode."""
        return self._frame

    @property
    def bit_width(self) -> int:
        """Bits per packed offset."""
        return self._packed.bit_width

    @property
    def n_values(self) -> int:
        return self._packed.n_values

    @property
    def size_bytes(self) -> int:
        return self._packed.size_bytes + _METADATA_BYTES

    def decode(self) -> np.ndarray:
        return self._packed.to_numpy() + self._frame

    def gather(self, positions: np.ndarray) -> np.ndarray:
        return self._packed.gather(positions) + self._frame

    # -- word-space comparisons -----------------------------------------------

    def compare_range(self, low: int | None, high: int | None) -> np.ndarray:
        """Row mask for ``low <= value <= high`` without decoding.

        The bounds are shifted by the frame of reference and compared in the
        packed word domain (:meth:`BitPackedArray.compare_range`), so a
        ``Between`` over a FOR column never materialises the decoded array.
        """
        lo = None if low is None else int(low) - self._frame
        hi = None if high is None else int(high) - self._frame
        return self._packed.compare_range(lo, hi)

    def compare_values(self, values) -> np.ndarray:
        """Row mask for ``value in values`` in the packed word domain."""
        return self._packed.compare_values([int(v) - self._frame for v in values])


class ForBitPackEncoding(ColumnEncoding):
    """Scheme wrapper for FOR + bit-packing on integer-like columns."""

    name = "for_bitpack"

    def encode(self, values, dtype: DataType) -> EncodedColumn:
        if not self.supports(dtype):
            raise EncodingError(
                f"FOR/bit-packing does not support {dtype.name} columns"
            )
        column = ForBitPackedColumn(values)
        column.encoding_name = self.name
        return column

    def supports(self, dtype: DataType) -> bool:
        return dtype.is_integer_like

    def estimate_size(self, values, dtype: DataType) -> int:
        """Closed-form size estimate without materialising the packed buffer."""
        vals = ensure_int_array(values)
        if vals.size == 0:
            return _METADATA_BYTES
        width = required_bits(int(vals.max()) - int(vals.min()))
        return (vals.size * width + 7) // 8 + _METADATA_BYTES
