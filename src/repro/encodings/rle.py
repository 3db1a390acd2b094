"""Run-Length Encoding (RLE) with run-start checkpoints.

Consecutive equal values are collapsed into (value, run length) pairs.  RLE
shines on sorted or low-cardinality columns but, like Delta, needs a
binary search over run start positions for random access — the reason the
paper keeps it out of the latency baseline.  It participates in the size
comparison through the best-of selector.
"""

from __future__ import annotations

import numpy as np

from ..bitpack import BitPackedArray, required_bits
from ..dtypes import DataType
from ..errors import EncodingError
from .base import ColumnEncoding, EncodedColumn, ensure_int_array

__all__ = ["RleEncoding", "RleEncodedColumn"]

#: Fixed metadata: counts, widths.
_METADATA_BYTES = 16


class RleEncodedColumn(EncodedColumn):
    """A column stored as bit-packed run values and run start positions."""

    encoding_name = "rle"

    def __init__(self, values: np.ndarray):
        vals = ensure_int_array(values)
        self._n = int(vals.size)
        if self._n == 0:
            self._run_values = BitPackedArray.from_values(np.zeros(0, dtype=np.int64), 0)
            self._run_starts = np.zeros(0, dtype=np.int64)
            self._frame = 0
            return
        change = np.flatnonzero(np.diff(vals)) + 1
        starts = np.concatenate([[0], change])
        run_vals = vals[starts]
        self._frame = int(run_vals.min())
        shifted = run_vals - self._frame
        width = required_bits(int(shifted.max())) if shifted.size else 0
        self._run_values = BitPackedArray.from_values(shifted, width)
        self._run_starts = starts.astype(np.int64)

    @property
    def n_runs(self) -> int:
        return int(self._run_starts.size)

    @property
    def n_values(self) -> int:
        return self._n

    @property
    def size_bytes(self) -> int:
        # Run starts stored as 4-byte integers (block-local row ids).
        return self._run_values.size_bytes + self.n_runs * 4 + _METADATA_BYTES

    def decode(self) -> np.ndarray:
        if self._n == 0:
            return np.zeros(0, dtype=np.int64)
        run_vals = self._run_values.to_numpy() + self._frame
        lengths = np.diff(np.concatenate([self._run_starts, [self._n]]))
        return np.repeat(run_vals, lengths)

    def gather(self, positions: np.ndarray) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if pos.min() < 0 or pos.max() >= self._n:
            raise EncodingError("gather positions out of range")
        run_index = np.searchsorted(self._run_starts, pos, side="right") - 1
        return self._run_values.gather(run_index) + self._frame


class RleEncoding(ColumnEncoding):
    """Scheme wrapper for run-length encoding on integer-like columns."""

    name = "rle"

    def encode(self, values, dtype: DataType) -> EncodedColumn:
        if not self.supports(dtype):
            raise EncodingError(f"RLE does not support {dtype.name} columns")
        column = RleEncodedColumn(values)
        column.encoding_name = self.name
        return column

    def supports(self, dtype: DataType) -> bool:
        return dtype.is_integer_like
