"""Frequency encoding (hot values + exception list).

A classic scheme mentioned in the paper's opening list of ad-hoc vertical
encodings: the top-``k`` most frequent values get short codes; everything
else becomes an exception stored verbatim in a side table.  It is most useful
on heavily skewed columns (a handful of values covering nearly all rows).

The exception region here doubles as a small-scale preview of the outlier
storage architecture that the Corra multi-reference encoding formalises in
:mod:`repro.core.outliers`.
"""

from __future__ import annotations

import numpy as np

from ..bitpack import BitPackedArray, required_bits
from ..dtypes import DataType
from ..errors import EncodingError
from .base import ColumnEncoding, EncodedColumn, ensure_int_array

__all__ = ["FrequencyEncoding", "FrequencyEncodedColumn"]

#: Fixed metadata: counts, widths, hot-set size.
_METADATA_BYTES = 16

#: Default number of "hot" values receiving short codes.
DEFAULT_HOT_VALUES = 255


class FrequencyEncodedColumn(EncodedColumn):
    """Hot values get dictionary codes; cold rows go to an exception list."""

    encoding_name = "frequency"

    def __init__(self, values: np.ndarray, n_hot: int = DEFAULT_HOT_VALUES):
        if n_hot < 1:
            raise EncodingError("frequency encoding needs at least one hot value")
        vals = ensure_int_array(values)
        self._n = int(vals.size)
        if self._n == 0:
            self._hot_values = np.zeros(0, dtype=np.int64)
            self._codes = BitPackedArray.from_values(np.zeros(0, dtype=np.int64), 0)
            self._exception_positions = np.zeros(0, dtype=np.int64)
            self._exception_values = np.zeros(0, dtype=np.int64)
            return

        uniques, counts = np.unique(vals, return_counts=True)
        order = np.argsort(counts)[::-1]
        hot = uniques[order[:n_hot]]
        self._hot_values = np.sort(hot)

        hot_index = np.searchsorted(self._hot_values, vals)
        hot_index = np.clip(hot_index, 0, len(self._hot_values) - 1)
        is_hot = self._hot_values[hot_index] == vals

        # Code 0..len(hot)-1 for hot rows; exceptions keep code 0 and are
        # overridden at decode time via the exception list.
        codes = np.where(is_hot, hot_index, 0).astype(np.int64)
        width = required_bits(len(self._hot_values) - 1) if len(self._hot_values) else 0
        self._codes = BitPackedArray.from_values(codes, width)
        self._exception_positions = np.flatnonzero(~is_hot).astype(np.int64)
        self._exception_values = vals[~is_hot].astype(np.int64)

    @property
    def n_exceptions(self) -> int:
        return int(self._exception_positions.size)

    @property
    def n_values(self) -> int:
        return self._n

    @property
    def size_bytes(self) -> int:
        return (
            self._codes.size_bytes
            + self._hot_values.size * 8
            + self.n_exceptions * (4 + 8)  # 4-byte row id + 8-byte value
            + _METADATA_BYTES
        )

    def decode(self) -> np.ndarray:
        if self._n == 0:
            return np.zeros(0, dtype=np.int64)
        out = self._hot_values[self._codes.to_numpy()]
        out[self._exception_positions] = self._exception_values
        return out

    def gather(self, positions: np.ndarray) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if pos.min() < 0 or pos.max() >= self._n:
            raise EncodingError("gather positions out of range")
        out = self._hot_values[self._codes.gather(pos)]
        if self.n_exceptions:
            exc_idx = np.searchsorted(self._exception_positions, pos)
            exc_idx = np.clip(exc_idx, 0, self.n_exceptions - 1)
            hit = self._exception_positions[exc_idx] == pos
            out[hit] = self._exception_values[exc_idx[hit]]
        return out


class FrequencyEncoding(ColumnEncoding):
    """Scheme wrapper for frequency encoding on integer-like columns."""

    name = "frequency"

    def __init__(self, n_hot: int = DEFAULT_HOT_VALUES):
        self.n_hot = n_hot

    def encode(self, values, dtype: DataType) -> EncodedColumn:
        if not self.supports(dtype):
            raise EncodingError(
                f"frequency encoding does not support {dtype.name} columns"
            )
        column = FrequencyEncodedColumn(values, self.n_hot)
        column.encoding_name = self.name
        return column

    def supports(self, dtype: DataType) -> bool:
        return dtype.is_integer_like
