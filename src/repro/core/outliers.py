"""Outlier storage architecture (paper §2.1 and §2.3, Fig. 4).

Rows whose target value cannot be reconstructed from the reference columns
(non-hierarchical encoding with an unbounded difference, or a multi-reference
row following none of the arithmetic rules) are stored verbatim in a side
region as ``(row index, original value)`` pairs.

The decompression design described in the paper keeps the main code stream at
its narrow bit width: the outlier *positions* decide whether a row is an
outlier, so no sentinel code is needed ("we can still use only two bits to
indicate four types of arithmetic operations and outlier values").  This
module implements exactly that: :meth:`OutlierStore.apply` overrides the
values the arithmetic reconstruction produced at outlier positions.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["OutlierStore"]

#: Bytes per stored outlier: 4-byte block-local row index + 8-byte value.
_BYTES_PER_OUTLIER = 4 + 8

#: Fixed header: outlier count.
_HEADER_BYTES = 4


class OutlierStore:
    """Sorted ``(position, value)`` pairs for rows outside the encodable range."""

    def __init__(self, positions: np.ndarray, values: np.ndarray):
        pos = np.asarray(positions, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if pos.shape != vals.shape:
            raise ValidationError(
                f"outlier positions and values differ in shape: "
                f"{pos.shape} vs {vals.shape}"
            )
        if pos.size and pos.min() < 0:
            raise ValidationError("outlier positions must be non-negative")
        order = np.argsort(pos, kind="stable")
        self._positions = pos[order]
        self._values = vals[order]
        if self._positions.size and np.any(np.diff(self._positions) == 0):
            raise ValidationError("duplicate outlier positions")

    @classmethod
    def empty(cls) -> "OutlierStore":
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @classmethod
    def from_mask(cls, mask: np.ndarray, values: np.ndarray) -> "OutlierStore":
        """Build a store from a boolean row mask and the full value array."""
        mask = np.asarray(mask, dtype=bool)
        vals = np.asarray(values)
        if mask.shape != vals.shape:
            raise ValidationError("mask and values must have the same shape")
        positions = np.flatnonzero(mask)
        return cls(positions, vals[positions])

    # -- accessors ------------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_outliers(self) -> int:
        return int(self._positions.size)

    def __len__(self) -> int:
        return self.n_outliers

    def __bool__(self) -> bool:
        return self.n_outliers > 0

    @property
    def size_bytes(self) -> int:
        """Bytes charged to the compressed column for this region."""
        return _HEADER_BYTES + self.n_outliers * _BYTES_PER_OUTLIER

    def fraction_of(self, n_rows: int) -> float:
        """Outlier fraction relative to a row count (0.0032 in Table 1)."""
        if n_rows <= 0:
            raise ValidationError("n_rows must be positive")
        return self.n_outliers / n_rows

    # -- decoding support ------------------------------------------------------

    def membership(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each requested position, whether it is an outlier and its value.

        Returns ``(is_outlier, outlier_values)`` where ``outlier_values`` is
        only meaningful where ``is_outlier`` is true.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if self.n_outliers == 0 or pos.size == 0:
            return np.zeros(pos.size, dtype=bool), np.zeros(pos.size, dtype=np.int64)
        idx = np.searchsorted(self._positions, pos)
        idx = np.clip(idx, 0, self.n_outliers - 1)
        is_outlier = self._positions[idx] == pos
        values = np.where(is_outlier, self._values[idx], 0)
        return is_outlier, values

    def apply(self, positions: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
        """Override ``reconstructed`` with stored values at outlier positions.

        Strictly ascending positions — what every scan and aggregate passes —
        locate the ``k`` outliers among them with one ``searchsorted`` of the
        outliers into the positions: ``O(k log n)`` after a single ordering
        check.  Unsorted or repeated positions go through :meth:`membership`.
        """
        out = np.asarray(reconstructed, dtype=np.int64).copy()
        pos = np.asarray(positions, dtype=np.int64)
        if self.n_outliers == 0 or pos.size == 0:
            return out
        if not np.all(pos[1:] > pos[:-1]):
            is_outlier, values = self.membership(pos)
            out[is_outlier] = values[is_outlier]
            return out
        at = np.searchsorted(pos, self._positions)
        np.minimum(at, pos.size - 1, out=at)
        hit = pos[at] == self._positions
        out[at[hit]] = self._values[hit]
        return out
