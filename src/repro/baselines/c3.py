"""C3 comparator (Glas et al.) — the independent correlation-aware system.

The paper's Table 3 compares Corra against C3, the independent work that also
exploits column correlations on top of BtrBlocks.  C3 is closed source, so
this module reimplements the three C3 encoding schemes the paper describes,
just well enough to regenerate the comparison's shape:

* **DFOR** — "a hierarchical encoding where the diff-encoded column is
  compressed via FOR": difference to the reference, then frame-of-reference
  + bit-packing applied per mini-block, which can shave a little extra when
  the differences cluster locally.
* **Numerical** — "generalizes the non-hierarchical encoding scheme as an
  affine function": fit ``target ≈ round(alpha * reference + beta)`` and
  store the bit-packed residuals.  This is what lets C3 beat plain
  diff-encoding on (pickup, dropoff) when the correlation is affine rather
  than purely additive.
* **1-to-1** — "specialized for the case where one could directly infer the
  diff-encoded column from the reference column": store one value per
  distinct reference value plus an exception list for rows deviating from
  that mode.

:class:`C3Selector` picks the smallest of the three per column pair, which is
how the paper lets "C3 choose the (correlation-aware) encoding scheme for a
given pair of columns".  C3 does not support multiple reference columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bitpack import packed_size_bytes, required_bits
from ..core.hierarchical import ColumnCodes, HierarchicalEncoding, sorted_pair_keys
from ..encodings.base import ensure_int_array
from ..errors import EncodingError
from ..storage.table import Table

__all__ = [
    "C3SchemeEstimate",
    "dfor_size",
    "numerical_size",
    "one_to_one_size",
    "c3_hierarchical_size",
    "C3Selector",
]

#: Mini-block length used by DFOR's per-block frames (BtrBlocks-style).
_DFOR_MINIBLOCK = 65_536

#: Metadata charged per column by every C3 scheme (header, widths).
_METADATA_BYTES = 16


@dataclass(frozen=True)
class C3SchemeEstimate:
    """Size estimate of one C3 scheme applied to one column pair."""

    scheme: str
    size_bytes: int
    detail: str = ""


def dfor_size(target, reference) -> int:
    """Size of C3's DFOR: per-mini-block FOR over the differences."""
    tgt = ensure_int_array(target)
    ref = ensure_int_array(reference)
    if tgt.shape != ref.shape:
        raise EncodingError("target and reference must have equal length")
    if tgt.size == 0:
        return _METADATA_BYTES
    diffs = tgt - ref
    total = _METADATA_BYTES
    for start in range(0, diffs.size, _DFOR_MINIBLOCK):
        block = diffs[start:start + _DFOR_MINIBLOCK]
        width = required_bits(int(block.max() - block.min()))
        total += packed_size_bytes(block.size, width)
        total += 8 + 1  # per-mini-block frame + width byte
    return total


def numerical_size(target, reference) -> int:
    """Size of C3's Numerical scheme: affine fit + bit-packed residuals."""
    tgt = ensure_int_array(target).astype(np.float64)
    ref = ensure_int_array(reference).astype(np.float64)
    if tgt.shape != ref.shape:
        raise EncodingError("target and reference must have equal length")
    if tgt.size == 0:
        return _METADATA_BYTES
    if np.all(ref == ref[0]):
        alpha, beta = 0.0, float(np.round(np.median(tgt)))
    else:
        alpha, beta = np.polyfit(ref, tgt, deg=1)
    predicted = np.round(alpha * ref + beta).astype(np.int64)
    residuals = ensure_int_array(target) - predicted
    width = required_bits(int(residuals.max() - residuals.min()))
    # Residual payload + the affine coefficients (two doubles) + frame.
    return packed_size_bytes(residuals.size, width) + 16 + 8 + _METADATA_BYTES


def one_to_one_size(target, reference) -> int:
    """Size of C3's 1-to-1 scheme: per-reference-value mode + exceptions.

    Every distinct reference value maps to its most frequent target value
    (stored once); rows deviating from that mode are stored as exceptions
    (4-byte row id + 8-byte value).
    """
    if len(target) != len(reference):
        raise EncodingError("target and reference must have equal length")
    n = len(target)
    if n == 0:
        return _METADATA_BYTES

    target_codes = ColumnCodes.of(target)
    ref_codes = ColumnCodes.of(reference)
    keys, first = sorted_pair_keys(target_codes, ref_codes)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=keys.size)

    # Most frequent target per reference value ("the" inferred value).
    mode_count = np.zeros(ref_codes.n_distinct, dtype=np.int64)
    np.maximum.at(mode_count, keys[starts] // target_codes.n_distinct, counts)

    n_exceptions = n - int(mode_count.sum())
    mapping_bytes = 8 * ref_codes.n_distinct
    exception_bytes = n_exceptions * (4 + 8)
    return mapping_bytes + exception_bytes + _METADATA_BYTES


def c3_hierarchical_size(target, reference) -> int:
    """Size of C3's hierarchical family on the pair.

    The paper notes that C3 "explores more implementations of hierarchical
    encoding schemes, e.g., using FOR for the diff-encoded column"; for size
    purposes those coincide with Corra's hierarchical layout (per-group value
    lists + group-local codes), so this reuses that estimator.
    """
    return HierarchicalEncoding().estimate_size(target, reference)


class C3Selector:
    """Let C3 pick its best scheme for a column pair (as in Table 3)."""

    def estimates(self, table: Table, target: str, reference: str) -> list[C3SchemeEstimate]:
        """Size of every applicable C3 scheme on the pair (target, reference)."""
        target_values = table.column(target)
        reference_values = table.column(reference)
        target_dtype = table.dtype(target)
        reference_dtype = table.dtype(reference)

        estimates: list[C3SchemeEstimate] = []
        if target_dtype.is_integer_like and reference_dtype.is_integer_like:
            estimates.append(
                C3SchemeEstimate("DFOR", dfor_size(target_values, reference_values))
            )
            estimates.append(
                C3SchemeEstimate(
                    "Numerical", numerical_size(target_values, reference_values)
                )
            )
        estimates.append(
            C3SchemeEstimate(
                "1-to-1", one_to_one_size(target_values, reference_values)
            )
        )
        estimates.append(
            C3SchemeEstimate(
                "Hierarchical", c3_hierarchical_size(target_values, reference_values)
            )
        )
        return estimates

    def best(self, table: Table, target: str, reference: str) -> C3SchemeEstimate:
        """The smallest C3 scheme for the pair."""
        estimates = self.estimates(table, target, reference)
        return min(estimates, key=lambda e: e.size_bytes)
