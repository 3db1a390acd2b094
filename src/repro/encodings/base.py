"""Abstract interfaces shared by all single-column (vertical) encodings.

Two concepts:

* :class:`ColumnEncoding` — a *scheme*: something that can look at the values
  of a column and produce a compressed representation.
* :class:`EncodedColumn` — the compressed representation itself.  It knows
  its compressed size (including any metadata, as the paper's Table 2 does),
  can decode the full column, and supports *random access* via
  :meth:`EncodedColumn.gather`, which is the operation the query latency
  experiments exercise.

Horizontal (correlation-aware) encodings in :mod:`repro.core` implement the
same :class:`EncodedColumn` interface, except that their ``gather`` needs the
decoded reference values as well; they therefore expose
``gather_with_reference``.  Keeping one interface lets the query engine and
the benchmark harness treat vertical and horizontal encodings uniformly.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..dtypes import DataType
from ..errors import EncodingError

__all__ = [
    "ColumnEncoding",
    "EncodedColumn",
    "ensure_int_array",
    "ensure_strings",
    "int64_candidates",
]


def ensure_int_array(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """Coerce input values to an ``int64`` array, rejecting non-integers."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        raise EncodingError(
            "integer encoding applied to floating-point values; convert to "
            "fixed-point first (see repro.dtypes.decimal_to_cents)"
        )
    if arr.dtype.kind not in "iu":
        raise EncodingError(
            f"integer encoding applied to values of dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


def int64_candidates(values: Sequence) -> list[int]:
    """The candidates an ``int64`` column can hold, as exact Python ints.

    Candidates compare *numerically*: ``5.0`` and ``True`` stand for ``5``
    and ``1``; non-integral floats (NaN and the infinities included),
    strings, ``None`` and integers outside the ``int64`` range equal no
    stored value and are dropped.  Every ``Eq``/``In`` evaluation over an
    integer column — decoded values or dictionary codes — goes through
    this, so no path rounds a candidate through ``float64`` (which merges
    neighbours above 2**53).
    """
    exact = []
    for value in values:
        if isinstance(value, (float, np.floating)):
            if not float(value).is_integer():
                continue
        elif not isinstance(value, (int, np.integer, np.bool_)):
            continue
        if -(2**63) <= int(value) < 2**63:
            exact.append(int(value))
    return exact


def ensure_strings(values: Sequence) -> list[str]:
    """Coerce input values to a list of Python strings."""
    out = []
    for v in values:
        if not isinstance(v, str):
            raise EncodingError(
                f"string encoding applied to non-string value {v!r}"
            )
        out.append(v)
    return out


class EncodedColumn(abc.ABC):
    """A compressed column supporting full decode and positional access."""

    #: Name of the scheme that produced this column (set by the encoder).
    encoding_name: str = "unknown"

    @property
    @abc.abstractmethod
    def n_values(self) -> int:
        """Number of logical values stored in the column."""

    @property
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Compressed size in bytes, *including* metadata (dictionaries,
        offsets arrays, outlier regions, ...)."""

    @abc.abstractmethod
    def decode(self) -> np.ndarray | list[str]:
        """Decode and return every value of the column."""

    @abc.abstractmethod
    def gather(self, positions: np.ndarray) -> np.ndarray | list[str]:
        """Decode only the values at the given row positions."""

    def __len__(self) -> int:
        return self.n_values

    def compression_ratio(self, uncompressed_bytes: int) -> float:
        """Compressed size relative to ``uncompressed_bytes`` (lower is better)."""
        if uncompressed_bytes <= 0:
            raise EncodingError("uncompressed size must be positive")
        return self.size_bytes / uncompressed_bytes

    def saving_rate(self, baseline_bytes: int) -> float:
        """Fractional size saving over a baseline, as reported in Table 2.

        ``saving_rate = 1 - size / baseline``; e.g. 0.583 means the column
        shrank by 58.3 % relative to the baseline encoding.
        """
        if baseline_bytes <= 0:
            raise EncodingError("baseline size must be positive")
        return 1.0 - self.size_bytes / baseline_bytes


class ColumnEncoding(abc.ABC):
    """A single-column encoding scheme (the *vertical* encodings of §1)."""

    #: Registry/reporting name, e.g. ``"for_bitpack"`` or ``"dictionary"``.
    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, values, dtype: DataType) -> EncodedColumn:
        """Compress ``values`` (whose logical type is ``dtype``)."""

    @abc.abstractmethod
    def supports(self, dtype: DataType) -> bool:
        """Whether this scheme can encode columns of the given logical type."""

    def estimate_size(self, values, dtype: DataType) -> int:
        """Compressed size this scheme would achieve on ``values``.

        The default implementation simply encodes and measures; schemes with
        a cheaper closed-form estimate may override this.  The optimizer in
        :mod:`repro.core.optimizer` relies on this method to build its cost
        graph.
        """
        return self.encode(values, dtype).size_bytes

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
