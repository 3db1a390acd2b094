"""Compressed-domain predicate and group-by kernels per encoding.

A predicate says *what* it compares (:meth:`Predicate.comparison`,
:attr:`Predicate.elementwise`); an encoded column says *how*, in its own
physical layout; this module is the only thing that connects the two:

* **Dictionary — code space.**  The constants of a leaf are translated to
  dictionary codes by binary search over the sorted dictionary (for strings:
  ``O(log n_distinct)`` heap probes, no per-row string) and compared against
  the packed codes.  On an integer dictionary a whole element-wise subtree
  is decided once per dictionary entry and fanned out through a single
  unpack of the codes.  Group-by groups are the distinct selected codes,
  keyed by the dictionary entries at those codes.
* **FOR/bit-packing — word space.**  Constant comparisons are shifted by the
  frame of reference and run directly over the packed words
  (:meth:`~repro.bitpack.BitPackedArray.compare_range`); machine lane widths
  (8/16/32/64) compare a zero-copy view of the packed buffer.
* **Delta — checkpoint space.**  On monotonic columns a range predicate is
  two binary searches over the checkpoint index, each decoding exactly one
  segment; the mask is a contiguous span.  Non-monotonic columns decline and
  fall back to the decode path.

Every other encoding (RLE, frequency, plain, FSST) has no kernel: its
columns decode and compare like any column a kernel declines.

A :class:`KernelRegistry` maps ``encoding_name`` to its kernel; the scan
and group-by layers consult it per (encoding, predicate) pair.
Every kernel is *exact*: it answers with the same mask or group keys the
decode-then-compare path would produce, or returns ``None`` to decline.
An empty ``KernelRegistry()`` declines every column, so an engine built
on one runs that decode path everywhere — the parity suites' reference.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..encodings.bitpacked import ForBitPackedColumn
from ..encodings.delta import DeltaEncodedColumn
from ..encodings.dictionary import DictEncodedIntColumn, DictEncodedStringColumn
from .predicates import Predicate
from .tracing import current_tracer

__all__ = [
    "ColumnKernel",
    "DictionaryKernel",
    "ForKernel",
    "DeltaKernel",
    "KernelRegistry",
    "DEFAULT_KERNELS",
]


_DICTIONARY_COLUMNS = (DictEncodedIntColumn, DictEncodedStringColumn)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


def _compare_constants(column, node: Predicate, exact_ints: bool) -> np.ndarray | None:
    """A leaf's constant comparison through the column's ``compare_*`` contract.

    The one body FOR, delta and dictionary columns share: the node states
    what it compares, the column answers with a mask or ``None`` to decline.
    ``exact_ints`` is for columns whose contract takes integers only — any
    other constant declines (the decode path owns the mixed-type degrade
    semantics).
    """
    comparison = node.comparison()
    if comparison is None:
        return None
    bounds, candidates = comparison
    constants = candidates if bounds is None else [b for b in bounds if b is not None]
    if exact_ints and not all(_is_int(c) for c in constants):
        return None
    if bounds is None:
        return column.compare_values(candidates)
    return column.compare_range(*bounds)


class ColumnKernel:
    """Compressed-domain evaluation for one encoding.

    Subclasses answer what they can and return ``None`` for everything else;
    the caller then falls back to the decode-then-compare path, so a kernel
    never needs to be complete — only correct.
    """

    #: ``EncodedColumn.encoding_name`` this kernel serves.
    encoding_name: str = ""

    def predicate_mask(self, name: str, column, node: Predicate) -> np.ndarray | None:
        """Row mask for ``node`` over the encoded column, or ``None``."""
        return None

    def group_keys(self, column, mask: "np.ndarray | None"):
        """``(keys, inverse)`` for grouping the selected rows, or ``None``.

        ``keys`` are the distinct selected values (sorted Python ints or
        strs, exactly the keys a decoded column groups into) and ``inverse``
        maps each selected row — in ascending row order — to its index in
        ``keys``.
        """
        return None

    def charge(self, metrics, column) -> None:
        """Record one answered predicate in the scan metrics."""


class DictionaryKernel(ColumnKernel):
    """Code-space evaluation over the two dictionary columns.

    A leaf's constants become codes by binary search and are compared
    against the packed codes; no value — and for strings no heap entry beyond
    the ``O(log n_distinct)`` probes — is materialised.  An integer
    dictionary *is* its distinct values as an array, so there a compound
    element-wise subtree is decided once per entry and fanned out through a
    single unpack of the codes; a string dictionary answers such a subtree
    leaf by leaf instead of decoding its heap.
    """

    encoding_name = "dictionary"

    def predicate_mask(self, name: str, column, node: Predicate) -> np.ndarray | None:
        if not isinstance(column, _DICTIONARY_COLUMNS):
            return None
        mask = _compare_constants(column, node, exact_ints=False)
        if mask is None and node.elementwise and isinstance(column, DictEncodedIntColumn):
            verdicts = np.asarray(node.evaluate({name: column.dictionary}), dtype=bool)
            mask = verdicts[column.codes()]
        return mask

    def group_keys(self, column, mask: "np.ndarray | None"):
        """Groups are the distinct selected codes; each key is the dictionary
        entry at its code, read once per group (no per-row value)."""
        if not isinstance(column, _DICTIONARY_COLUMNS):
            return None
        codes = column.codes()
        unique_codes, inverse = np.unique(
            codes if mask is None else codes[mask], return_inverse=True
        )
        if isinstance(column, DictEncodedStringColumn):
            heap = column.heap
            return [heap[code] for code in unique_codes.tolist()], inverse
        return column.dictionary[unique_codes].tolist(), inverse

    def charge(self, metrics, column) -> None:
        metrics.rows_dict_evaluated += column.n_values


class ForKernel(ColumnKernel):
    """Word-space comparisons over :class:`ForBitPackedColumn`.

    Constants shift by the frame of reference and compare against the packed
    words; non-integer constants decline.
    """

    encoding_name = "for_bitpack"

    def predicate_mask(self, name: str, column, node: Predicate) -> np.ndarray | None:
        if not isinstance(column, ForBitPackedColumn):
            return None
        return _compare_constants(column, node, exact_ints=True)

    def charge(self, metrics, column) -> None:
        metrics.rows_for_evaluated += column.n_values


class DeltaKernel(ColumnKernel):
    """Checkpoint-index comparisons over monotonic :class:`DeltaEncodedColumn`.

    The column's ``compare_*`` helpers return ``None`` on non-monotonic data,
    which this kernel passes through — the caller falls back to decoding.
    """

    encoding_name = "delta"

    def predicate_mask(self, name: str, column, node: Predicate) -> np.ndarray | None:
        if not isinstance(column, DeltaEncodedColumn):
            return None
        return _compare_constants(column, node, exact_ints=True)

    def charge(self, metrics, column) -> None:
        metrics.rows_for_evaluated += column.n_values


class KernelRegistry:
    """Dispatch table from ``encoding_name`` to its compressed-domain kernel.

    Consulted by :func:`~repro.query.scan.evaluate_block_predicate` (masks)
    and the group-by layer (code-space group keys).  Horizontally encoded
    columns never dispatch — a kernel sees only self-contained vertical
    columns.
    """

    def __init__(self, kernels: Iterable[ColumnKernel] = ()):
        self._kernels: dict[str, ColumnKernel] = {}
        for kernel in kernels:
            self.register(kernel)

    def register(self, kernel: ColumnKernel) -> None:
        self._kernels[kernel.encoding_name] = kernel

    @property
    def encodings(self) -> tuple[str, ...]:
        return tuple(self._kernels)

    def _lookup(self, block, name: str):
        if block.dependency(name) is not None:
            return None, None
        columns = getattr(block, "columns", None)
        if not isinstance(columns, dict):
            return None, None
        column = columns.get(name)
        if column is None:
            return None, None
        kernel = self._kernels.get(getattr(column, "encoding_name", ""))
        return kernel, column

    def predicate_mask(self, block, name: str, node: Predicate, metrics=None) -> np.ndarray | None:
        """``node``'s row mask over ``block``'s encoded column, or ``None``.

        Charges the kernel's scan-metrics counters on success and
        ``kernel_declines`` when a fast path existed but a *leaf* fell off
        it: a diff column whose dependency blocks dispatch, or a kernel that
        inspected the leaf and bowed out (non-integer constant,
        non-monotonic delta, no stated comparison).  A combinator a kernel
        does not answer whole is no decline: its leaves are offered next
        and charge for themselves.  Columns with no registered kernel
        charge nothing — there was never a fast path to fall off.
        """
        kernel, column = self._lookup(block, name)
        if kernel is None and block.dependency(name) is None:
            return None
        mask = None if kernel is None else kernel.predicate_mask(name, column, node)
        if mask is None or kernel is None:
            if metrics is not None and not node.children:
                metrics.kernel_declines += 1
            return None
        if metrics is not None:
            kernel.charge(metrics, column)
        # Name the compressed domain that answered on the enclosing
        # ``predicate`` span (no-op when tracing is off).
        current_tracer().annotate(kernel=kernel.encoding_name)
        return np.asarray(mask, dtype=bool)

    def group_keys(self, block, name: str, mask: "np.ndarray | None"):
        """Compressed-domain ``(keys, inverse)`` for a group-by column, or ``None``."""
        kernel, column = self._lookup(block, name)
        if kernel is None:
            return None
        return kernel.group_keys(column, mask)


#: The registry the query layers use unless handed a custom one.
DEFAULT_KERNELS = KernelRegistry((DictionaryKernel(), ForKernel(), DeltaKernel()))
