"""Compressed-domain predicate and aggregate kernels per encoding.

A predicate says *what* it compares (:meth:`Predicate.comparison`,
:attr:`Predicate.elementwise`); an encoded column says *how*, in its own
physical layout; this module is the only thing that connects the two:

* **Dictionary — code space.**  The constants of a leaf are translated to
  dictionary codes by binary search over the sorted dictionary (for strings:
  ``O(log n_distinct)`` heap probes, no per-row string) and compared against
  the packed codes.  On an integer dictionary a whole element-wise subtree
  is decided once per dictionary entry and fanned out through a single
  unpack of the codes.  Group-by keys are the distinct selected codes.
* **RLE — run space.**  Any single-column subtree of element-wise nodes
  (``Eq``/``Between``/``In`` composed with ``And``/``Or``/``Not``) is
  evaluated once per *run* over the (value, length) arrays and fanned out to
  a row mask with ``np.repeat``.  Aggregation receives the selection as
  ``(run_values, selected count per run)`` and reduces it run-weighted
  (:mod:`~repro.query.aggregates`), group-by keys are the surviving run
  values, and top-k walks the runs best-first — pushing each
  (value, run-length) pair once per run — so the row values are never
  materialised.
* **FOR/bit-packing — word space.**  Constant comparisons are shifted by the
  frame of reference and run directly over the packed words
  (:meth:`~repro.bitpack.BitPackedArray.compare_range`); machine lane widths
  (8/16/32/64) compare a zero-copy view of the packed buffer.
* **Delta — checkpoint space.**  On monotonic columns a range predicate is
  two binary searches over the checkpoint index, each decoding exactly one
  segment; the mask is a contiguous span.  Non-monotonic columns decline and
  fall back to the decode path.
* **Frequency — hot-value space.**  An element-wise subtree runs over the
  (at most ``n_hot``) hot values plus the exception list, and the verdicts
  fan out to rows through the packed codes.

A :class:`KernelRegistry` maps ``encoding_name`` to its kernel; the scan,
aggregation and group-by layers consult it per (encoding, predicate) pair.
Every kernel is *exact*: it answers with the same mask/aggregate the
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
from ..encodings.frequency import FrequencyEncodedColumn
from ..encodings.rle import RleEncodedColumn
from .predicates import Predicate
from .tracing import current_tracer

__all__ = [
    "ColumnKernel",
    "DictionaryKernel",
    "RleKernel",
    "ForKernel",
    "DeltaKernel",
    "FrequencyKernel",
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

    def selected_runs(self, column, mask: "np.ndarray | None"):
        """``(run_values, counts)`` of the rows selected by ``mask``, or ``None``.

        ``counts[i]`` is how many selected rows fall in run ``i``;
        ``mask=None`` selects every row.  What is reduced over the runs is
        not the kernel's business — :mod:`~repro.query.aggregates` owns that.
        """
        return None

    def group_keys(self, column, mask: "np.ndarray | None"):
        """``(keys, inverse)`` for grouping the selected rows, or ``None``.

        ``keys`` are the distinct selected values (sorted; Python ints, or
        raw UTF-8 heap slices for strings) and ``inverse`` maps each selected
        row — in ascending row order — to its index in ``keys``.
        """
        return None

    def topk(self, column, mask: np.ndarray, k: int, descending: bool):
        """Top-``k`` ``(values, positions)`` over the selected rows, or ``None``.

        ``positions`` are block-local row indices already in final rank
        order (best first, equal keys broken by ascending position) and
        ``values`` are the matching keys, both length ``min(k, selected)``.
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
        """Groups are the distinct selected codes; string keys stay raw heap
        byte slices, so no heap entry is decoded here at all."""
        if not isinstance(column, _DICTIONARY_COLUMNS):
            return None
        codes = column.codes()
        unique_codes, inverse = np.unique(
            codes if mask is None else codes[mask], return_inverse=True
        )
        if isinstance(column, DictEncodedStringColumn):
            heap = column.heap
            return [heap.key_bytes(int(code)) for code in unique_codes], inverse
        return [int(value) for value in column.dictionary[unique_codes]], inverse

    def charge(self, metrics, column) -> None:
        metrics.rows_dict_evaluated += column.n_values


class RleKernel(ColumnKernel):
    """Run-space evaluation over :class:`RleEncodedColumn`.

    Every element-wise node evaluates over the ``n_runs`` distinct run
    values, so a whole single-column subtree collapses to one pass over runs
    plus one fan-out.
    """

    encoding_name = "rle"

    def predicate_mask(self, name: str, column, node: Predicate) -> np.ndarray | None:
        if not isinstance(column, RleEncodedColumn) or not node.elementwise:
            return None
        run_mask = np.asarray(node.evaluate({name: column.run_values()}), dtype=bool)
        return column.expand_run_mask(run_mask)

    def _selected_per_run(self, column, mask: "np.ndarray | None") -> np.ndarray:
        """How many selected rows fall in each run (``mask=None``: all of them).

        The ``int64`` cast matters: ``np.add.reduceat`` over a boolean array
        computes logical OR per segment, not a sum.
        """
        if mask is None:
            return column.run_lengths()
        if column.n_runs == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(np.asarray(mask, dtype=np.int64), column.run_starts)

    def selected_runs(self, column, mask: "np.ndarray | None"):
        if not isinstance(column, RleEncodedColumn):
            return None
        return column.run_values(), self._selected_per_run(column, mask)

    def group_keys(self, column, mask: "np.ndarray | None"):
        runs = self.selected_runs(column, mask)
        if runs is None:
            return None
        run_values, counts = runs
        survivors = counts > 0
        unique_values, run_inverse = np.unique(run_values[survivors], return_inverse=True)
        # Rows expand run by run (runs are in row order), so repeating each
        # run's group id by its selected count yields the inverse in the same
        # ascending row order as ``np.flatnonzero(mask)``.
        mapped = np.zeros(column.n_runs, dtype=np.int64)
        mapped[survivors] = run_inverse
        inverse = np.repeat(mapped, counts)
        return [int(v) for v in unique_values], inverse

    def topk(self, column, mask: np.ndarray, k: int, descending: bool):
        if not isinstance(column, RleEncodedColumn) or k <= 0:
            return None
        counts = self._selected_per_run(column, mask)
        survivors = np.flatnonzero(counts > 0)
        if survivors.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        run_values = column.run_values()
        keys = run_values[survivors]
        # Stable argsort keeps equal-valued runs in ascending run (= row)
        # order, which is exactly the (key, row id) tie-break the sort
        # operator promises; ``~x`` (= ``-x - 1``) flips the key order without
        # touching the tie-break, and without the overflow ``-x`` has at
        # ``-2**63``.
        order = np.argsort(~keys if descending else keys, kind="stable")
        starts = column.run_starts
        lengths = column.run_lengths()
        mask_arr = np.asarray(mask, dtype=bool)
        out_values: list[int] = []
        out_positions: list[int] = []
        remaining = k
        for run_index in survivors[order]:
            start = int(starts[run_index])
            length = int(lengths[run_index])
            positions = np.flatnonzero(mask_arr[start : start + length]) + start
            take = positions[:remaining]
            out_positions.extend(int(p) for p in take)
            out_values.extend([int(run_values[run_index])] * int(take.size))
            remaining -= int(take.size)
            if remaining <= 0:
                break
        return (
            np.asarray(out_values, dtype=np.int64),
            np.asarray(out_positions, dtype=np.int64),
        )

    def charge(self, metrics, column) -> None:
        metrics.rows_rle_evaluated += column.n_values
        metrics.runs_evaluated += column.n_runs


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


class FrequencyKernel(ColumnKernel):
    """Hot-value evaluation over :class:`FrequencyEncodedColumn`.

    An element-wise subtree runs over the hot values and the exception list
    only, then fans out through the packed codes — a small dictionary, so it
    charges the dictionary code-space counter.
    """

    encoding_name = "frequency"

    def predicate_mask(self, name: str, column, node: Predicate) -> np.ndarray | None:
        if not isinstance(column, FrequencyEncodedColumn) or not node.elementwise:
            return None
        return column.evaluate_hot(
            lambda values: np.asarray(node.evaluate({name: values}), dtype=bool)
        )

    def charge(self, metrics, column) -> None:
        metrics.rows_dict_evaluated += column.n_values


class KernelRegistry:
    """Dispatch table from ``encoding_name`` to its compressed-domain kernel.

    Consulted by :func:`~repro.query.scan.evaluate_block_predicate` (masks),
    the aggregation layer (selected runs) and the group-by layer
    (code- and run-space group keys).  Horizontally encoded columns never
    dispatch — a kernel sees only self-contained vertical columns.
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
        ``kernel_declines`` when a fast path existed but declined: a diff
        column whose dependency blocks dispatch, or a kernel that inspected
        the node and bowed out (non-integer constant, non-monotonic delta,
        unsupported node shape).  Columns with no registered kernel charge
        nothing — there was never a fast path to fall off.
        """
        if block.dependency(name) is not None:
            if metrics is not None:
                metrics.kernel_declines += 1
            return None
        kernel, column = self._lookup(block, name)
        if kernel is None:
            return None
        mask = kernel.predicate_mask(name, column, node)
        if mask is None:
            if metrics is not None:
                metrics.kernel_declines += 1
            return None
        if metrics is not None:
            kernel.charge(metrics, column)
        # Name the compressed domain that answered on the enclosing
        # ``predicate`` span (no-op when tracing is off).
        current_tracer().annotate(kernel=kernel.encoding_name)
        return np.asarray(mask, dtype=bool)

    def selected_runs(self, block, name: str, mask: "np.ndarray | None"):
        """Run-space ``(run_values, counts)`` of the selected rows, or ``None``."""
        kernel, column = self._lookup(block, name)
        if kernel is None:
            return None
        runs = kernel.selected_runs(column, mask)
        if runs is not None:
            current_tracer().annotate(kernel=kernel.encoding_name)
        return runs

    def group_keys(self, block, name: str, mask: "np.ndarray | None"):
        """Compressed-domain ``(keys, inverse)`` for a group-by column, or ``None``."""
        kernel, column = self._lookup(block, name)
        if kernel is None:
            return None
        return kernel.group_keys(column, mask)

    def topk(self, block, name: str, mask: np.ndarray, k: int, descending: bool):
        """Compressed-domain top-``k`` ``(values, positions)``, or ``None``."""
        kernel, column = self._lookup(block, name)
        if kernel is None:
            return None
        result = kernel.topk(column, mask, k, descending)
        if result is not None:
            current_tracer().annotate(kernel=kernel.encoding_name)
        return result


#: The registry the query layers use unless handed a custom one.
DEFAULT_KERNELS = KernelRegistry(
    (DictionaryKernel(), RleKernel(), ForKernel(), DeltaKernel(), FrequencyKernel())
)
