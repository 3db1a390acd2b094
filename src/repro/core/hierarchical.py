"""Hierarchical encoding — paper §2.2.

Targets column pairs with a hierarchy such as (``city``, ``zip_code``) in the
DMV dataset or (``countryid``, ``ip``) in LDBC's ``message``: the dependent
column has many distinct values overall, but only a handful *per reference
value*.

Layout (Fig. 3 of the paper):

* ``group_values`` — the distinct dependent values of every reference group,
  concatenated ("zip_codes" in the paper's figure), bit-packed.
* ``offsets`` — where each reference group's slice starts inside
  ``group_values``.
* per-row *local codes* — the index of the row's value within its group's
  slice, bit-packed at ``ceil(log2(max group fan-out))`` bits.  This is where
  the saving comes from: a city with 40 zip codes needs 6 bits per row
  instead of the 12+ bits a global zip dictionary would need.

String dependents (e.g. IP addresses) are first dictionary-encoded into a
flattened string heap whose size is charged to this column, matching the
paper's "reducing the necessary bit-width for storing the unique IPs via a
dict-encoding".  String targets and references are factorised by the
dictionary column's own :func:`~repro.encodings.dictionary.factorize_strings`,
so both give the same codes and the same sorted domain.

Decoding follows Algorithm 1: fetch the reference value, map it to its group,
then read ``group_values[offsets[group] + local_code]``.  Groups are numbered
in the sorted order of the distinct reference values, and the reference →
group mapping is rebuilt from the decoded reference values (a dict for
strings, a ``searchsorted`` over the sorted domain for integers).  That
domain is not charged to this column's size: the reference column stores
the same values.  Handing the reference column's own dictionary codes to
the gather instead would skip the decode and the lookup (ROADMAP 11B).

The size of the layout follows from four counts of the (reference, target)
pairs, so :meth:`HierarchicalEncoding.estimate_size` and the correlation
detector compute it without encoding (see :class:`PairStatistics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..bitpack import BitPackedArray, packed_size_bytes, required_bits
from ..encodings.dictionary import StringHeap, factorize_strings
from ..errors import DecodingError, EncodingError
from .base import HorizontalEncodedColumn, ReferenceValues

__all__ = [
    "HierarchicalEncodedColumn",
    "HierarchicalEncoding",
    "HierarchicalStats",
    "ColumnCodes",
    "PairStatistics",
    "sorted_pair_keys",
]

#: Fixed per-column metadata: counts and widths.
_METADATA_BYTES = 16


@dataclass(frozen=True)
class HierarchicalStats:
    """Summary statistics of a hierarchical encoding."""

    n_values: int
    n_groups: int
    n_distinct_targets: int
    max_group_fanout: int
    code_bit_width: int
    size_bytes: int

    @property
    def average_fanout(self) -> float:
        return self.n_distinct_targets / self.n_groups if self.n_groups else 0.0


def _to_codes(values) -> tuple[np.ndarray, np.ndarray | list[str], bool]:
    """Map values to dense integer codes.

    Returns ``(codes, domain, is_string)`` where ``domain[code]`` recovers the
    original value.  Integer domains come back as an ``int64`` array, string
    domains as the sorted list :func:`factorize_strings` gives every string
    dictionary.
    """
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), False
    if isinstance(values[0], str):
        codes, distinct = factorize_strings(values)
        return codes, distinct, True
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise EncodingError(
            f"hierarchical encoding expects integer or string values, "
            f"got dtype {arr.dtype}"
        )
    domain, codes = np.unique(arr.astype(np.int64), return_inverse=True)
    return codes.astype(np.int64), domain.astype(np.int64), False


@dataclass(frozen=True)
class ColumnCodes:
    """One column factorised once: dense codes, domain size, string heap bytes.

    ``heap_bytes`` is what the column's distinct values cost as a hierarchical
    target: the ``size_bytes`` of the :class:`StringHeap` a string domain is
    stored as; an integer domain costs nothing beyond ``group_values``.
    """

    codes: np.ndarray
    n_distinct: int
    heap_bytes: int

    @classmethod
    def of(cls, values) -> ColumnCodes:
        codes, domain, is_string = _to_codes(values)
        heap_bytes = StringHeap(domain).size_bytes if is_string else 0
        return cls(codes, len(domain), heap_bytes)


def sorted_pair_keys(target: ColumnCodes, reference: ColumnCodes) -> tuple[np.ndarray, np.ndarray]:
    """Every row's pair key in ascending order, and where each distinct key starts.

    A key is ``reference_code · n_targets + target_code``, exactly as the
    encoder forms it, so ``keys[first]`` are the distinct pairs, group-major.
    Sort and compare rather than ``np.unique``: numpy 2's hash-based
    ``np.unique`` on int64 is an order of magnitude slower than the sort.
    """
    keys = np.sort(reference.codes * np.int64(target.n_distinct) + target.codes)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys, first


@dataclass(frozen=True)
class PairStatistics:
    """The counts that fix the size of ``target`` encoded under ``reference``.

    A group is a distinct reference value; a pair is a distinct
    (reference, target) combination, i.e. one entry of ``group_values``.
    """

    n_values: int
    n_targets: int
    n_groups: int
    n_pairs: int
    max_fanout: int
    heap_bytes: int

    @classmethod
    def of(cls, target: ColumnCodes, reference: ColumnCodes) -> PairStatistics:
        if target.codes.size == 0:
            return cls(0, 0, 0, 0, 0, 0)
        keys, first = sorted_pair_keys(target, reference)
        pairs = keys[first]
        return cls(
            n_values=int(target.codes.size),
            n_targets=target.n_distinct,
            n_groups=reference.n_distinct,
            n_pairs=int(pairs.size),
            max_fanout=int(np.bincount(pairs // target.n_distinct).max()),
            heap_bytes=target.heap_bytes,
        )

    @property
    def global_code_bits(self) -> int:
        """Bits per row of a global dictionary code over the target domain."""
        return required_bits(max(self.n_targets - 1, 0))

    @property
    def local_code_bits(self) -> int:
        """Bits per row of the group-local code (the widest group decides)."""
        return required_bits(max(self.max_fanout - 1, 0))

    @property
    def size_bytes(self) -> int:
        """Equal to ``HierarchicalEncodedColumn.size_bytes`` for the same pair."""
        return (
            packed_size_bytes(self.n_values, self.local_code_bits)
            + packed_size_bytes(self.n_pairs, self.global_code_bits)
            + 4 * (self.n_groups + 1)
            + self.heap_bytes
            + _METADATA_BYTES
        )


class HierarchicalEncodedColumn(HorizontalEncodedColumn):
    """Dependent column stored as per-reference-group local codes."""

    encoding_name = "hierarchical"

    def __init__(self, target: Sequence, reference: Sequence, reference_name: str):
        if len(target) != len(reference):
            raise EncodingError(
                f"target and reference must have equal length, got "
                f"{len(target)} vs {len(reference)}"
            )
        self.reference_names = (reference_name,)
        n = len(target)

        target_codes, target_domain, target_is_string = _to_codes(target)
        ref_codes, ref_domain, ref_is_string = _to_codes(reference)

        self._target_is_string = target_is_string
        if target_is_string:
            self._target_heap: StringHeap | None = StringHeap(target_domain)
            self._target_domain_ints: np.ndarray | None = None
        else:
            self._target_heap = None
            self._target_domain_ints = np.asarray(target_domain, dtype=np.int64)

        self._ref_is_string = ref_is_string
        if ref_is_string:
            self._ref_lookup = {value: code for code, value in enumerate(ref_domain)}
            self._ref_domain_ints = None
        else:
            self._ref_lookup = None
            self._ref_domain_ints = np.asarray(ref_domain, dtype=np.int64)

        n_groups = len(ref_domain)
        n_targets = len(target_domain)

        if n == 0:
            self._offsets = np.zeros(1, dtype=np.int64)
            self._group_values = BitPackedArray.from_values(np.zeros(0, dtype=np.int64), 0)
            self._local_codes = BitPackedArray.from_values(np.zeros(0, dtype=np.int64), 0)
            return

        # Distinct (reference group, target value) pairs, ordered by group then
        # value.  The per-group runs of pair_target form the flattened
        # "group_values" array; offsets mark where each group's run starts.
        pair_key = ref_codes * np.int64(n_targets) + target_codes
        unique_pairs, pair_inverse = np.unique(pair_key, return_inverse=True)
        pair_group = unique_pairs // n_targets
        pair_target = unique_pairs % n_targets

        self._offsets = np.searchsorted(pair_group, np.arange(n_groups + 1)).astype(np.int64)
        local_codes = pair_inverse - self._offsets[ref_codes]

        value_width = required_bits(int(pair_target.max())) if pair_target.size else 0
        self._group_values = BitPackedArray.from_values(pair_target, value_width)

        code_width = required_bits(int(local_codes.max())) if local_codes.size else 0
        self._local_codes = BitPackedArray.from_values(local_codes, code_width)

    # -- properties ------------------------------------------------------------

    @property
    def reference_name(self) -> str:
        return self.reference_names[0]

    @property
    def n_groups(self) -> int:
        return int(self._offsets.size - 1)

    @property
    def n_distinct_targets(self) -> int:
        """Number of distinct (group, value) pairs (length of ``group_values``)."""
        return self._group_values.n_values

    @property
    def code_bit_width(self) -> int:
        """Bits per row for the group-local code."""
        return self._local_codes.bit_width

    @property
    def max_group_fanout(self) -> int:
        """Largest number of distinct dependent values within one group."""
        if self.n_groups == 0:
            return 0
        return int(np.diff(self._offsets).max())

    @property
    def n_values(self) -> int:
        return self._local_codes.n_values

    @property
    def metadata_size_bytes(self) -> int:
        """Size of the hierarchical metadata (group_values, offsets, heap)."""
        size = self._group_values.size_bytes + 4 * self._offsets.size
        if self._target_heap is not None:
            size += self._target_heap.size_bytes
        return size

    @property
    def size_bytes(self) -> int:
        return self._local_codes.size_bytes + self.metadata_size_bytes + _METADATA_BYTES

    def stats(self) -> HierarchicalStats:
        return HierarchicalStats(
            n_values=self.n_values,
            n_groups=self.n_groups,
            n_distinct_targets=self.n_distinct_targets,
            max_group_fanout=self.max_group_fanout,
            code_bit_width=self.code_bit_width,
            size_bytes=self.size_bytes,
        )

    # -- decoding ---------------------------------------------------------------

    def _reference_to_group(self, reference_values) -> np.ndarray:
        """Map decoded reference values back to their group index."""
        if self._ref_is_string:
            assert self._ref_lookup is not None
            try:
                return np.fromiter(
                    (self._ref_lookup[v] for v in reference_values),
                    dtype=np.int64,
                    count=len(reference_values),
                )
            except KeyError as exc:
                raise DecodingError(
                    f"reference value {exc.args[0]!r} was never seen at encode time"
                ) from None
        refs = np.asarray(reference_values, dtype=np.int64)
        assert self._ref_domain_ints is not None
        idx = np.searchsorted(self._ref_domain_ints, refs)
        idx = np.clip(idx, 0, self._ref_domain_ints.size - 1)
        if not np.all(self._ref_domain_ints[idx] == refs):
            raise DecodingError("reference value was never seen at encode time")
        return idx

    def gather_with_reference(self, positions: np.ndarray, reference_values: ReferenceValues):
        """Algorithm 1: ``group_values[offsets[group] + local_code]``."""
        self._check_reference_values(positions, reference_values)
        pos = np.asarray(positions, dtype=np.int64)
        groups = self._reference_to_group(reference_values[self.reference_name])
        local = self._local_codes.gather(pos)
        flat_index = self._offsets[groups] + local
        target_codes = self._group_values.gather(flat_index)
        if self._target_is_string:
            assert self._target_heap is not None
            return self._target_heap.lookup_many(target_codes)
        assert self._target_domain_ints is not None
        return self._target_domain_ints[target_codes]

    def gather_local_codes(self, positions: np.ndarray) -> np.ndarray:
        """Positional access to the raw group-local codes."""
        return self._local_codes.gather(np.asarray(positions, dtype=np.int64))


class HierarchicalEncoding:
    """Scheme object for hierarchical encoding (paper §2.2)."""

    name = "hierarchical"

    def encode(self, target, reference, reference_name: str) -> HierarchicalEncodedColumn:
        """Hierarchically encode ``target`` grouped by ``reference``."""
        column = HierarchicalEncodedColumn(target, reference, reference_name)
        column.encoding_name = self.name
        return column

    def estimate_size(self, target, reference) -> int:
        """Exact encoded size, from the pair counts alone (no encode).

        ``packed(n, bits(max_fanout − 1)) + packed(n_pairs, bits(n_targets − 1))
        + 4·(n_groups + 1) + heap_bytes + 16`` — see :class:`PairStatistics`.
        """
        if len(target) != len(reference):
            raise EncodingError(
                f"target and reference must have equal length, got "
                f"{len(target)} vs {len(reference)}"
            )
        return PairStatistics.of(ColumnCodes.of(target), ColumnCodes.of(reference)).size_bytes

    def __repr__(self) -> str:
        return "HierarchicalEncoding()"
