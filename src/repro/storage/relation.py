"""Relations: tables split into fixed-size, self-contained data blocks."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import ValidationError
from .block import DEFAULT_BLOCK_SIZE, CompressedBlock
from .schema import Schema
from .table import Table

__all__ = ["Relation", "split_into_blocks"]


def split_into_blocks(table: Table, block_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[Table]:
    """Yield consecutive row slices of ``table`` with at most ``block_size`` rows."""
    if block_size < 1:
        raise ValidationError("block size must be at least 1")
    for start in range(0, table.n_rows, block_size):
        yield table.slice(start, min(start + block_size, table.n_rows))
    if table.n_rows == 0:
        yield table.slice(0, 0)


class Relation:
    """A compressed relation: an ordered list of :class:`CompressedBlock`.

    The relation remembers the block size so global row ids can be translated
    to (block index, block-local row id) pairs, which is what the query
    engine works with.
    """

    #: Monotonic counter backing :attr:`cache_token`; never reused, so tokens
    #: stay distinct even if a relation object is garbage-collected and its
    #: memory address recycled (``id()`` would not give that guarantee).
    _token_counter = itertools.count()

    def __init__(
        self,
        schema: Schema,
        blocks: Iterable[CompressedBlock],
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        self._schema = schema
        self._blocks = tuple(blocks)
        self._token = next(Relation._token_counter)
        self._block_size = int(block_size)
        if self._block_size < 1:
            raise ValidationError("block size must be at least 1")
        for block in self._blocks[:-1]:
            if block.n_rows != self._block_size:
                raise ValidationError(
                    "all blocks except the last must contain exactly "
                    f"{self._block_size} rows, found one with {block.n_rows}"
                )

    @classmethod
    def from_table(
        cls,
        table: Table,
        compress_block: Callable[[Table], CompressedBlock],
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "Relation":
        """Split ``table`` into blocks and compress each with ``compress_block``."""
        blocks = [compress_block(chunk) for chunk in split_into_blocks(table, block_size)]
        return cls(table.schema, blocks, block_size)

    # -- accessors ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def blocks(self) -> tuple[CompressedBlock, ...]:
        """The blocks as an immutable view (no per-access copy)."""
        return self._blocks

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def cache_token(self) -> int:
        """A process-unique id identifying this relation's (immutable) blocks.

        Caches keyed on it (e.g. the scan planner's decision memo) are
        automatically invalidated when they observe a different relation.
        """
        return self._token

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def n_rows(self) -> int:
        return sum(b.n_rows for b in self._blocks)

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self) -> Iterator[CompressedBlock]:
        return iter(self._blocks)

    def block(self, index: int) -> CompressedBlock:
        return self._blocks[index]

    # -- querying -------------------------------------------------------------

    def query(self, engine=None, config=None):
        """Start a lazy query chain over this relation.

        Returns a :class:`~repro.query.plan.LazyQuery`: compose with
        ``.where()/.select()/.group_by()/.agg()/.limit()`` and run with
        ``.execute()`` (or ``.count()``); ``.explain()`` renders the plan
        without executing it.  The chain runs on a shared
        :class:`~repro.query.engine.Engine` (``engine=``, whose memoized
        compiler and worker pool it then shares) or on a private engine
        built from an :class:`~repro.query.engine.EngineConfig`
        (``config=``; defaults when omitted) — one or the other, not both.
        """
        # Imported lazily: the storage layer must stay importable without
        # pulling in the query layer (which imports storage) at module load.
        from ..query.engine import resolve_engine
        from ..query.plan import LazyQuery

        engine, owned = resolve_engine(engine, config)
        return LazyQuery(self, engine=engine, _owns_engine=owned)

    # -- sizes ----------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return sum(b.size_bytes for b in self._blocks)

    def column_size(self, name: str) -> int:
        """Total compressed size of one column across all blocks."""
        return sum(b.column_size(name) for b in self._blocks)

    # -- row id translation ---------------------------------------------------

    def locate(self, row_ids: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Group global ``row_ids`` by block.

        Returns a list of ``(block_index, block_local_positions,
        output_positions)`` tuples, where ``output_positions`` are the indices
        into the original ``row_ids`` array so callers can scatter per-block
        results back into caller order.
        """
        rows = np.asarray(row_ids, dtype=np.int64)
        if rows.size == 0:
            return []
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise ValidationError("row ids out of range for relation")
        # One argsort + boundary scan instead of a per-block boolean mask:
        # O(n log n) regardless of how many blocks the relation has.
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        sorted_blocks = sorted_rows // self._block_size
        starts = np.flatnonzero(np.r_[True, np.diff(sorted_blocks) != 0])
        bounds = np.append(starts, sorted_rows.size)
        groups = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            groups.append(
                (
                    int(sorted_blocks[start]),
                    sorted_rows[start:stop] % self._block_size,
                    order[start:stop],
                )
            )
        return groups
