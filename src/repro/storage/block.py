"""Self-contained data blocks of compressed columns.

Mirroring the paper's experimental setup: "We split all datasets into data
blocks of 1M tuples.  Each data block is completely self-contained: all
information required to decompress it is contained within the block itself."

A :class:`CompressedBlock` therefore owns one :class:`EncodedColumn` per
column (vertical or horizontal) plus the per-column dependency information a
horizontal encoding needs (which reference column(s) to fetch).  Row ids used
by the query engine are block-local.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encodings.base import EncodedColumn
from ..errors import SchemaError, UnknownColumnError
from .schema import Schema
from .statistics import BlockStatistics, ColumnStatistics

__all__ = ["CompressedBlock", "ColumnDependency", "DEFAULT_BLOCK_SIZE"]

#: Default number of tuples per block, as in the paper.
DEFAULT_BLOCK_SIZE = 1_000_000

#: Fixed per-block header overhead charged to the block size (row count,
#: column count, per-column descriptors).
_BLOCK_HEADER_BYTES = 32


@dataclass(frozen=True)
class ColumnDependency:
    """Records that a column is horizontally encoded w.r.t. reference columns."""

    references: tuple[str, ...]
    kind: str  # "non_hierarchical", "hierarchical", or "multi_reference"

    def to_dict(self) -> dict:
        return {"references": list(self.references), "kind": self.kind}

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnDependency":
        return cls(references=tuple(data["references"]), kind=data["kind"])


@dataclass
class CompressedBlock:
    """One block's worth of compressed columns plus dependency metadata."""

    schema: Schema
    n_rows: int
    columns: dict[str, EncodedColumn] = field(default_factory=dict)
    dependencies: dict[str, ColumnDependency] = field(default_factory=dict)
    #: Zone map computed at compression time; ``None`` for blocks built by
    #: code paths that do not collect statistics (the scan planner then
    #: simply cannot prune them).
    statistics: BlockStatistics | None = None

    def __post_init__(self) -> None:
        for name in self.columns:
            if name not in self.schema:
                raise SchemaError(f"encoded column {name!r} not in block schema")
        if self.statistics is not None:
            for name in self.statistics.column_names:
                if name not in self.columns:
                    raise SchemaError(f"statistics recorded for missing column {name!r}")
        for name, encoded in self.columns.items():
            if encoded.n_values != self.n_rows:
                raise SchemaError(
                    f"column {name!r} has {encoded.n_values} values, "
                    f"block has {self.n_rows} rows"
                )
        for name, dep in self.dependencies.items():
            if name not in self.columns:
                raise SchemaError(f"dependency recorded for missing column {name!r}")
            for ref in dep.references:
                if ref not in self.columns:
                    raise SchemaError(f"column {name!r} references missing column {ref!r}")

    # -- accessors ------------------------------------------------------------

    def column(self, name: str) -> EncodedColumn:
        if name not in self.columns:
            raise UnknownColumnError(name, tuple(self.columns))
        return self.columns[name]

    def dependency(self, name: str) -> ColumnDependency | None:
        """The dependency record for ``name`` or ``None`` if vertically encoded."""
        return self.dependencies.get(name)

    def is_horizontal(self, name: str) -> bool:
        return name in self.dependencies

    def column_statistics(self, name: str) -> ColumnStatistics | None:
        """Zone-map statistics for ``name``, or ``None`` when unavailable."""
        if name not in self.columns:
            raise UnknownColumnError(name, tuple(self.columns))
        if self.statistics is None:
            return None
        return self.statistics.column(name)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    # -- sizes ----------------------------------------------------------------

    def column_size(self, name: str) -> int:
        """Compressed size of one column including its metadata."""
        return self.column(name).size_bytes

    @property
    def size_bytes(self) -> int:
        """Total compressed size of the block, including the block header."""
        return sum(c.size_bytes for c in self.columns.values()) + _BLOCK_HEADER_BYTES

    def encoding_of(self, name: str) -> str:
        """Name of the scheme that encoded the given column."""
        return self.column(name).encoding_name

    # -- decoding -------------------------------------------------------------

    def decode_column(self, name: str) -> np.ndarray | list[str]:
        """Fully decode one column (resolving horizontal dependencies)."""
        return self.gather_column(name, np.arange(self.n_rows, dtype=np.int64))

    def gather_column(self, name: str, positions: np.ndarray) -> np.ndarray | list[str]:
        """Decode the values of ``name`` at block-local ``positions``.

        For horizontally encoded columns this first fetches the reference
        column values at the same positions (Algorithm 1 in the paper) and
        passes them to the column's ``gather_with_reference``.
        """
        encoded = self.column(name)
        dep = self.dependencies.get(name)
        if dep is None:
            return encoded.gather(positions)
        reference_values = {ref: self.gather_column(ref, positions) for ref in dep.references}
        return encoded.gather_with_reference(
            positions, reference_values
        )  # type: ignore[attr-defined]
