"""Compression plans: how each column of a table should be encoded.

This is the user-facing orchestration layer.  A :class:`CompressionPlan` maps
every column either to a vertical scheme (``"auto"`` picks the paper's
best-of FOR/Dict baseline) or to one of the three horizontal schemes with its
reference column(s).  A :class:`TableCompressor` applies the plan block by
block (1 M tuples per block by default, as in the paper) and produces a
:class:`repro.storage.relation.Relation` of self-contained
:class:`~repro.storage.block.CompressedBlock` objects.

Typical usage::

    plan = (CompressionPlan.builder(table.schema)
            .diff_encode("l_receiptdate", reference="l_shipdate")
            .diff_encode("l_commitdate", reference="l_shipdate")
            .build())
    relation = TableCompressor(plan).compress(table)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..encodings.selector import BestOfSelector, scheme_by_name
from ..errors import ConfigurationError, UnknownColumnError
from ..storage.block import DEFAULT_BLOCK_SIZE, ColumnDependency, CompressedBlock
from ..storage.relation import Relation, split_into_blocks
from ..storage.schema import Schema
from ..storage.statistics import BlockStatistics, ColumnStatistics
from ..storage.table import Table
from .correlation import EncodingSuggestion
from .diff_encoding import NonHierarchicalEncoding
from .hierarchical import HierarchicalEncoding
from .multi_reference import MultiReferenceConfig, MultiReferenceEncoding

__all__ = ["ColumnPlan", "CompressionPlan", "PlanBuilder", "TableCompressor"]

#: Vertical plan modes accepted besides concrete scheme names.
_AUTO = "auto"

#: The three horizontal encoding kinds.
_HORIZONTAL_KINDS = ("non_hierarchical", "hierarchical", "multi_reference")


@dataclass(frozen=True)
class ColumnPlan:
    """Encoding decision for one column."""

    column: str
    encoding: str = _AUTO
    references: tuple[str, ...] = ()
    multi_reference_config: MultiReferenceConfig | None = None
    outlier_bit_budget: int | None = None

    @property
    def is_horizontal(self) -> bool:
        return self.encoding in _HORIZONTAL_KINDS

    def __post_init__(self) -> None:
        if self.encoding in _HORIZONTAL_KINDS and not self.references:
            raise ConfigurationError(
                f"horizontal encoding {self.encoding!r} for column "
                f"{self.column!r} needs at least one reference column"
            )
        if self.encoding == "multi_reference" and self.multi_reference_config is None:
            raise ConfigurationError(
                f"multi-reference encoding for column {self.column!r} needs a "
                "MultiReferenceConfig"
            )
        if self.encoding not in _HORIZONTAL_KINDS and self.references:
            raise ConfigurationError(
                f"vertical encoding {self.encoding!r} for column {self.column!r} "
                "must not declare reference columns"
            )


class CompressionPlan:
    """A validated set of :class:`ColumnPlan` entries covering a schema."""

    def __init__(self, schema: Schema, column_plans: Iterable[ColumnPlan] = ()):
        self._schema = schema
        self._plans: dict[str, ColumnPlan] = {
            name: ColumnPlan(column=name) for name in schema.names
        }
        for plan in column_plans:
            if plan.column not in schema:
                raise UnknownColumnError(plan.column, schema.names)
            self._plans[plan.column] = plan
        self._validate()

    def _validate(self) -> None:
        for plan in self._plans.values():
            for ref in plan.references:
                if ref not in self._schema:
                    raise UnknownColumnError(ref, self._schema.names)
                if ref == plan.column:
                    raise ConfigurationError(
                        f"column {plan.column!r} cannot reference itself"
                    )
                ref_plan = self._plans[ref]
                if ref_plan.is_horizontal:
                    raise ConfigurationError(
                        f"column {plan.column!r} references {ref!r}, which is "
                        "itself horizontally encoded; reference chains are not "
                        "supported (left to future work in the paper)"
                    )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def vertical_only(cls, schema: Schema) -> "CompressionPlan":
        """The paper's baseline: best single-column scheme for every column."""
        return cls(schema)

    @classmethod
    def builder(cls, schema: Schema) -> "PlanBuilder":
        return PlanBuilder(schema)

    @classmethod
    def from_suggestions(
        cls, schema: Schema, suggestions: Iterable[EncodingSuggestion]
    ) -> "CompressionPlan":
        """Build a plan from :class:`CorrelationDetector` suggestions.

        Suggestions are applied greedily in the given order; a suggestion is
        skipped if its target already has a horizontal plan or if applying it
        would create a reference chain.
        """
        builder = cls.builder(schema)
        for suggestion in suggestions:
            try:
                if suggestion.kind == "non_hierarchical":
                    builder.diff_encode(suggestion.target, suggestion.references[0])
                elif suggestion.kind == "hierarchical":
                    builder.hierarchical_encode(suggestion.target, suggestion.references[0])
                else:
                    continue
            except ConfigurationError:
                continue
        return builder.build()

    # -- accessors --------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def column_plan(self, name: str) -> ColumnPlan:
        if name not in self._plans:
            raise UnknownColumnError(name, self._schema.names)
        return self._plans[name]

    def horizontal_columns(self) -> tuple[str, ...]:
        return tuple(
            name for name, plan in self._plans.items() if plan.is_horizontal
        )

    def __iter__(self):
        return iter(self._plans.values())

    def describe(self) -> str:
        """Human-readable plan summary, one line per column."""
        lines = []
        for name in self._schema.names:
            plan = self._plans[name]
            if plan.is_horizontal:
                refs = ", ".join(plan.references)
                lines.append(f"{name}: {plan.encoding} (references: {refs})")
            else:
                lines.append(f"{name}: {plan.encoding}")
        return "\n".join(lines)


class PlanBuilder:
    """Fluent construction of a :class:`CompressionPlan`."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._plans: dict[str, ColumnPlan] = {}

    def vertical(self, column: str, scheme: str = _AUTO) -> "PlanBuilder":
        """Encode ``column`` with a named vertical scheme (or the best one)."""
        return self._set(ColumnPlan(column=column, encoding=scheme))

    def diff_encode(self, column: str, reference: str,
                    outlier_bit_budget: int | None = None) -> "PlanBuilder":
        """Non-hierarchical diff-encoding of ``column`` w.r.t. ``reference``."""
        return self._set(
            ColumnPlan(
                column=column,
                encoding="non_hierarchical",
                references=(reference,),
                outlier_bit_budget=outlier_bit_budget,
            )
        )

    def hierarchical_encode(self, column: str, reference: str) -> "PlanBuilder":
        """Hierarchical encoding of ``column`` grouped by ``reference``."""
        return self._set(
            ColumnPlan(column=column, encoding="hierarchical", references=(reference,))
        )

    def multi_reference_encode(
        self, column: str, config: MultiReferenceConfig
    ) -> "PlanBuilder":
        """Multi-reference encoding of ``column`` with the given rule config."""
        return self._set(
            ColumnPlan(
                column=column,
                encoding="multi_reference",
                references=config.reference_columns,
                multi_reference_config=config,
            )
        )

    def _set(self, plan: ColumnPlan) -> "PlanBuilder":
        """Apply one column plan, validating the partial plan and rolling back
        on failure so an invalid call leaves the builder untouched."""
        previous = self._plans.get(plan.column)
        self._plans[plan.column] = plan
        try:
            CompressionPlan(self._schema, self._plans.values())
        except Exception:
            if previous is None:
                del self._plans[plan.column]
            else:
                self._plans[plan.column] = previous
            raise
        return self

    def build(self) -> CompressionPlan:
        return CompressionPlan(self._schema, self._plans.values())


class TableCompressor:
    """Apply a :class:`CompressionPlan` to a table, block by block.

    ``workers`` > 1 compresses the blocks of a relation concurrently on a
    thread pool (``None``/``0`` = one worker per core): every block is
    self-contained and the encoders share no mutable state, so block
    compression is embarrassingly parallel and the NumPy kernels release the
    GIL.  Block order — and therefore the resulting relation — is identical
    to serial compression.
    """

    def __init__(
        self,
        plan: CompressionPlan | None = None,
        selector: BestOfSelector | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        collect_statistics: bool = True,
        workers: int = 1,
    ):
        self._plan = plan
        self._selector = selector if selector is not None else BestOfSelector()
        self._block_size = block_size
        self._collect_statistics = collect_statistics
        self._workers = workers

    def _plan_for(self, table: Table) -> CompressionPlan:
        if self._plan is not None:
            return self._plan
        return CompressionPlan.vertical_only(table.schema)

    # -- block compression --------------------------------------------------------

    def compress_block(self, chunk: Table, plan: CompressionPlan | None = None) -> CompressedBlock:
        """Compress one table chunk into a self-contained block."""
        plan = plan if plan is not None else self._plan_for(chunk)
        columns = {}
        dependencies = {}
        for spec in chunk.schema:
            name = spec.name
            column_plan = plan.column_plan(name)
            values = chunk.column(name)
            if column_plan.encoding == "non_hierarchical":
                reference = column_plan.references[0]
                encoder = NonHierarchicalEncoding(
                    outlier_bit_budget=column_plan.outlier_bit_budget
                )
                columns[name] = encoder.encode(values, chunk.column(reference), reference)
                dependencies[name] = ColumnDependency(
                    references=(reference,), kind="non_hierarchical"
                )
            elif column_plan.encoding == "hierarchical":
                reference = column_plan.references[0]
                encoder = HierarchicalEncoding()
                columns[name] = encoder.encode(values, chunk.column(reference), reference)
                dependencies[name] = ColumnDependency(
                    references=(reference,), kind="hierarchical"
                )
            elif column_plan.encoding == "multi_reference":
                config = column_plan.multi_reference_config
                assert config is not None
                encoder = MultiReferenceEncoding(config)
                references = {
                    ref: chunk.column(ref) for ref in config.reference_columns
                }
                columns[name] = encoder.encode(values, references)
                dependencies[name] = ColumnDependency(
                    references=config.reference_columns, kind="multi_reference"
                )
            elif column_plan.encoding == _AUTO:
                columns[name] = self._selector.select(values, spec.dtype).column
            else:
                scheme = scheme_by_name(column_plan.encoding)
                columns[name] = scheme.encode(values, spec.dtype)
        statistics = (
            self._block_statistics(chunk, plan, columns)
            if self._collect_statistics else None
        )
        return CompressedBlock(
            schema=chunk.schema,
            n_rows=chunk.n_rows,
            columns=columns,
            dependencies=dependencies,
            statistics=statistics,
        )

    def _block_statistics(
        self, chunk: Table, plan: CompressionPlan, columns: Mapping
    ) -> BlockStatistics:
        """Compute the block's zone map at compression time.

        Vertical, hierarchical and multi-reference columns get exact bounds
        (plus, for integer columns, the exact per-block sum that lets the
        query compiler answer ``sum`` aggregates over fully-covered blocks
        from metadata alone) from the raw chunk values.  Diff-encoded
        columns get conservative bounds derived from the reference's bounds
        plus the stored delta range (widened by the outlier region) — the
        target values themselves are never consulted, mirroring how a
        reader could rebuild the zone map from block metadata alone.  Those
        bounds contain every value, so they prune and prove blocks fully
        covered like exact ones; they only cannot answer ``min``/``max``.
        The *sum* is exact: ``sum(target) = sum(reference) +
        sum(differences)``, corrected for outlier rows whose verbatim value
        replaces the reconstruction, so sum/avg aggregates over diff-encoded
        columns are stat-answerable too.
        """
        per_column: dict[str, ColumnStatistics] = {}
        diff_encoded: list[str] = []
        for spec in chunk.schema:
            name = spec.name
            if plan.column_plan(name).encoding == "non_hierarchical":
                diff_encoded.append(name)
                continue
            per_column[name] = ColumnStatistics.from_values(
                chunk.column(name), distinct="estimate"
            )
        for name in diff_encoded:
            encoded = columns[name]
            reference = plan.column_plan(name).references[0]
            diff_stats = encoded.stats()
            outliers = encoded.outliers
            per_column[name] = ColumnStatistics.from_reference_and_deltas(
                per_column[reference],
                diff_stats.min_difference,
                diff_stats.max_difference,
                chunk.n_rows,
                outlier_values=outliers.values if outliers else None,
                sum_value=self._derived_diff_sum(
                    encoded, per_column[reference], chunk.column(reference), outliers
                ),
            )
        return BlockStatistics(per_column)

    @staticmethod
    def _derived_diff_sum(
        encoded, reference_stats: ColumnStatistics, reference_values, outliers
    ) -> int | None:
        """Exact diff-encoded column sum without decoding the target.

        ``sum(reference) + sum(stored differences)``; an outlier row stores
        its value verbatim and overrides the reconstruction, so each one
        swaps its ``reference + difference`` contribution for the stored
        value.
        """
        if reference_stats.sum_value is None:
            return None
        total = int(reference_stats.sum_value) + encoded.sum_differences()
        if outliers:
            positions = outliers.positions
            replaced = (
                np.asarray(reference_values, dtype=np.int64)[positions]
                + encoded.gather_differences(positions)
            )
            total += int(outliers.values.sum(dtype=np.int64))
            total -= int(replaced.sum(dtype=np.int64))
        return total

    # -- relation compression -------------------------------------------------------

    def compress(self, table: Table, plan: CompressionPlan | None = None) -> Relation:
        """Split ``table`` into blocks and compress each one.

        With ``workers`` > 1 the blocks are compressed concurrently; the
        block list keeps its serial order either way.
        """
        plan = plan if plan is not None else self._plan_for(table)
        chunks = list(split_into_blocks(table, self._block_size))
        # Imported here to keep repro.core importable without pulling in the
        # whole query layer at module-import time.
        from ..query.parallel import parallel_map

        blocks = parallel_map(
            lambda chunk: self.compress_block(chunk, plan),
            chunks,
            workers=self._workers,
        )
        return Relation(table.schema, blocks, self._block_size)

    def column_sizes(self, table: Table, plan: CompressionPlan | None = None) -> dict[str, int]:
        """Compressed size per column for ``table`` under the plan."""
        relation = self.compress(table, plan)
        return {name: relation.column_size(name) for name in table.schema.names}
