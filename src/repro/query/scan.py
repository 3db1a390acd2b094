"""Scan and materialisation operators over compressed relations.

The paper's query workload is: given a selection vector, "decompress and
materialize the values at the specified positions, which we refer to as the
query output".  Two variants are measured — querying only the diff-encoded
column, and querying both the diff-encoded and the reference column(s) —
because when both are queried, fetching the reference costs nothing extra.

:func:`materialize_columns` implements that workload over a
:class:`~repro.storage.relation.Relation`; the reference columns needed by a
horizontal column are fetched once and shared with the output when they are
part of the projection.

On top of the materialisation kernels sits the structured scan pipeline:
:class:`ScanPlanner` tests a predicate against every block's zone map
(:class:`~repro.storage.statistics.BlockStatistics`) and classifies each
block as *pruned* (provably no qualifying row — skipped without decoding),
*full* (provably all rows qualify — answered from metadata alone), or
*scan* (evaluate the predicate kernel against the block).  The planner
memoizes its per-(block, predicate-fingerprint) decisions, so repeated
queries with equal predicates skip the zone-map tests entirely.

Blocks classified *scan* are evaluated by :func:`evaluate_block_predicate`,
which offers every single-column subtree to the compressed-domain
:class:`~repro.query.kernels.KernelRegistry` (dictionary code space,
FOR/delta word space) and decodes only what no kernel answers.
:class:`ScanMetrics` reports what the planner and the kernels achieved
per query.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import UnknownColumnError, ValidationError
from ..storage.block import CompressedBlock
from ..storage.relation import Relation
from .kernels import DEFAULT_KERNELS, KernelRegistry
from .parallel import parallel_map
from .predicates import Predicate
from .selection import SelectionVector
from .tracing import current_tracer

__all__ = [
    "materialize_columns",
    "materialize_block_columns",
    "evaluate_block_predicate",
    "resolve_block",
    "QueryOutput",
    "BlockDecision",
    "ScanMetrics",
    "ScanPlan",
    "ScanPlanner",
]


QueryOutput = dict[str, "np.ndarray | list[str]"]


def resolve_block(
    block: CompressedBlock, columns: "Sequence[str] | None" = None
) -> CompressedBlock:
    """Materialise an out-of-core block proxy once, ahead of hot-path access.

    Disk-backed relations hand the planner lazy proxies whose every
    data-access is a cache round-trip (see
    :class:`~repro.storage.disk.LazyBlock`).  Worker bodies that are about
    to decode call this first so one logical operation loads the block
    exactly once — even when the cache budget is too small to retain it
    between operations.  ``columns`` names the columns the operation will
    touch: a column-granular table (format v3) then fetches only those
    columns' sub-segments (plus their dependency closure) instead of the
    whole block.  In-memory blocks pass through untouched.
    """
    if columns is not None:
        loader = getattr(block, "load_columns", None)
        if loader is not None:
            return loader(columns)
    loader = getattr(block, "load", None)
    return loader() if loader is not None else block


def _gather_block(
    block: CompressedBlock, names: Sequence[str], positions: np.ndarray
) -> QueryOutput:
    """Materialise the requested columns of one block at block-local positions.

    Reference columns are fetched at most once: if a horizontal column's
    reference is also in the projection (the paper's "query on both columns"
    case), the already-fetched values are reused instead of decoded twice.
    """
    fetched: dict[str, np.ndarray | list] = {}

    def fetch(name: str):
        if name in fetched:
            return fetched[name]
        dependency = block.dependency(name)
        if dependency is None:
            values = block.column(name).gather(positions)
        else:
            reference_values = {ref: fetch(ref) for ref in dependency.references}
            values = block.column(name).gather_with_reference(  # type: ignore[attr-defined]
                positions, reference_values
            )
        fetched[name] = values
        return values

    return {name: fetch(name) for name in names}


def materialize_block_columns(
    block: CompressedBlock, names: Sequence[str], positions: np.ndarray
) -> QueryOutput:
    """Materialise ``names`` at block-local ``positions`` of a single block."""
    block = resolve_block(block, columns=names)
    for name in names:
        if name not in block.columns:
            raise UnknownColumnError(name, block.column_names)
    return _gather_block(block, names, np.asarray(positions, dtype=np.int64))


def materialize_columns(
    relation: Relation,
    names: Sequence[str],
    selection: SelectionVector | np.ndarray,
    pool: Executor | None = None,
) -> QueryOutput:
    """Materialise ``names`` at the globally-selected rows of a relation.

    The output preserves the selection vector's row order.  With a
    ``pool`` the per-block groups are gathered concurrently: each block
    writes a disjoint slice of the preallocated outputs, so no merge step
    is needed.
    """
    row_ids = (
        selection.row_ids if isinstance(selection, SelectionVector) else np.asarray(selection)
    )
    names = list(names)
    for name in names:
        if name not in relation.schema:
            raise UnknownColumnError(name, relation.schema.names)

    n = int(np.asarray(row_ids).size)
    outputs: QueryOutput = {}
    string_columns = {name for name in names if relation.schema.dtype(name).is_string}
    for name in names:
        if name in string_columns:
            outputs[name] = [""] * n
        else:
            outputs[name] = np.empty(n, dtype=np.int64)

    groups = relation.locate(row_ids)

    def gather_group(group) -> None:
        block_index, local_positions, output_positions = group
        block = resolve_block(relation.block(block_index), columns=names)
        block_output = _gather_block(block, names, local_positions)
        for name in names:
            values = block_output[name]
            if name in string_columns:
                target_list = outputs[name]
                for out_pos, value in zip(output_positions, values):
                    target_list[int(out_pos)] = value
            else:
                outputs[name][output_positions] = np.asarray(values)

    with current_tracer().span("gather", rows=n, columns=len(names), blocks=len(groups)):
        if pool is not None and len(groups) > 1:
            parallel_map(gather_group, groups, pool)
            return outputs

        prefetch = getattr(relation, "prefetch_block_columns", None)
        for position, group in enumerate(groups):
            if prefetch is not None and position + 1 < len(groups):
                # Read-ahead: schedule the next block's projection columns while
                # this block's gather kernels run.
                prefetch(groups[position + 1][0], names)
            gather_group(group)
        return outputs


# ---------------------------------------------------------------------------
# structured scan pipeline: planner + metrics
# ---------------------------------------------------------------------------


class BlockDecision:
    """Per-block verdict of the planner."""

    SCAN = "scan"  #: decode predicate columns and evaluate the kernel
    PRUNE = "prune"  #: statistics prove no row can qualify
    FULL = "full"  #: statistics prove all rows qualify


@dataclass
class ScanMetrics:
    """What one predicate scan actually did, block by block.

    ``rows_decoded`` counts the rows whose predicate columns were
    materialised; pruned and fully-covered blocks contribute nothing to it
    (the work the zone maps saved), and neither do scanned blocks answered
    entirely in dictionary code space (the work the code-space path saved).
    ``rows_gathered`` counts the qualifying rows whose aggregate or
    group-by input columns were materialised — zero when every aggregate
    was answered from block statistics or in code space.

    ``rows_dict_evaluated`` counts rows answered in dictionary code space
    (one increment of ``block.n_rows`` per subtree the dictionary kernel
    answered).  A dictionary string column that *is* read costs one fancy
    index over its distinct strings, like an integer dictionary, so string
    reads are counted by ``rows_decoded``/``rows_gathered`` like any other.

    The kernel counters account the remaining compressed-domain paths:
    ``rows_for_evaluated`` rows answered by FOR/delta word-space
    comparisons, and ``rows_kernel_aggregated`` selected rows whose
    group-by keys were computed in code space instead of gathered.
    ``kernel_declines`` counts predicate subtrees a kernel was offered but
    declined — an outlier-bearing diff column that cannot dispatch, a
    non-monotonic delta column, a non-integer constant — i.e. why a block
    fell off the fast path and decoded instead.
    """

    n_blocks: int = 0
    blocks_scanned: int = 0
    blocks_pruned: int = 0
    blocks_full: int = 0
    rows_total: int = 0
    rows_decoded: int = 0
    rows_matched: int = 0
    rows_dict_evaluated: int = 0
    rows_gathered: int = 0
    rows_for_evaluated: int = 0
    rows_kernel_aggregated: int = 0
    kernel_declines: int = 0

    def merge(self, other: "ScanMetrics") -> "ScanMetrics":
        """Fold another metrics object (covering disjoint work) into this one.

        Used to combine the per-block metrics of one query; every counter
        is summed, so each block/row must be accounted for by exactly one
        of the merged objects.
        """
        self.n_blocks += other.n_blocks
        self.blocks_scanned += other.blocks_scanned
        self.blocks_pruned += other.blocks_pruned
        self.blocks_full += other.blocks_full
        self.rows_total += other.rows_total
        self.rows_decoded += other.rows_decoded
        self.rows_matched += other.rows_matched
        self.rows_dict_evaluated += other.rows_dict_evaluated
        self.rows_gathered += other.rows_gathered
        self.rows_for_evaluated += other.rows_for_evaluated
        self.rows_kernel_aggregated += other.rows_kernel_aggregated
        self.kernel_declines += other.kernel_declines
        return self

    @property
    def pruned_fraction(self) -> float:
        """Fraction of blocks skipped or answered from statistics alone."""
        if self.n_blocks == 0:
            return 0.0
        return (self.blocks_pruned + self.blocks_full) / self.n_blocks

    @property
    def decoded_fraction(self) -> float:
        """Fraction of rows whose predicate columns were actually decoded."""
        if self.rows_total == 0:
            return 0.0
        return self.rows_decoded / self.rows_total

    def describe(self) -> str:
        return (
            f"{self.blocks_scanned}/{self.n_blocks} blocks scanned "
            f"({self.blocks_pruned} pruned, {self.blocks_full} fully covered); "
            f"{self.rows_decoded:,}/{self.rows_total:,} rows decoded, "
            f"{self.rows_dict_evaluated:,} dict-evaluated, "
            f"{self.rows_for_evaluated:,} for-evaluated, "
            f"{self.rows_matched:,} matched; "
            f"{self.kernel_declines:,} kernel declines"
        )


# ---------------------------------------------------------------------------
# per-block predicate evaluation (compressed-domain aware)
# ---------------------------------------------------------------------------


def evaluate_block_predicate(
    block: CompressedBlock,
    predicate: Predicate,
    metrics: ScanMetrics | None = None,
    kernels: KernelRegistry | None = None,
) -> np.ndarray:
    """Evaluate ``predicate`` over one block, returning a boolean row mask.

    The predicate tree is walked leaf by leaf.  Before recursing into any
    node, a single-column subtree is offered to the compressed-domain
    :class:`~repro.query.kernels.KernelRegistry` (``kernels``, defaulting to
    the standard registry): dictionary columns answer constant comparisons
    over their packed codes without decoding any value (an integer
    dictionary also whole element-wise subtrees, once per entry), and
    FOR/delta columns answer constant comparisons in word space.  A
    combinator joins its children's masks itself (``combine``), so a
    negated kernel answer stays in its compressed domain.  Remaining leaves
    decode their column once per block (a shared cache deduplicates
    columns used by several leaves) and apply the generic vectorized
    kernel.  An empty registry declines every subtree, so every leaf takes
    that decode path.
    ``metrics``, when given, receives the ``rows_decoded``,
    ``rows_dict_evaluated`` and kernel-counter accounting (``rows_decoded``
    is charged once per block, on the first column actually materialised;
    blocks answered purely in an encoded domain add nothing).  An out-of-core proxy is materialised with the
    predicate's column set only — on a column-granular table the
    non-predicate columns' bytes are never fetched.
    """
    tracer = current_tracer()
    with tracer.span("predicate") as span:
        block = resolve_block(block, columns=predicate.columns())
        registry = kernels if kernels is not None else DEFAULT_KERNELS
        decoded_cache: dict[str, "np.ndarray | list[str]"] = {}
        all_positions: np.ndarray | None = None
        rows_charged = False
        paths: set[str] = set()

        def decode(name: str):
            # Resolves horizontal dependencies through this same cache, so a
            # compound predicate touching both a diff-encoded column and its
            # reference decodes the reference once per block, not per leaf.
            if name not in decoded_cache:
                nonlocal all_positions, rows_charged
                if metrics is not None and not rows_charged:
                    # First materialisation for this block: these rows are
                    # actually decoded (code-space-only blocks never are).
                    rows_charged = True
                    metrics.rows_decoded += block.n_rows
                if all_positions is None:
                    all_positions = np.arange(block.n_rows, dtype=np.int64)
                dependency = block.dependency(name)
                if dependency is None:
                    values = block.column(name).gather(all_positions)
                else:
                    references = {ref: decode(ref) for ref in dependency.references}
                    values = block.column(name).gather_with_reference(  # type: ignore[attr-defined]
                        all_positions, references
                    )
                decoded_cache[name] = values
            return decoded_cache[name]

        def walk(node: Predicate) -> np.ndarray:
            kernel_names = node.columns()
            if len(kernel_names) == 1:
                # Kernel-first: an integer dictionary answers compound
                # single-column subtrees once per entry, so the offer happens
                # before any recursion; the other kernels answer leaves only.
                kernel_mask = registry.predicate_mask(block, kernel_names[0], node, metrics)
                if kernel_mask is not None:
                    if tracer.enabled:
                        paths.add("kernel")
                    return kernel_mask
            combined = node.combine(walk)
            if combined is not None:
                return combined
            if tracer.enabled:
                paths.add("decode")
            return np.asarray(
                node.evaluate({name: decode(name) for name in node.columns()}), dtype=bool
            )

        mask = walk(predicate)
        if mask.shape != (block.n_rows,):
            raise ValidationError("predicate evaluation must return one boolean per row")
        if tracer.enabled:
            span.annotate(
                rows=block.n_rows,
                matched=int(np.count_nonzero(mask)),
                path="+".join(sorted(paths)),
            )
        return mask


@dataclass(frozen=True)
class ScanPlan:
    """The planner's per-block decisions for one predicate."""

    predicate: Predicate | None
    decisions: tuple[str, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.decisions)

    @property
    def required_columns(self) -> tuple[str, ...]:
        """Columns a *scan* block must materialise to evaluate the predicate.

        This is the per-block required-column set the execution layer
        threads down to the fetch layer: a column-granular table then reads
        (and prefetches) only these columns' sub-segments for the blocks
        classified :data:`BlockDecision.SCAN`.
        """
        return self.predicate.columns() if self.predicate is not None else ()

    def count_of(self, decision: str) -> int:
        return sum(1 for d in self.decisions if d == decision)


class ScanPlanner:
    """Classify every block of a relation against a predicate's zone-map tests.

    Decisions are memoized per ``(block, predicate fingerprint)``: repeated
    queries with equal predicates (the common dashboard/refresh pattern) skip
    the zone-map tests entirely.  The memo is dropped whenever the planner
    observes a different relation (tracked via
    :attr:`~repro.storage.relation.Relation.cache_token`).
    """

    #: Memo entries kept before the cache is wholesale dropped — bounds the
    #: memory of a long-lived planner fed ever-changing predicate constants
    #: (each distinct fingerprint adds one entry per block).
    MAX_CACHED_DECISIONS = 65_536

    def __init__(self, relation: Relation):
        self._relation = relation
        self._decisions: dict[tuple[int, str], str] = {}
        self._cache_token = relation.cache_token

    @property
    def relation(self) -> Relation:
        return self._relation

    @relation.setter
    def relation(self, relation: Relation) -> None:
        self._relation = relation

    def invalidate(self) -> None:
        """Drop every memoized decision."""
        self._decisions.clear()

    @property
    def cached_decisions(self) -> int:
        """Number of memoized (block, predicate) decisions currently held."""
        return len(self._decisions)

    def plan(self, predicate: Predicate | None) -> ScanPlan:
        tracer = current_tracer()
        with tracer.span("plan") as span:
            if self._relation.cache_token != self._cache_token:
                self.invalidate()
                self._cache_token = self._relation.cache_token
            if len(self._decisions) >= self.MAX_CACHED_DECISIONS:
                # Epoch eviction: cheaper than LRU bookkeeping on the hot path,
                # and repeated predicates re-warm within one plan() call each.
                self.invalidate()
            fingerprint = predicate.fingerprint() if predicate is not None else None
            decisions = []
            for index, block in enumerate(self._relation):
                if predicate is None:
                    decisions.append(BlockDecision.FULL)
                    continue
                key = (index, fingerprint)
                if key in self._decisions:
                    decisions.append(self._decisions[key])
                    continue
                statistics = block.statistics
                if block.n_rows == 0 or not predicate.might_match(statistics):
                    decision = BlockDecision.PRUNE
                elif predicate.matches_all(statistics):
                    decision = BlockDecision.FULL
                else:
                    decision = BlockDecision.SCAN
                self._decisions[key] = decision
                decisions.append(decision)
            plan = ScanPlan(predicate=predicate, decisions=tuple(decisions))
            if tracer.enabled:
                span.annotate(
                    blocks=plan.n_blocks,
                    pruned=plan.count_of(BlockDecision.PRUNE),
                    full=plan.count_of(BlockDecision.FULL),
                    scanned=plan.count_of(BlockDecision.SCAN),
                )
            return plan
