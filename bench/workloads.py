"""The six workloads of the benchmark of record.

Every workload derives all of its inputs from ``--seed`` and drives the
program only through its public API.  The untraced path (``run``) uses the
end-to-end surface alone: dataset generators, ``CompressionPlan`` /
``TableCompressor``, ``CorrelationDetector``, ``DiffEncodingOptimizer``,
``mine_multi_reference_config``, ``SingleColumnBaseline``, ``Catalog``,
``Engine(EngineConfig(...), catalog=...)``, the ``LazyQuery`` builder,
``materialize_columns`` / ``generate_selection_vectors``,
``python -m repro.cli serve`` and the JSON plan grammar.  The traced path
(``run_traced``) runs the same ops with spans around the outside calls.

A workload is a stream of *cycles*; one cycle holds one op of every kind in
the workload's mix, so any whole number of cycles has the same mix.  Op
latency is timed around ``run`` alone.  The oracle check of an op happens
after its clock has stopped, on the first occurrence of each distinct op.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np
from repro.baselines import SingleColumnBaseline
from repro.core import (
    CompressionPlan,
    CorrelationDetector,
    DiffEncodingOptimizer,
    TableCompressor,
)
from repro.core.rule_mining import mine_multi_reference_config
from repro.datasets import (
    DmvGenerator,
    LdbcMessageGenerator,
    TaxiGenerator,
    TpchLineitemGenerator,
    taxi_multi_reference_config,
)
from repro.query import (
    Between,
    Eq,
    generate_selection_vectors,
    materialize_columns,
)
from repro.query.engine import Engine, EngineConfig
from repro.query.plan import Avg, Count, Max, Min, Sum
from repro.storage import Catalog, Table

from .oracle import TableOracle, same_columns, same_result
from .trace import SpanRecorder

__all__ = [
    "FULL",
    "PROBE",
    "SMOKE",
    "WORKLOADS",
    "Measurement",
    "Op",
    "Scale",
    "Workload",
    "paper_plan",
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# -- sizing --------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """Row and op counts of every workload (see the README's sizing notes)."""

    #: plan_search: rows of each detector table; the optimizer sees 20x as
    #: many date rows and the rule miner 10x as many taxi rows.
    plan_rows: int = 2_000
    #: bulk_load: rows per table and the block size they are cut into.
    load_rows: int = 100_000
    load_block: int = 65_536
    #: materialize: rows of the single-block relations (the string-heavy
    #: message pair gets a quarter) and selection vectors per selectivity.
    mat_rows: int = 500_000
    mat_vectors: int = 10
    #: scan_cold / lookup_warm / serve_mix: rows per catalogued table, the
    #: blocks each is cut into, and the distinct sliding windows.
    cat_rows: int = 500_000
    cat_blocks: int = 16
    windows: int = 32
    #: serve_mix: closed-loop client threads (= cores of the sandbox).
    clients: int = 2


FULL = Scale()
#: The fixed small fixture every traced run measures the layer ladder on.
PROBE = Scale(
    plan_rows=1_000, load_rows=32_768, load_block=16_384, mat_rows=65_536, mat_vectors=4,
    cat_rows=65_536, windows=16,
)  # fmt: skip
#: The tier-1 smoke test's scale.
SMOKE = Scale(
    plan_rows=200, load_rows=2_000, load_block=1_024, mat_rows=2_048, mat_vectors=1,
    cat_rows=2_048, cat_blocks=4, windows=4,
)  # fmt: skip

MATERIALIZE_SELECTIVITIES = (0.001, 0.01, 0.1)

#: Windows a timed pass is cut into (see ``run.undisturbed``).
RATE_WINDOWS = 15

#: Distinct windows the group-bys of ``serve_mix`` slide over: more than a pass sends.
GROUP_WINDOWS = 1 << 16


# -- shared fixture helpers ------------------------------------------------------


def paper_plan(name: str, schema: Any) -> CompressionPlan:
    """The paper's Table-2 plan for one of the four datasets."""
    builder = CompressionPlan.builder(schema)
    if name == "lineitem":
        builder.diff_encode("l_receiptdate", reference="l_shipdate")
        builder.diff_encode("l_commitdate", reference="l_shipdate")
    elif name == "taxi":
        builder.multi_reference_encode("total_amount", taxi_multi_reference_config())
        if "dropoff" in schema:
            builder.diff_encode("dropoff", reference="pickup")
    elif name == "dmv":
        builder.hierarchical_encode("zip_code", reference="city")
    elif name == "message":
        builder.hierarchical_encode("ip", reference="countryid")
    else:
        raise ValueError(f"no paper plan for {name!r}")
    return builder.build()


def clustered(table: Table, key: str, keep: Sequence[str] = ()) -> Table:
    """``table`` reordered by ``key`` (columns in ``keep`` stay as generated).

    A time-ordered ingest: zone maps on ``key`` and on anything that tracks
    it become disjoint, so sliding range predicates touch different blocks.
    """
    order = np.argsort(np.asarray(table.column(key)), kind="stable")
    triples = []
    for spec in table.schema:
        values = table.column(spec.name)
        if spec.name not in keep:
            values = (
                [values[i] for i in order] if isinstance(values, list) else values[order]
            )
        triples.append((spec.name, spec.dtype, values))
    return Table.from_columns(triples)


def roundtrips(table: Table, relation: Any) -> bool:
    """Full decode of ``relation`` equals the generated ``table``."""
    start = 0
    for index in range(relation.n_blocks):
        block = relation.block(index)
        stop = start + block.n_rows
        for name in table.column_names:
            got = block.decode_column(name)
            want = table.column(name)[start:stop]
            if isinstance(want, list):
                if list(got) != want:
                    return False
            elif not np.array_equal(np.asarray(got), want):
                return False
        start = stop
    return start == table.n_rows


def baseline_bytes(table: Table, block_size: int) -> int:
    return int(SingleColumnBaseline(block_size=block_size).compress(table).size_bytes)


@dataclass
class Sizes:
    """Byte counts behind the two size metrics (bookkeeping, never timed)."""

    stored: int = 0  #: what the workload keeps: file bytes, or relation bytes in memory
    raw: int = 0  #: uncompressed column bytes of the same tables
    corra: int = 0  #: Corra relation bytes
    single_column: int = 0  #: ``SingleColumnBaseline`` bytes of the same tables


# -- ops and measurements ------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` identifies distinct ops, ``rows`` is what it covers."""

    kind: str
    key: str
    rows: int
    args: Any = None


@dataclass
class Measurement:
    """What one timed pass observed."""

    durations: list[float] = field(default_factory=list)
    #: The op kind behind each entry of ``durations``.
    kinds: list[str] = field(default_factory=list)
    #: The pass cut into ``RATE_WINDOWS`` windows that each hold the same op
    #: mix: ``(seconds, indices into durations)``.
    windows: list[tuple[float, list[int]]] = field(default_factory=list)
    cycles: int = 0
    rows: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def note_error(self, error: BaseException | str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(error if isinstance(error, str) else repr(error))


_FAILED = object()


class Workload:
    """Base class: a serial loop of cycles over the workload's ops."""

    name = ""
    why = ""

    def __init__(self, seed: int, scale: Scale, out_dir: Path) -> None:
        self.seed = int(seed)
        self.scale = scale
        self.out_dir = Path(out_dir) / self.name
        self.rng = np.random.default_rng(self.seed)

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed op; its wall time is ``setup_s``."""
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    # -- ops -----------------------------------------------------------------------

    def cycle(self, index: int) -> Iterable[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def run_traced(self, op: Op, rec: SpanRecorder) -> Any:
        raise NotImplementedError

    def verify(self, op: Op, result: Any) -> bool:
        raise NotImplementedError

    def done(self, op: Op, result: Any) -> None:
        """Clean up after an op, outside its timed region."""

    def sizes(self) -> Sizes:
        raise NotImplementedError

    # -- the timed loop --------------------------------------------------------------

    def measure(
        self,
        seconds: float | None = None,
        cycles: int | None = None,
        rec: SpanRecorder | None = None,
        check: bool = True,
    ) -> Measurement:
        """Run whole cycles until ``seconds`` of op time or ``cycles`` are spent.

        ``check=False`` skips the oracle (the warm-up cycle inside set-up,
        whose wall time must not include the benchmark's own bookkeeping).
        """
        m = Measurement()
        cycle_spans: list[tuple[float, int]] = []  # (op seconds, ops) of each cycle
        seen: set[str] = set()
        spent = 0.0
        index = 0
        while (cycles is None or index < cycles) and (seconds is None or spent < seconds):
            ops = 0
            cycle_seconds = 0.0
            for op in self.cycle(index):
                result: Any = _FAILED
                started = time.perf_counter()
                try:
                    if rec is None:
                        result = self.run(op)
                    else:
                        with rec.span("op." + self.name, tag=op.kind):
                            result = self.run_traced(op, rec)
                except Exception as error:  # an op that raises is a failed op
                    m.note_error(error)
                elapsed = time.perf_counter() - started
                m.durations.append(elapsed)
                m.kinds.append(op.kind)
                m.rows += op.rows
                cycle_seconds += elapsed
                ops += 1
                if result is not _FAILED:
                    if check and op.key not in seen:
                        seen.add(op.key)
                        if not self._verified(op, result):
                            m.note_error(f"oracle mismatch: {op.key}")
                    self.done(op, result)
            cycle_spans.append((cycle_seconds, ops))
            spent += cycle_seconds
            index += 1
        # Windows of whole cycles, so that every window holds the same mix.
        m.cycles = len(cycle_spans)
        size = max(m.cycles // RATE_WINDOWS, 1)
        first = 0
        for start in range(0, m.cycles - size + 1, size):
            chunk = cycle_spans[start : start + size]
            ops = sum(n for _, n in chunk)
            m.windows.append((sum(t for t, _ in chunk), list(range(first, first + ops))))
            first += ops
        return m

    def _verified(self, op: Op, result: Any) -> bool:
        try:
            return bool(self.verify(op, result))
        except Exception:  # a result the oracle cannot even read is a mismatch
            return False


# -- 1. plan_search ---------------------------------------------------------------------


class PlanSearch(Workload):
    name = "plan_search"
    why = (
        "choosing encodings: correlation detection, diff-encoding optimizer and rule mining; "
        "no storage, no query"
    )

    DATASETS = (
        ("tpch", TpchLineitemGenerator),
        ("taxi", TaxiGenerator),
        ("dmv", DmvGenerator),
        ("ldbc", LdbcMessageGenerator),
    )

    def setup(self) -> None:
        rows = self.scale.plan_rows
        self.tables = {
            label: generator().generate(rows, seed=self.seed) for label, generator in self.DATASETS
        }
        self.dates = TpchLineitemGenerator().generate_dates_only(20 * rows, seed=self.seed)
        self.taxi = TaxiGenerator().generate(10 * rows, seed=self.seed)

    def cycle(self, index: int) -> Iterable[Op]:
        for label, table in self.tables.items():
            yield Op("suggest." + label, "suggest." + label, table.n_rows, label)
        yield Op("optimize", "optimize", self.dates.n_rows)
        yield Op("mine", "mine", self.taxi.n_rows)

    def run(self, op: Op) -> Any:
        if op.kind == "optimize":
            return DiffEncodingOptimizer().optimize(self.dates)
        if op.kind == "mine":
            return mine_multi_reference_config(self.taxi, "total_amount")
        table = self.tables[op.args]
        suggestions = CorrelationDetector().suggest(table)
        return CompressionPlan.from_suggestions(table.schema, suggestions)

    def run_traced(self, op: Op, rec: SpanRecorder) -> Any:
        if op.kind == "optimize":
            with rec.span("core.optimizer.optimize"):
                return DiffEncodingOptimizer().optimize(self.dates)
        if op.kind == "mine":
            with rec.span("core.rule_mining.mine"):
                return mine_multi_reference_config(self.taxi, "total_amount")
        table = self.tables[op.args]
        with rec.span("core.correlation.suggest", tag=op.args):
            suggestions = CorrelationDetector().suggest(table)
        with rec.span("core.plan.from_suggestions", tag=op.args):
            return CompressionPlan.from_suggestions(table.schema, suggestions)

    def verify(self, op: Op, result: Any) -> bool:
        """A chosen plan must compress its table losslessly and not grow it."""
        if op.kind == "optimize":
            _, config = result
            names = set(self.dates.column_names)
            return config.total_size <= config.baseline_size and all(
                target in names and reference in names
                for target, reference in config.assignments.items()
            )
        if op.kind == "mine":
            config, mining = result
            plan = (
                CompressionPlan.builder(self.taxi.schema)
                .multi_reference_encode("total_amount", config)
                .build()
            )
            table = self.taxi
            ok = 0.0 < mining.explained_fraction <= 1.0
        else:
            table, plan, ok = self.tables[op.args], result, True
        relation = TableCompressor(plan, block_size=max(table.n_rows, 1)).compress(table)
        return ok and roundtrips(table, relation)

    def sizes(self) -> Sizes:
        """Bytes of the four tables under the plans the detector chose."""
        out = Sizes()
        for table in self.tables.values():
            plan = CompressionPlan.from_suggestions(
                table.schema, CorrelationDetector().suggest(table)
            )
            relation = TableCompressor(plan, block_size=table.n_rows).compress(table)
            out.corra += relation.size_bytes
            out.raw += table.uncompressed_size()
            out.single_column += baseline_bytes(table, table.n_rows)
        out.stored = out.corra
        return out


# -- 2. bulk_load -------------------------------------------------------------------------


class BulkLoad(Workload):
    name = "bulk_load"
    why = (
        "encoding and writing: TableCompressor under the paper's Table-2 plans plus "
        "Catalog.save; the write-side use of bitpack/encodings/core/serialization"
    )

    DATASETS = (
        ("lineitem", TpchLineitemGenerator),
        ("taxi", TaxiGenerator),
        ("dmv", DmvGenerator),
        ("message", LdbcMessageGenerator),
    )

    def setup(self) -> None:
        rows = self.scale.load_rows
        self.tables = {
            label: generator().generate(rows, seed=self.seed) for label, generator in self.DATASETS
        }
        self.plans = {label: paper_plan(label, t.schema) for label, t in self.tables.items()}
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.catalog = Catalog(self.out_dir)
        self.file_bytes: dict[str, int] = {}
        self.relation_bytes: dict[str, int] = {}

    def cycle(self, index: int) -> Iterable[Op]:
        for label, table in self.tables.items():
            yield Op("load." + label, label, table.n_rows, f"{label}-{index}")

    def run(self, op: Op) -> Any:
        table = self.tables[op.key]
        compressor = TableCompressor(self.plans[op.key], block_size=self.scale.load_block)
        relation = compressor.compress(table)
        self.catalog.save(op.args, relation)
        return relation

    def run_traced(self, op: Op, rec: SpanRecorder) -> Any:
        table = self.tables[op.key]
        with rec.span("core.plan.compress", tag=op.key):
            compressor = TableCompressor(self.plans[op.key], block_size=self.scale.load_block)
            relation = compressor.compress(table)
        with rec.span("storage.format.write", tag=op.key):
            self.catalog.save(op.args, relation)
        return relation

    def verify(self, op: Op, result: Any) -> bool:
        """Read the file back, decode every column, compare with the input."""
        self.file_bytes[op.key] = os.path.getsize(self.catalog.path_of(op.args))
        self.relation_bytes[op.key] = int(result.size_bytes)
        with self.catalog.open(op.args) as stored:
            return roundtrips(self.tables[op.key], stored)

    def done(self, op: Op, result: Any) -> None:
        self.catalog.remove(op.args)

    def sizes(self) -> Sizes:
        out = Sizes(stored=sum(self.file_bytes.values()), corra=sum(self.relation_bytes.values()))
        for table in self.tables.values():
            out.raw += table.uncompressed_size()
            out.single_column += baseline_bytes(table, self.scale.load_block)
        return out


# -- 3. materialize --------------------------------------------------------------------------


class Materialize(Workload):
    name = "materialize"
    why = (
        "the paper's Fig. 5/8 query: materialise a diff-encoded column, alone and with its "
        "reference, at seeded selection vectors over in-memory single-block relations"
    )

    def setup(self) -> None:
        rows = self.scale.mat_rows
        self.tables = {
            "dates": TpchLineitemGenerator().generate_dates_only(rows, seed=self.seed),
            "message": LdbcMessageGenerator().generate_pair_only(max(rows // 4, 1), seed=self.seed),
            "taxi": TaxiGenerator().generate_monetary_only(rows, seed=self.seed),
        }
        plans = {
            "dates": paper_plan("lineitem", self.tables["dates"].schema),
            "message": paper_plan("message", self.tables["message"].schema),
            "taxi": paper_plan("taxi", self.tables["taxi"].schema),
        }
        self.relations = {
            label: TableCompressor(plans[label], block_size=table.n_rows).compress(table)
            for label, table in self.tables.items()
        }
        #: (relation, projected columns): the diff-encoded column alone, then
        #: with its reference column(s).
        self.projections = (
            ("dates", ("l_receiptdate",)),
            ("dates", ("l_shipdate", "l_receiptdate")),
            ("message", ("ip",)),
            ("message", ("countryid", "ip")),
            ("taxi", ("total_amount",)),
            ("taxi", tuple(self.tables["taxi"].column_names)),
        )
        self.vectors = {
            (label, selectivity): generate_selection_vectors(
                table.n_rows, selectivity, count=self.scale.mat_vectors, seed=self.seed
            )
            for label, table in self.tables.items()
            for selectivity in MATERIALIZE_SELECTIVITIES
        }
        self.oracles = {label: TableOracle(table) for label, table in self.tables.items()}

    def cycle(self, index: int) -> Iterable[Op]:
        v = index % self.scale.mat_vectors
        for selectivity in MATERIALIZE_SELECTIVITIES:
            for label, columns in self.projections:
                vector = self.vectors[(label, selectivity)][v]
                key = f"{label}:{','.join(columns)}:{selectivity}:{v}"
                yield Op(f"{label}.{len(columns)}col", key, len(vector), (label, columns, vector))

    def run(self, op: Op) -> Any:
        label, columns, vector = op.args
        return materialize_columns(self.relations[label], columns, vector)

    def run_traced(self, op: Op, rec: SpanRecorder) -> Any:
        label, columns, vector = op.args
        with rec.span("query.scan.materialize", tag=label):
            return materialize_columns(self.relations[label], columns, vector)

    def verify(self, op: Op, result: Any) -> bool:
        label, columns, vector = op.args
        return same_columns(result, self.oracles[label].gather(columns, vector.row_ids))

    def sizes(self) -> Sizes:
        out = Sizes()
        for label, table in self.tables.items():
            out.corra += self.relations[label].size_bytes
            out.raw += table.uncompressed_size()
            out.single_column += baseline_bytes(table, table.n_rows)
        out.stored = out.corra
        return out


# -- the catalog the three query workloads share ------------------------------------------------------


class CatalogFixture:
    """lineitem + taxi, time-clustered, compressed under the paper plans, on disk."""

    def __init__(self, root: Path, rows: int, blocks: int, seed: int) -> None:
        self.root = root
        self.block_size = max(rows // blocks, 1)
        lineitem = TpchLineitemGenerator().generate(rows, seed=seed)
        # l_orderkey is generated sorted and stays so: the table is clustered
        # on both the ship date and the order key, like a time-ordered ingest.
        self.tables = {
            "lineitem": clustered(lineitem, "l_shipdate", keep=("l_orderkey",)),
            "taxi": clustered(TaxiGenerator().generate(rows, seed=seed), "pickup"),
        }
        shutil.rmtree(root, ignore_errors=True)
        catalog = Catalog(root)
        self.sizes = Sizes()
        for label, table in self.tables.items():
            plan = paper_plan(label, table.schema)
            relation = TableCompressor(plan, block_size=self.block_size).compress(table)
            catalog.save(label, relation)
            self.sizes.corra += relation.size_bytes
            self.sizes.raw += table.uncompressed_size()
            self.sizes.stored += os.path.getsize(catalog.path_of(label))
        self._oracles: dict[str, TableOracle] = {}
        self._spans: dict[tuple[str, str], tuple[int, int]] = {}

    @property
    def file_bytes(self) -> int:
        return self.sizes.stored

    def oracle(self, table: str) -> TableOracle:
        if table not in self._oracles:
            self._oracles[table] = TableOracle(self.tables[table])
        return self._oracles[table]

    def full_sizes(self) -> Sizes:
        if not self.sizes.single_column:
            self.sizes.single_column = sum(
                baseline_bytes(table, self.block_size) for table in self.tables.values()
            )
        return self.sizes

    def window(self, table: str, column: str, index: int, count: int) -> tuple[int, int]:
        """The ``index``-th of ``count`` sliding ranges, each 1/8 of the column's span."""
        if (table, column) not in self._spans:
            values = self.tables[table].column(column)
            self._spans[(table, column)] = (int(values.min()), int(values.max()))
        low, high = self._spans[(table, column)]
        width = max((high - low) // 8, 1)
        start = low + (high - low - width) * index // max(count - 1, 1)
        return start, start + width


_AGGREGATES = {"count": Count, "sum": Sum, "avg": Avg, "min": Min, "max": Max}


def lower_plan(engine: Engine, relation: Any, plan: dict) -> Any:
    """A JSON plan as a ``LazyQuery`` chain (the benchmark's own lowering)."""
    query = engine.query(relation)
    where = plan.get("where")
    if where is not None:
        if where["op"] == "eq":
            query = query.where(Eq(where["column"], where["value"]))
        else:
            query = query.where(Between(where["column"], where["lo"], where["hi"]))
    if plan.get("select"):
        query = query.select(*plan["select"])
    if plan.get("group_by"):
        query = query.group_by(*plan["group_by"])
    if plan.get("aggregates"):
        query = query.agg(
            **{
                name: _AGGREGATES[spec["fn"]](*([spec["column"]] if "column" in spec else []))
                for name, spec in plan["aggregates"].items()
            }
        )
    if plan.get("order_by"):
        query = query.order_by(plan["order_by"]["column"], desc=plan["order_by"].get("desc", False))
        query = query.limit(plan["k"])
    return query


def result_body(result: Any) -> dict:
    """A ``PlanResult`` in the JSON body shape the oracle answers in."""
    columns = {
        name: values.tolist() if isinstance(values, np.ndarray) else list(values)
        for name, values in result.columns.items()
    }
    return {"columns": columns, "n_rows": result.n_rows}


def between(column: str, bounds: tuple[int, int]) -> dict:
    return {"op": "between", "column": column, "lo": bounds[0], "hi": bounds[1]}


def plan_op(kind: str, plan: dict, rows: int) -> Op:
    return Op(kind, json.dumps(plan, sort_keys=True), rows, plan)


class _QueryWorkload(Workload):
    """In-process queries through one ``Engine`` over the shared catalog."""

    #: Block-cache budget as a multiple of the catalog's file bytes.
    cache_factor = 1.0

    def setup(self) -> None:
        s = self.scale
        self.fixture = CatalogFixture(self.out_dir, s.cat_rows, s.cat_blocks, self.seed)
        cache_bytes = max(int(self.fixture.file_bytes * self.cache_factor), 1)
        self.engine = Engine(
            EngineConfig(workers=1, cache_bytes=cache_bytes), catalog=self.fixture.root
        )
        self.relations = {name: self.engine.table(name) for name in self.fixture.tables}
        #: The traced path splits an op into build / compile / execute when the
        #: program still exposes its compiler; otherwise it is one span.
        self.split = hasattr(self.engine, "compiler_for")
        self.scan_totals: dict[str, int] = {}
        self.stage_seconds: dict[str, float] = {}
        self.program_tracing = True

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
        super().teardown()

    def run(self, op: Op) -> Any:
        plan = op.args
        return lower_plan(self.engine, self.relations[plan["table"]], plan).execute()

    def run_traced(self, op: Op, rec: SpanRecorder) -> Any:
        plan = op.args
        relation = self.relations[plan["table"]]
        tracer = self.engine.tracer() if self.program_tracing else None
        if not self.split:
            with rec.span("query.plan.execute") as execute:
                result = lower_plan(self.engine, relation, plan).execute(tracer=tracer)
        else:
            with rec.span("query.plan.build"):
                logical = lower_plan(self.engine, relation, plan).logical_plan()
            with rec.span("query.engine.compiler_for"):
                compiler = self.engine.compiler_for(relation)
            with rec.span("query.plan.compile"):
                compiled = compiler.compile(logical)
            with rec.span("query.plan.execute") as execute:
                result = compiler.execute(compiled, tracer=tracer)
        if tracer is not None:
            self._import_stages(rec, execute, tracer)
        self._note_scan(result.metrics)
        return result

    #: Which module each stage of the program's own tracer belongs to.
    STAGE_LAYERS = {
        "plan": "query.scan",
        "fetch": "storage.cache",
        "io": "storage.format",
        "predicate": "query.kernels",
        "gather": "query.scan",
        "aggregate": "query.plan",
    }

    def _import_stages(self, rec: SpanRecorder, execute: Any, tracer: Any) -> None:
        """Hang the program tracer's spans under the benchmark's execute span."""
        spans = sorted(tracer.spans(), key=lambda s: s.start)
        if not spans:
            return
        shift = execute.start - spans[0].start
        mapped: dict[int, Any] = {}
        for span in spans:
            self.stage_seconds[span.name] = self.stage_seconds.get(span.name, 0.0) + span.duration
            if span.name == "execute":  # the program's root duplicates ours
                mapped[span.span_id] = execute
                continue
            layer = self.STAGE_LAYERS.get(span.name, "query.plan")
            mapped[span.span_id] = rec.add(
                f"{layer}.stage.{span.name}",
                span.start + shift,
                span.end + shift,
                mapped.get(span.parent_id, execute),
            )

    def _note_scan(self, metrics: Any) -> None:
        if metrics is None:
            return
        for name in (
            "n_blocks", "blocks_pruned", "blocks_full", "blocks_scanned", "rows_decoded",
            "rows_dict_evaluated", "rows_rle_evaluated", "rows_for_evaluated", "kernel_declines",
        ):  # fmt: skip
            self.scan_totals[name] = self.scan_totals.get(name, 0) + int(
                getattr(metrics, name, 0)
            )

    def verify(self, op: Op, result: Any) -> bool:
        plan = op.args
        return same_result(result_body(result), self.fixture.oracle(plan["table"]).answer(plan))

    def sizes(self) -> Sizes:
        return self.fixture.full_sizes()


# -- 4. scan_cold ------------------------------------------------------------------------------------


def taxi_group_plan(fixture: CatalogFixture, window: int, count: int) -> tuple[str, dict]:
    return (
        "taxi_group_sum",
        {
            "table": "taxi",
            "where": between("pickup", fixture.window("taxi", "pickup", window, count)),
            "group_by": ["passenger_count"],
            "aggregates": {"total": {"fn": "sum", "column": "total_amount"}},
        },
    )


def scan_plans(fixture: CatalogFixture, window: int, count: int) -> list[tuple[str, dict]]:
    """The four analytic templates at sliding window ``window`` of ``count``."""
    receipt = fixture.window("lineitem", "l_receiptdate", window, count)
    ship = fixture.window("lineitem", "l_shipdate", window, count)
    return [
        (
            "receipt_count_sum",
            {
                "table": "lineitem",
                "where": between("l_receiptdate", receipt),
                "aggregates": {
                    "n": {"fn": "count"},
                    "revenue": {"fn": "sum", "column": "l_extendedprice"},
                },
            },
        ),
        (
            "ship_avg",
            {
                "table": "lineitem",
                "where": between("l_shipdate", ship),
                "aggregates": {"quantity": {"fn": "avg", "column": "l_quantity"}},
            },
        ),
        taxi_group_plan(fixture, window, count),
        (
            "ship_topk",
            {
                "table": "lineitem",
                "where": between("l_shipdate", ship),
                "select": ["l_orderkey", "l_extendedprice"],
                "order_by": {"column": "l_extendedprice", "desc": True},
                "k": 10,
            },
        ),
    ]


class ScanCold(_QueryWorkload):
    name = "scan_cold"
    why = (
        "analytic scans with the working set 4x the block cache: file reads, CRC, column "
        "deserialisation, eviction and prefetch dominate (OS page cache stays warm)"
    )
    cache_factor = 0.25

    def cycle(self, index: int) -> Iterable[Op]:
        count = self.scale.windows
        # A stride coprime to the window count: consecutive cycles land in
        # different blocks and every window recurs once per `count` cycles.
        window = (index * 13) % count
        rows = self.scale.cat_rows
        for kind, plan in scan_plans(self.fixture, window, count):
            yield plan_op(kind, plan, rows)


# -- 5. lookup_warm ------------------------------------------------------------------------------------


class KeyStream:
    """Order keys for point lookups: 90% present, 10% absent, never repeating."""

    def __init__(self, orderkeys: np.ndarray, rng: np.random.Generator, count: int) -> None:
        present = orderkeys[rng.integers(0, orderkeys.size, size=count)]
        candidates = rng.integers(1, int(orderkeys.max()) + 1, size=count)
        absent = candidates[~np.isin(candidates, orderkeys)]
        if absent.size == 0:
            absent = np.asarray([int(orderkeys.max()) + 1])
        missing = rng.random(count) < 0.10
        self.keys = np.where(missing, absent[np.arange(count) % absent.size], present).tolist()

    def __getitem__(self, index: int) -> int:
        return int(self.keys[index % len(self.keys)])


def point_agg_plan(key: int) -> tuple[str, dict]:
    return (
        "point_agg",
        {
            "table": "lineitem",
            "where": {"op": "eq", "column": "l_orderkey", "value": key},
            "aggregates": {
                "n": {"fn": "count"},
                "quantity": {"fn": "sum", "column": "l_quantity"},
            },
        },
    )


def point_select_plan(key: int) -> tuple[str, dict]:
    return (
        "point_select",
        {
            "table": "lineitem",
            "where": {"op": "eq", "column": "l_orderkey", "value": key},
            "select": ["l_commitdate", "l_receiptdate"],
        },
    )


LOOKUP_PLANS = (point_agg_plan, point_select_plan)


class LookupWarm(_QueryWorkload):
    name = "lookup_warm"
    why = (
        "point queries with every block cached: zone maps prune all but one block, so "
        "per-query fixed cost (build, compile, planner, cache hit path) dominates"
    )
    cache_factor = 4.0

    def setup(self) -> None:
        super().setup()
        orderkeys = np.asarray(self.fixture.tables["lineitem"].column("l_orderkey"))
        self.keys = KeyStream(orderkeys, self.rng, 1 << 16)
        # Warm-up: one lookup per block of each template touches every
        # column segment the timed ops will need.
        for first in orderkeys[:: self.fixture.block_size]:
            for make in LOOKUP_PLANS:
                self.run(plan_op("warmup", make(int(first))[1], 0))

    def cycle(self, index: int) -> Iterable[Op]:
        rows = self.scale.cat_rows
        for offset, make in enumerate(LOOKUP_PLANS):
            yield plan_op(*make(self.keys[2 * index + offset]), rows)


# -- 6. serve_mix ------------------------------------------------------------------------------------


class ServeMix(Workload):
    name = "serve_mix"
    why = (
        "closed loop of 2 clients over HTTP against `corra serve`: 70% fresh point lookups, "
        "20% repeated range aggregates (result-cache hits), 10% group-bys; the only "
        "workload with concurrency"
    )

    #: One cycle of one client: L = point lookup, R = pooled range aggregate,
    #: G = taxi group-by.
    PATTERN = "LLRLLGLLRL"
    RANGE_POOL = 32

    def setup(self) -> None:
        s = self.scale
        self.fixture = CatalogFixture(self.out_dir, s.cat_rows, s.cat_blocks, self.seed)
        orderkeys = np.asarray(self.fixture.tables["lineitem"].column("l_orderkey"))
        self.keys = KeyStream(orderkeys, self.rng, 1 << 16)
        self.server = self._start_server()

    def _start_server(self) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, "-m", "repro.cli", "serve", str(self.fixture.root),
            "--port", "0", "--workers", "1", "--max-concurrency", str(self.scale.clients),
        ]  # fmt: skip
        server = subprocess.Popen(
            command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )  # fmt: skip
        assert server.stdout is not None
        banner = server.stdout.readline()  # "serving catalog ... on http://host:port"
        if "http://" not in banner:
            server.kill()
            server.wait()
            raise RuntimeError(f"corra serve did not start: {banner!r}")
        host, _, port = banner.strip().rsplit("http://", 1)[1].partition(":")
        self.address = (host, int(port))
        # Drain the rest of the banner on a thread so the pipe never fills.
        self._drain = threading.Thread(target=server.stdout.read, daemon=True)
        self._drain.start()
        return server

    def stop_server(self) -> None:
        """Stop the server process and wait until it has ended."""
        server = getattr(self, "server", None)
        if server is None:
            return
        self.server = None
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        self._drain.join(timeout=5)
        if server.stdout is not None:
            server.stdout.close()

    def teardown(self) -> None:
        self.stop_server()
        super().teardown()

    # -- requests ----------------------------------------------------------------

    def cycle_of(self, client: int, index: int) -> list[Op]:
        """The ten requests of cycle ``index`` of ``client``."""
        rows = self.scale.cat_rows
        ops = []
        lookups = 0
        for position, letter in enumerate(self.PATTERN):
            serial = (index * self.scale.clients + client) * len(self.PATTERN) + position
            if letter == "L":
                key = self.keys[(index * self.scale.clients + client) * 7 + lookups]
                kind, plan = LOOKUP_PLANS[serial % 2](key)
                lookups += 1
            elif letter == "R":
                window = self.fixture.window(
                    "lineitem", "l_shipdate", serial % self.RANGE_POOL, self.RANGE_POOL
                )
                kind = "range_agg"
                plan = {
                    "table": "lineitem",
                    "where": between("l_shipdate", window),
                    "aggregates": {
                        "n": {"fn": "count"},
                        "revenue": {"fn": "sum", "column": "l_extendedprice"},
                        "quantity": {"fn": "avg", "column": "l_quantity"},
                    },
                }
            else:
                # Every group-by has a window of its own, so it is executed,
                # not replayed: with a recurring pool the distance between two
                # uses sat right at the result cache's 256 entries, and runs
                # flipped between all hits and all misses.
                kind, plan = taxi_group_plan(self.fixture, serial % GROUP_WINDOWS, GROUP_WINDOWS)
            ops.append(plan_op(kind, plan, rows))
        return ops

    def post(self, plan: dict) -> tuple[int, Any]:
        """One request on a fresh connection; returns ``(status, decoded body)``."""
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            body = json.dumps(plan)
            connection.request("POST", "/query", body, {"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def get(self, path: str) -> Any:
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    # -- the closed loop -----------------------------------------------------------

    def _client(
        self, client: int, seconds: float | None, cycles: int | None, rec: SpanRecorder | None,
        out: dict,
    ) -> None:  # fmt: skip
        durations, kinds, ends, replies, errors = [], [], [], [], []
        started = time.perf_counter()
        index = 0
        while (cycles is None or index < cycles) and (
            seconds is None or time.perf_counter() - started < seconds
        ):
            for op in self.cycle_of(client, index):
                t0 = time.perf_counter()
                try:
                    if rec is None:
                        reply = self.post(op.args)
                    else:
                        with rec.span("op." + self.name, tag=op.kind):
                            with rec.span("server.http.request", tag=op.kind):
                                reply = self.post(op.args)
                    replies.append((op, reply))
                except Exception as error:  # a request that raises is a failed op
                    errors.append(repr(error))
                ends.append(time.perf_counter())
                durations.append(ends[-1] - t0)
                kinds.append(op.kind)
            index += 1
        out[client] = (durations, kinds, ends, replies, errors, index)

    def measure(
        self,
        seconds: float | None = None,
        cycles: int | None = None,
        rec: SpanRecorder | None = None,
        check: bool = True,
    ) -> Measurement:
        out: dict[int, tuple] = {}
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(c, seconds, cycles, rec, out))
            for c in range(self.scale.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        m = Measurement()
        self.replies: list[tuple[Op, Any]] = []
        expected: dict[str, dict] = {}
        # Windows are equal slices of the time all clients were active: the
        # clients compete for the server, so a client's good stretch is the
        # other's bad one and only their sum per slice of time means anything.
        active = min((out[c][2][-1] for c in out if out[c][2]), default=started) - started
        slices: list[list[int]] = [[] for _ in range(RATE_WINDOWS)]
        for client in sorted(out):
            durations, kinds, ends, replies, errors, cycles = out[client]
            for offset, end in enumerate(ends):
                if end - started < active:
                    which = int((end - started) / active * RATE_WINDOWS)
                    slices[which].append(len(m.durations) + offset)
            m.cycles += cycles
            m.durations.extend(durations)
            m.kinds.extend(kinds)
            for error in errors:
                m.note_error(error)
            for op, (status, body) in replies:
                m.rows += op.rows
                if not check:
                    continue
                plan = op.args
                if op.key not in expected:
                    expected[op.key] = self.fixture.oracle(plan["table"]).answer(plan)
                if status != 200 or not same_result(body, expected[op.key]):
                    m.note_error(f"status {status} or oracle mismatch: {op.key}")
            self.replies.extend(replies)
        m.windows = [(active / RATE_WINDOWS, indices) for indices in slices if indices]
        return m

    def sizes(self) -> Sizes:
        return self.fixture.full_sizes()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PlanSearch, BulkLoad, Materialize, ScanCold, LookupWarm, ServeMix)
}
