"""The layer ladder: every per-layer metric, measured on one small fixture.

The traced pass of any workload runs this ladder after the workload's own
traced ops.  Its fixture (``workloads.PROBE``) is derived from ``--seed`` and
is the same size whatever workload was asked for, so a per-layer number
means the same thing in every run and its counters repeat.  Each number is
either a timed call into one public function of a layer, a span or counter
read from a traced pass of the small query / server workloads, or a ratio
of bytes.

Probes are guarded one by one: when the function a probe calls no longer
exists (or no longer takes these arguments) the metric is recorded as
``None`` with the reason in ``unavailable``, and the ladder carries on.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import workloads as w
from .metrics import per_layer_names
from .trace import SpanRecorder

__all__ = ["Ladder"]

MB = 1e6
GB = 1e9


def timed(fn: Callable[[], Any], repeats: int = 5) -> tuple[float, Any]:
    """Median wall time of ``fn`` over ``repeats`` calls, and its last result."""
    samples = []
    out = None
    for _ in range(repeats):
        started = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), out


def median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


def attr(module: str, name: str) -> Any:
    """``module.name`` from the program, raising if either has gone."""
    return getattr(importlib.import_module(module), name)


class Ladder:
    """Runs every probe once; ``values`` maps metric name to number or ``None``."""

    def __init__(self, seed: int, scale: w.Scale, out_dir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.out_dir = Path(out_dir) / "ladder"
        self.values: dict[str, float | None] = {}
        self.unavailable: dict[str, str] = {}
        self.notes: dict[str, Any] = {}

    # -- guards ------------------------------------------------------------------

    def put(self, name: str, fn: Callable[[], float]) -> None:
        try:
            self.values[name] = float(fn())
        except Exception as error:  # API drift must not stop the ladder
            self.values[name] = None
            self.unavailable[name] = repr(error)

    def group(self, names: tuple[str, ...], fn: Callable[[], dict[str, float]]) -> None:
        """Probes that share one measurement (a traced pass, one server)."""
        try:
            out = fn()
        except Exception as error:  # API drift must not stop the ladder
            out = {}
            reason = repr(error)
        else:
            reason = "not produced by its probe"
        for name in names:
            if name in out and out[name] is not None:
                self.values[name] = float(out[name])
            else:
                self.values[name] = None
                self.unavailable[name] = reason

    # -- the ladder ----------------------------------------------------------------

    def run(self) -> dict[str, float | None]:
        fixtures = {}
        try:
            for cls in (w.PlanSearch, w.BulkLoad, w.Materialize):
                fixtures[cls.name] = cls(self.seed, self.scale, self.out_dir)
                fixtures[cls.name].setup()
            self.plan, self.load, self.mat = (
                fixtures[n] for n in ("plan_search", "bulk_load", "materialize")
            )
            self.lineitem = self.load.tables["lineitem"]
            self.taxi = self.load.tables["taxi"]
            self.dmv = self.load.tables["dmv"]
            self.message = self.load.tables["message"]
            self._bound()
            self._bitpack()
            self._encodings()
            self._core_choosing()
            self._core_encoding()
            self._storage_files()
            self._scan()
            self._lookup()
            self._parallel()
            self._server()
        finally:
            for fixture in fixtures.values():
                fixture.teardown()
        for name in per_layer_names():
            if name not in self.values and not name.startswith("bench."):
                self.values[name] = None
                self.unavailable[name] = "no probe ran"
        return self.values

    # -- bound -------------------------------------------------------------------

    def _bound(self) -> None:
        n = max(self.scale.cat_rows * 8, 1 << 14)
        source = np.arange(n, dtype=np.int64)
        target = np.empty_like(source)
        self.put(
            "bound.numpy_copy_gb_per_s",
            lambda: source.nbytes / timed(lambda: np.copyto(target, source), 9)[0] / GB,
        )
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "raw.bin"
        payload = source.tobytes()

        def write() -> None:
            # Same flush policy as TableWriter: buffered write, flush, close;
            # no fsync.
            with open(path, "wb") as out:
                out.write(payload)
                out.flush()

        def pread() -> None:
            fd = os.open(path, os.O_RDONLY)
            try:
                offset = 0
                while offset < len(payload):
                    offset += len(os.pread(fd, 1 << 20, offset))
            finally:
                os.close(fd)

        self.put("bound.raw_write_mb_per_s", lambda: len(payload) / timed(write, 5)[0] / MB)
        self.put("bound.raw_pread_mb_per_s", lambda: len(payload) / timed(pread, 5)[0] / MB)
        path.unlink(missing_ok=True)

    # -- bitpack -------------------------------------------------------------------

    def _bitpack(self) -> None:
        ship = np.asarray(self.lineitem.column("l_shipdate"))
        values = (ship - ship.min()).astype(np.int64)
        raw = values.nbytes  # throughput is over the unpacked int64 bytes
        positions = np.sort(self.plan.rng.choice(values.size, values.size // 10, replace=False))
        low, high = int(values.max() // 4), int(values.max() // 2)

        def probes() -> dict[str, float]:
            bitpack = importlib.import_module("repro.bitpack")
            width = bitpack.required_bits(int(values.max()))
            words = bitpack.pack(values, width)
            packed = bitpack.BitPackedArray.from_values(values, width)
            return {
                "bitpack.pack_gb_per_s": raw / timed(lambda: bitpack.pack(values, width))[0] / GB,
                "bitpack.unpack_gb_per_s": raw
                / timed(lambda: bitpack.unpack(words, width, values.size))[0]
                / GB,
                "bitpack.gather_mrows_per_s": positions.size
                / timed(lambda: bitpack.gather(words, width, positions))[0]
                / 1e6,
                "bitpack.compare_range_gb_per_s": raw
                / timed(lambda: packed.compare_range(low, high))[0]
                / GB,
            }

        self.group(
            tuple(n for n in per_layer_names() if n.startswith("bitpack.")), probes
        )

    # -- encodings -------------------------------------------------------------------

    def _encodings(self) -> None:
        clustered_ship = np.sort(np.asarray(self.lineitem.column("l_shipdate")))
        inputs = {
            "for_bitpack": ("ForBitPackEncoding", self.lineitem, "l_shipdate", None),
            "dictionary": ("DictionaryEncoding", self.dmv, "city", None),
            "delta": ("DeltaEncoding", self.lineitem, "l_orderkey", None),
            "rle": ("RleEncoding", self.lineitem, "l_shipdate", clustered_ship),
            "frequency": ("FrequencyEncoding", self.taxi, "tolls_amount", None),
            "fsst": ("FsstEncoding", self.message, "ip", None),
        }
        for codec, (cls_name, table, column, override) in inputs.items():
            values = table.column(column) if override is None else override
            dtype = table.dtype(column)
            raw = table.uncompressed_size(column)

            def probes(cls_name=cls_name, values=values, dtype=dtype, raw=raw, codec=codec):
                scheme = attr("repro.encodings", cls_name)()
                seconds, encoded = timed(lambda: scheme.encode(values, dtype), 3)
                return {
                    f"encodings.{codec}.encode_mb_per_s": raw / seconds / MB,
                    f"encodings.{codec}.decode_mb_per_s": raw / timed(encoded.decode, 3)[0] / MB,
                }

            self.group(
                (f"encodings.{codec}.encode_mb_per_s", f"encodings.{codec}.decode_mb_per_s"),
                probes,
            )
        ship = self.lineitem.column("l_shipdate")
        dtype = self.lineitem.dtype("l_shipdate")
        selector = attr("repro.encodings", "BestOfSelector")
        self.put(
            "encodings.selector.select_ms",
            lambda: timed(lambda: selector().select(ship, dtype))[0] * 1e3,
        )
        self.put(
            "encodings.selector.best_size_ms",
            lambda: timed(lambda: selector().best_size(ship, dtype))[0] * 1e3,
        )

    # -- core: choosing ----------------------------------------------------------------

    def _core_choosing(self) -> None:
        detector = attr("repro.core", "CorrelationDetector")
        for label, table in self.plan.tables.items():
            self.put(
                f"core.correlation.suggest_ms.{label}",
                lambda table=table: timed(lambda: detector().suggest(table), 3)[0] * 1e3,
            )

        def pairs() -> float:
            # The search space the detector is asked to cover: ordered pairs of
            # integer-like columns (diff-encoding) plus ordered pairs of all
            # columns (hierarchical), over the four tables.
            total = 0
            for table in self.plan.tables.values():
                integers = sum(1 for spec in table.schema if spec.dtype.is_integer_like)
                total += integers * (integers - 1) + len(table.schema) * (len(table.schema) - 1)
            return total

        self.put("core.correlation.pairs_scored", pairs)
        correlation = "repro.core.correlation"
        self.put(
            "core.correlation.hierarchy_score_ms",
            lambda: timed(
                lambda: attr(correlation, "hierarchy_score")(
                    self.dmv.column("zip_code"), self.dmv.column("city")
                )
            )[0]
            * 1e3,
        )
        self.put(
            "core.correlation.bounded_difference_score_ms",
            lambda: timed(
                lambda: attr(correlation, "bounded_difference_score")(
                    self.lineitem.column("l_receiptdate"), self.lineitem.column("l_shipdate")
                )
            )[0]
            * 1e3,
        )

        def optimizer() -> dict[str, float]:
            opt = attr("repro.core", "DiffEncodingOptimizer")()
            build, graph = timed(lambda: opt.build_graph(self.plan.dates), 3)
            return {
                "core.optimizer.build_graph_ms": build * 1e3,
                "core.optimizer.optimize_graph_ms": timed(lambda: opt.optimize_graph(graph))[0]
                * 1e3,
            }

        self.group(("core.optimizer.build_graph_ms", "core.optimizer.optimize_graph_ms"), optimizer)

        def mining() -> dict[str, float]:
            mine = attr("repro.core.rule_mining", "mine_multi_reference_config")
            seconds, (_, result) = timed(lambda: mine(self.plan.taxi, "total_amount"), 3)
            return {
                "core.rule_mining.mine_ms": seconds * 1e3,
                "core.rule_mining.explained_frac": result.explained_fraction,
            }

        self.group(("core.rule_mining.mine_ms", "core.rule_mining.explained_frac"), mining)

    # -- core: encoding, and the paper's numbers ----------------------------------------

    def _core_encoding(self) -> None:
        def compress() -> float:
            seconds = rows = 0.0
            for label, table in self.load.tables.items():
                compressor = w.TableCompressor(
                    self.load.plans[label], block_size=self.scale.load_block
                )
                seconds += timed(lambda: compressor.compress(table), 3)[0]
                rows += table.n_rows
            return rows / seconds

        self.put("core.plan.compress_rows_per_s", compress)

        single = attr("repro.encodings", "BestOfSelector")()
        positions = np.sort(
            self.plan.rng.choice(self.lineitem.n_rows, self.lineitem.n_rows // 10, replace=False)
        )

        def saving(encoded: Any, table: Any, column: str) -> float:
            best = single.select(table.column(column), table.dtype(column)).size_bytes
            return 1.0 - encoded.size_bytes / best

        def horizontal(
            prefix: str,
            encode: Callable[[], Any],
            references: dict[str, Any],
            table: Any,
            column: str,
        ) -> dict[str, float]:
            raw = table.uncompressed_size(column)
            seconds, encoded = timed(encode, 3)
            at = positions[positions < table.n_rows]
            picked = {
                name: [values[i] for i in at] if isinstance(values, list) else values[at]
                for name, values in references.items()
            }
            out = {
                f"core.{prefix}.encode_mb_per_s": raw / seconds / MB,
                f"core.{prefix}.decode_mb_per_s": raw
                / timed(lambda: encoded.decode_with_reference(references), 3)[0]
                / MB,
                f"core.{prefix}.gather_mrows_per_s": at.size
                / timed(lambda: encoded.gather_with_reference(at, picked))[0]
                / 1e6,
                f"core.{prefix}.saving.{column}": saving(encoded, table, column),
            }
            self.notes[f"core.{prefix}.encoded"] = encoded
            return out

        def names(prefix: str, column: str) -> tuple[str, ...]:
            return (
                f"core.{prefix}.encode_mb_per_s",
                f"core.{prefix}.decode_mb_per_s",
                f"core.{prefix}.gather_mrows_per_s",
                f"core.{prefix}.saving.{column}",
            )

        core = "repro.core"
        li, tx, dmv, msg = self.lineitem, self.taxi, self.dmv, self.message
        self.group(
            names("diff_encoding", "l_receiptdate"),
            lambda: horizontal(
                "diff_encoding",
                lambda: attr(core, "NonHierarchicalEncoding")().encode(
                    li.column("l_receiptdate"), li.column("l_shipdate"), "l_shipdate"
                ),
                {"l_shipdate": li.column("l_shipdate")},
                li,
                "l_receiptdate",
            ),
        )
        self.group(
            names("hierarchical", "ip"),
            lambda: horizontal(
                "hierarchical",
                lambda: attr(core, "HierarchicalEncoding")().encode(
                    msg.column("ip"), msg.column("countryid"), "countryid"
                ),
                {"countryid": msg.column("countryid")},
                msg,
                "ip",
            ),
        )
        config = w.taxi_multi_reference_config()
        references = {name: tx.column(name) for name in config.reference_columns}
        self.group(
            names("multi_reference", "total_amount"),
            lambda: horizontal(
                "multi_reference",
                lambda: attr(core, "MultiReferenceEncoding")(config).encode(
                    tx.column("total_amount"), references
                ),
                references,
                tx,
                "total_amount",
            ),
        )
        self.put(
            "core.outliers.outlier_frac",
            lambda: self.notes["core.multi_reference.encoded"].outliers.fraction_of(tx.n_rows),
        )
        for prefix, table, column, reference in (
            ("diff_encoding", li, "l_commitdate", "l_shipdate"),
            ("diff_encoding", tx, "dropoff", "pickup"),
        ):
            self.put(
                f"core.{prefix}.saving.{column}",
                lambda table=table, column=column, reference=reference: saving(
                    attr(core, "NonHierarchicalEncoding")().encode(
                        table.column(column), table.column(reference), reference
                    ),
                    table,
                    column,
                ),
            )
        self.put(
            "core.hierarchical.saving.zip_code",
            lambda: saving(
                attr(core, "HierarchicalEncoding")().encode(
                    dmv.column("zip_code"), dmv.column("city"), "city"
                ),
                dmv,
                "zip_code",
            ),
        )
        # Fig. 5 / Fig. 8: materialise the diff-encoded column alone at
        # selectivity 0.01; Corra relation over single-column relation.
        def ratio(label: str, column: str) -> float:
            table = self.mat.tables[label]
            baseline = w.SingleColumnBaseline(block_size=table.n_rows).compress(table)
            vectors = self.mat.vectors[(label, 0.01)]

            def p50(relation: Any) -> float:
                samples = []
                for _ in range(5):
                    for vector in vectors:
                        started = time.perf_counter()
                        w.materialize_columns(relation, [column], vector)
                        samples.append(time.perf_counter() - started)
                return statistics.median(samples)

            corra = p50(self.mat.relations[label])
            self.notes[f"materialize_p50_ms.{label}"] = corra * 1e3
            return corra / p50(baseline)

        self.put("core.diff_encoding.latency_ratio", lambda: ratio("dates", "l_receiptdate"))
        self.put("core.hierarchical.latency_ratio", lambda: ratio("message", "ip"))
        self.put("core.multi_reference.latency_ratio", lambda: ratio("taxi", "total_amount"))
        self.put(
            "query.scan.materialize_ms", lambda: self.notes["materialize_p50_ms.dates"]
        )

    # -- storage: serialization and the file format ----------------------------------------

    def _storage_files(self) -> None:
        table = self.lineitem
        relation = w.TableCompressor(
            self.load.plans["lineitem"], block_size=self.scale.load_block
        ).compress(table)
        block = relation.block(0)
        path = self.out_dir / "probe.corra"

        def serialization() -> dict[str, float]:
            storage = importlib.import_module("repro.storage")
            seconds, data = timed(lambda: storage.serialize_block(block))
            return {
                "storage.serialization.serialize_mb_per_s": len(data) / seconds / MB,
                "storage.serialization.deserialize_mb_per_s": len(data)
                / timed(lambda: storage.deserialize_block(data))[0]
                / MB,
            }

        self.group(
            (
                "storage.serialization.serialize_mb_per_s",
                "storage.serialization.deserialize_mb_per_s",
            ),
            serialization,
        )

        def files() -> dict[str, float]:
            storage = importlib.import_module("repro.storage")
            write = timed(lambda: storage.write_table(path, relation), 3)[0]
            file_bytes = os.path.getsize(path)

            def open_close() -> None:
                storage.TableReader(path).close()

            opened = timed(open_close)[0]
            with storage.TableReader(path) as reader:
                column = "l_receiptdate"
                read_bytes = sum(
                    reader.column_segment(i, column).length for i in range(reader.n_blocks)
                )
                read = timed(
                    lambda: [reader.read_column(i, column) for i in range(reader.n_blocks)]
                )[0]
            return {
                "storage.format.write_mb_per_s": file_bytes / write / MB,
                "storage.format.open_ms": opened * 1e3,
                "storage.format.read_column_mb_per_s": read_bytes / read / MB,
                "storage.format.file_bytes_per_relation_byte": file_bytes / relation.size_bytes,
            }

        self.group(tuple(n for n in per_layer_names() if n.startswith("storage.format.")), files)
        path.unlink(missing_ok=True)

        vector = self.mat.vectors[("dates", 0.01)][0]
        dates = self.mat.tables["dates"]
        many_blocks = w.TableCompressor(
            w.paper_plan("lineitem", dates.schema), block_size=max(dates.n_rows // 16, 1)
        ).compress(dates)
        self.put(
            "storage.relation.locate_ms",
            lambda: timed(lambda: many_blocks.locate(vector.row_ids))[0] * 1e3,
        )

        def hit() -> float:
            cache = attr("repro.storage", "BlockCache")(1 << 20)
            key = (1, 0, "column")
            cache.get_or_load(key, lambda: (block, 1024))
            samples = []
            for _ in range(2000):
                started = time.perf_counter()
                cache.get_or_load(key, lambda: (block, 1024))
                samples.append(time.perf_counter() - started)
            return median_us(samples)

        self.put("storage.cache.hit_us", hit)

    # -- the small query workloads: counters and spans --------------------------------------

    def _scan(self) -> None:
        counters = (
            "storage.cache.hit_rate",
            "storage.cache.evictions_per_op",
            "storage.disk.bytes_read_per_op",
            "storage.disk.columns_skipped_frac",
            "storage.disk.prefetch_hit_rate",
            "storage.disk.reads_coalesced_per_op",
            "storage.statistics.blocks_pruned_frac",
            "query.scan.rows_decoded_per_op",
            "query.kernels.kernel_declines_per_op",
            "query.kernels.rows_kernel_evaluated_frac",
            "query.tracing.overhead_frac",
            *(n for n in per_layer_names() if n.startswith("query.tracing.stage.")),
        )
        scan = w.ScanCold(self.seed, self.scale, self.out_dir)

        def traced() -> dict[str, float]:
            scan.setup()
            cycles = 2 * self.scale.windows
            scan.measure(cycles=self.scale.windows)  # reach the cache's steady state
            stats = scan.engine.cache_stats
            before = (stats.hits, stats.misses, stats.evictions)
            for relation in scan.relations.values():
                relation.io.reset()
            m = scan.measure(cycles=cycles, rec=SpanRecorder())
            ops = m.attempted
            hits, misses, evictions = (
                after - start
                for after, start in zip((stats.hits, stats.misses, stats.evictions), before)
            )
            io = [relation.io for relation in scan.relations.values()]
            segments = sum(
                relation.n_blocks * len(relation.schema.names)
                for relation in scan.relations.values()
            )
            issued = sum(x.prefetch_issued for x in io)
            totals = scan.scan_totals
            kernel_rows = (
                totals["rows_dict_evaluated"]
                + totals["rows_rle_evaluated"]
                + totals["rows_for_evaluated"]
            )
            out = {
                "storage.cache.hit_rate": hits / max(hits + misses, 1),
                "storage.cache.evictions_per_op": evictions / ops,
                "storage.disk.bytes_read_per_op": sum(x.bytes_read for x in io) / ops,
                "storage.disk.columns_skipped_frac": sum(x.columns_skipped for x in io) / segments,
                "storage.disk.prefetch_hit_rate": sum(x.prefetch_hits for x in io) / max(issued, 1),
                "storage.disk.reads_coalesced_per_op": sum(x.reads_coalesced for x in io) / ops,
                "storage.statistics.blocks_pruned_frac": totals["blocks_pruned"]
                / max(totals["n_blocks"], 1),
                "query.scan.rows_decoded_per_op": totals["rows_decoded"] / ops,
                "query.kernels.kernel_declines_per_op": totals["kernel_declines"] / ops,
                "query.kernels.rows_kernel_evaluated_frac": kernel_rows
                / max(kernel_rows + totals["rows_decoded"], 1),
            }
            for stage in ("plan", "fetch", "io", "predicate", "gather", "aggregate"):
                out[f"query.tracing.stage.{stage}_ms"] = (
                    scan.stage_seconds.get(stage, 0.0) / ops * 1e3
                )
            # The program's tracer on against off: same ops, same spans of
            # ours around them.
            scan.program_tracing = False
            off = scan.measure(cycles=cycles, rec=SpanRecorder())
            out["query.tracing.overhead_frac"] = sum(m.durations) / sum(off.durations) - 1.0
            return out

        def one_block() -> tuple[Any, Any]:
            """The middle block of lineitem and a predicate half its rows pass."""
            relation = scan.relations["lineitem"]
            index = relation.n_blocks // 2
            block = relation.block(index).load()
            start = index * scan.fixture.block_size
            ship = scan.fixture.tables["lineitem"].column("l_shipdate")
            return block, w.Between(
                "l_shipdate",
                int(ship[start + block.n_rows // 4]),
                int(ship[start + 3 * block.n_rows // 4]),
            )

        def kernel_ms() -> float:
            block, predicate = one_block()
            kernels = attr("repro.query.kernels", "DEFAULT_KERNELS")
            return timed(lambda: kernels.predicate_mask(block, "l_shipdate", predicate))[0] * 1e3

        def decode_ms() -> float:
            block, predicate = one_block()
            return (
                timed(
                    lambda: predicate.evaluate({"l_shipdate": block.decode_column("l_shipdate")})
                )[0]
                * 1e3
            )

        try:
            self.group(counters, traced)
            # One block, one predicate: word-space kernel against decode.
            self.put("query.kernels.predicate_mask_ms", kernel_ms)
            self.put("query.scan.predicate_decode_ms", decode_ms)
        finally:
            scan.teardown()

    def _lookup(self) -> None:
        names = (
            "query.plan.build_us",
            "query.plan.compile_us",
            "query.plan.fingerprint_us",
            "query.plan.execute_us",
            "query.engine.compiler_for_us",
            "query.scan.planner_plan_us",
        )

        def probes() -> dict[str, float]:
            lookup = w.LookupWarm(self.seed, self.scale, self.out_dir)
            lookup.setup()
            try:
                lookup.program_tracing = False
                rec = SpanRecorder()
                lookup.measure(cycles=12 * self.scale.windows, rec=rec)
                out = {
                    f"query.{span}_us": median_us(rec.durations(f"query.{span}"))
                    for span in ("plan.build", "plan.compile", "plan.execute", "engine.compiler_for")
                }
                relation = lookup.relations["lineitem"]
                compiler = lookup.engine.compiler_for(relation)
                fingerprints, plans = [], []
                for i in range(12 * self.scale.windows):
                    predicate = w.Eq("l_orderkey", lookup.keys[10_000 + i])
                    logical = lookup.engine.query(relation).where(predicate).logical_plan()
                    compiled = compiler.compile(logical)
                    started = time.perf_counter()
                    compiled.fingerprint()
                    fingerprints.append(time.perf_counter() - started)
                    started = time.perf_counter()
                    compiler.planner.plan(predicate)
                    plans.append(time.perf_counter() - started)
                out["query.plan.fingerprint_us"] = median_us(fingerprints)
                out["query.scan.planner_plan_us"] = median_us(plans)
                return out
            finally:
                lookup.teardown()

        self.group(names, probes)

    def _parallel(self) -> None:
        table = self.mat.tables["dates"]
        relation = w.TableCompressor(
            w.paper_plan("lineitem", table.schema), block_size=max(table.n_rows // 16, 1)
        ).compress(table)
        low = int(np.asarray(table.column("l_receiptdate")).min())
        predicate = w.Between("l_receiptdate", low + 100, low + 1_000)

        def scan_ms(workers: int) -> float:
            with w.Engine(w.EngineConfig(workers=workers)) as engine:
                query = engine.query(relation).where(predicate).agg(n=w.Count())
                query.execute()
                return timed(query.execute, 7)[0] * 1e3

        self.put("query.parallel.scan_ms_w1", lambda: scan_ms(1))
        self.put("query.parallel.scan_ms_w2", lambda: scan_ms(2))

    # -- server ------------------------------------------------------------------------

    def _server(self) -> None:
        names = tuple(n for n in per_layer_names() if n.startswith("server."))

        def probes() -> dict[str, float]:
            serve = w.ServeMix(self.seed, self.scale, self.out_dir)
            serve.setup()
            try:
                m = serve.measure(cycles=2 * self.scale.windows)
                client = sorted(m.durations)
                metrics = serve.get("/metrics")
                payloads = [op.args for op, _ in serve.replies]
            finally:
                serve.stop_server()
            try:
                admission = metrics["stages"].get("admission", {"count": 0, "sum_seconds": 0.0})
                total = max(metrics["queries_total"], 1)
                rejected = (
                    metrics["rejected_queue_full"] + metrics["rejected_cost"] + metrics["timeouts"]
                )
                out = {
                    "server.service.result_cache_hit_rate": metrics["result_cache"]["hit_rate"],
                    "server.service.admission_wait_us": admission["sum_seconds"]
                    / max(admission["count"], 1)
                    * 1e6,
                    "server.service.rejected_per_op": rejected / total,
                    "server.http.p99_ms": client[min(int(len(client) * 0.99), len(client) - 1)]
                    * 1e3,
                    "server.metrics.p50_ms": metrics["latency"]["p50_seconds"] * 1e3,
                }
                out.update(self._replay(serve, payloads))
                out["server.http.overhead_us"] = (
                    statistics.median(client) * 1e6 - out["server.service.execute_us"]
                )
                return out
            finally:
                serve.teardown()

        self.group(names, probes)

    def _replay(self, serve: Any, payloads: list[dict]) -> dict[str, float]:
        """The same payloads through the server's layers, in process."""
        server = importlib.import_module("repro.server")
        protocol = importlib.import_module("repro.server.protocol")
        spans: dict[str, list[float]] = {"parse": [], "build": [], "encode": [], "execute": []}

        def clock(name: str, fn: Callable[[], Any]) -> Any:
            started = time.perf_counter()
            out = fn()
            spans[name].append(time.perf_counter() - started)
            return out

        config = w.EngineConfig(workers=1)
        with server.QueryService(serve.fixture.root, engine_config=config) as service:
            engine = service.engine
            for payload in payloads:
                clock("execute", lambda: service.execute(payload))
            for payload in payloads:
                request = clock("parse", lambda: protocol.parse_request(payload))
                relation = engine.table(request.table)
                lazy = clock(
                    "build", lambda: protocol.build_query(engine.query(relation), request)
                )
                result = lazy.execute()
                clock("encode", lambda: protocol.encode_result(result))
        return {
            "server.protocol.parse_us": median_us(spans["parse"]),
            "server.protocol.build_us": median_us(spans["build"]),
            "server.protocol.encode_us": median_us(spans["encode"]),
            "server.service.execute_us": median_us(spans["execute"]),
        }
