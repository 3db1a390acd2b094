"""Command-line interface for the Corra reproduction.

Six subcommands cover the workflows a downstream user needs without writing
Python:

``datasets``
    List the synthetic datasets or export one as CSV.
``compress``
    Generate a dataset, apply a compression plan (vertical baseline,
    hand-picked horizontal encodings, or fully automatic detection), and print
    per-column sizes and saving rates.  ``--output table.corra`` additionally
    persists the compressed relation as a single-file table
    (:mod:`repro.storage.format`); ``--catalog DIR`` registers it in a
    catalog directory under the dataset name.
``detect``
    Print the ranked correlation suggestions for a dataset.
``query``
    Run a query through the lazy plan API — over a freshly compressed
    dataset, or *out of core* over a ``.corra`` file (pass its path, or a
    table name with ``--catalog``): segments are then fetched lazily through
    a byte-budgeted cache (``--cache-bytes``) — column-granular on format-v3
    tables, with the next surviving block's columns prefetched by a
    read-ahead pool (``--no-prefetch`` disables it for A/B runs) — and the
    I/O metrics printed alongside the scan metrics report column bytes read
    vs. the block bytes they avoided, the cache hit rate, and prefetch hits.
    A structured predicate prints the matching row count with the
    scan-pruning metrics — including the compressed-domain kernel counters;
    ``--agg``/``--group-by`` compute (grouped)
    aggregates ({AGGREGATES}),
    ``--select``/``--limit`` materialise qualifying rows,
    ``--order-by COL[:desc]`` sorts them (with ``--limit`` the pair runs
    as a fused zone-map-driven top-k), and
    ``--explain`` renders the logical plan plus per-block decisions.
    ``--analyze`` executes under a tracer and prints per-stage wall time
    plus the span tree; ``--trace out.jsonl`` appends the executed
    query's :class:`~repro.query.tracing.QueryTrace` as one JSON line.
``serve``
    Start the HTTP query service (:mod:`repro.server`) over a catalog
    directory: every request runs through one shared
    :class:`~repro.query.engine.Engine` (one block cache, one worker pool,
    warm planner memos), behind bounded admission, per-query cost limits
    and a fingerprint-keyed result cache.  ``POST /query`` takes the JSON
    query shape of :func:`repro.server.protocol.parse_request`;
    ``GET /metrics`` reports latency percentiles and cache/scan counters
    (``?format=prometheus`` serves the text exposition format with
    per-stage latency histograms).
``check``
    Run the project-invariant static analyzer (:mod:`repro.analysis`).

Invoke as ``python -m repro.cli <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from .baselines import SingleColumnBaseline
from .core import CompressionPlan, CorrelationDetector, TableCompressor
from .core.rule_mining import mine_multi_reference_config
from .datasets import available_datasets, dataset_by_name
from .errors import CorraError
from .query import Engine, EngineConfig, Plan, resolve_workers
from .query.aggregates import AGGREGATES
from .query.tracing import QueryTrace, Tracer
from .storage import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CACHE_BYTES,
    DEFAULT_PREFETCH_WORKERS,
    Catalog,
    DiskRelation,
    write_table,
)
from .storage.catalog import TABLE_SUFFIX

__all__ = ["main", "build_parser"]

# The aggregate function list of the ``query`` section above comes from the
# one mapping that also drives ``--agg`` parsing and its help text.
if __doc__:
    __doc__ = __doc__.replace("{AGGREGATES}", "/".join(f"``{name}``" for name in AGGREGATES))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as a fixed-width text table with a header rule."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for row_index, row in enumerate(cells):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if row_index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="corra",
        description="Corra: correlation-aware column compression (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser(
        "datasets", help="list the synthetic datasets or export one as CSV"
    )
    datasets.add_argument("name", nargs="?", help="dataset to export (omit to list)")
    datasets.add_argument("--rows", type=int, default=None, help="rows to generate")
    datasets.add_argument("--seed", type=int, default=42)
    datasets.add_argument("--output", default="-", help="CSV output path (default stdout)")
    datasets.add_argument(
        "--limit", type=int, default=20, help="rows to write when exporting to stdout"
    )

    compress = subparsers.add_parser(
        "compress", help="compress a dataset and report per-column sizes"
    )
    compress.add_argument("name", help="dataset name (see `datasets`)")
    compress.add_argument("--rows", type=int, default=None)
    compress.add_argument("--seed", type=int, default=42)
    compress.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    compress.add_argument(
        "--plan",
        choices=("baseline", "auto"),
        default="auto",
        help="'baseline' = best single-column scheme per column; "
        "'auto' = correlation detection + mined horizontal encodings",
    )
    compress.add_argument(
        "--diff-encode",
        action="append",
        default=[],
        metavar="TARGET:REFERENCE",
        help="add an explicit non-hierarchical encoding (may be repeated)",
    )
    compress.add_argument(
        "--hierarchical",
        action="append",
        default=[],
        metavar="TARGET:REFERENCE",
        help="add an explicit hierarchical encoding (may be repeated)",
    )
    compress.add_argument(
        "--mine-rules-for",
        default=None,
        metavar="TARGET",
        help="mine a multi-reference configuration for TARGET and use it",
    )
    compress.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads for block compression (0 = one per core; default 1)",
    )
    compress.add_argument(
        "--output",
        default=None,
        metavar="TABLE.corra",
        help="also persist the compressed relation as a single-file table",
    )
    compress.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="also register the table in a catalog directory under the "
        "dataset name (combine with `query --catalog`)",
    )

    detect = subparsers.add_parser(
        "detect", help="print ranked correlation suggestions for a dataset"
    )
    detect.add_argument("name", help="dataset name (see `datasets`)")
    detect.add_argument("--rows", type=int, default=None)
    detect.add_argument("--seed", type=int, default=42)
    detect.add_argument("--min-saving-rate", type=float, default=0.05)
    detect.add_argument("--top", type=int, default=15, help="suggestions to print")

    query = subparsers.add_parser(
        "query",
        help="run a structured predicate over a compressed dataset or a .corra table file",
    )
    query.add_argument(
        "name",
        help="dataset name (see `datasets`), a path to a .corra table file, "
        "or a catalogued table name when --catalog is given",
    )
    query.add_argument("--rows", type=int, default=None)
    query.add_argument("--seed", type=int, default=42)
    query.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    query.add_argument(
        "--plan",
        choices=("baseline", "auto"),
        default="auto",
        help="compression plan used before querying (see `compress`)",
    )
    query.add_argument(
        "--equals",
        action="append",
        default=[],
        metavar="COLUMN:VALUE",
        help="add an equality predicate (may be repeated; ANDed together)",
    )
    query.add_argument(
        "--between",
        action="append",
        default=[],
        metavar="COLUMN:LOW:HIGH",
        help="add an inclusive range predicate; leave LOW or HIGH empty for "
        "an open-ended range (may be repeated; ANDed together)",
    )
    query.add_argument(
        "--in",
        dest="is_in",
        action="append",
        default=[],
        metavar="COLUMN:V1,V2,...",
        help="add a membership predicate (may be repeated; ANDed together)",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads of the engine's worker pool, which runs the query's "
        "per-block tasks, and for block compression (0 = one per core; default 1 = serial)",
    )
    query.add_argument(
        "--select",
        default=None,
        metavar="COL1,COL2,...",
        help="materialise and print the named columns of the qualifying rows "
        "(combine with --limit to bound the output)",
    )
    query.add_argument(
        "--agg",
        action="append",
        default=[],
        metavar="NAME:FUNC[:COLUMN]",
        help="add a named aggregate output, e.g. n:count, total:sum:fare, "
        f"v:var:tip (may be repeated; FUNC is {'/'.join(AGGREGATES)})",
    )
    query.add_argument(
        "--group-by",
        default=None,
        metavar="COL1,COL2,...",
        help="group the aggregates by the named columns",
    )
    query.add_argument(
        "--order-by",
        default=None,
        metavar="COLUMN[:desc]",
        help="sort the --select output by COLUMN (append ':desc' for "
        "descending); with --limit the pair runs as a fused top-k that "
        "skips blocks whose zone-map bounds cannot reach the result",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N output rows (applied before materialisation for --select)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the logical plan and the per-block prune/full/scan "
        "decisions before executing",
    )
    query.add_argument(
        "--analyze",
        action="store_true",
        help="run the query under a tracer first and print the per-stage "
        "wall time, rows and bytes plus the span tree (implies --explain)",
    )
    query.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="execute under a tracer and append the span tree as one JSON "
        "line to PATH ('-' prints the line to stdout)",
    )
    query.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="resolve the table name through a catalog directory of .corra "
        "files (see `compress --catalog`)",
    )
    query.add_argument(
        "--cache-bytes",
        type=int,
        default=DEFAULT_CACHE_BYTES,
        metavar="N",
        help=f"block-cache budget in bytes for out-of-core tables (default {DEFAULT_CACHE_BYTES})",
    )
    query.add_argument(
        "--no-prefetch",
        action="store_true",
        help="disable the read-ahead pool for out-of-core tables (every "
        "segment fetch becomes demand-driven; for A/B comparison)",
    )

    serve = subparsers.add_parser(
        "serve", help="start the HTTP query service over a catalog directory"
    )
    serve.add_argument(
        "catalog", help="catalog directory of .corra tables (see `compress --catalog`)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8265)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads of the engine's worker pool, shared by every request's "
        "per-block tasks (0 = one per core; default 1 = serial)",
    )
    serve.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES, metavar="N")
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="queries executing at once (more wait in the admission queue)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admitted-but-waiting queries before requests are rejected with 429",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="wall-clock budget per query, queue wait included (504 when exceeded)",
    )
    serve.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="reject plans whose scan-classified blocks hold more than N rows (413)",
    )
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="reject plans whose scan-classified blocks span more than N bytes (413)",
    )
    serve.add_argument(
        "--result-cache-entries",
        type=int,
        default=256,
        metavar="N",
        help="result-cache capacity in entries (0 disables the cache)",
    )

    check = subparsers.add_parser(
        "check",
        help="run the project-invariant static analyzer (see repro.analysis)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    check.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    check.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule names to skip",
    )
    check.add_argument(
        "--list-rules", action="store_true", help="print the registered rules and exit"
    )

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.name is None:
        rows = [
            (name, f"{generator.paper_rows:,}", generator.default_rows)
            for name, generator in sorted(available_datasets().items())
        ]
        print(format_table(("dataset", "paper rows", "default rows"), rows))
        return 0

    generator = dataset_by_name(args.name)
    table = generator.generate(args.rows, seed=args.seed)
    if args.output == "-":
        writer = csv.writer(sys.stdout)
        limit = min(args.limit, table.n_rows)
    else:
        handle = open(args.output, "w", newline="")
        writer = csv.writer(handle)
        limit = table.n_rows
    writer.writerow(table.column_names)
    columns = [table.column(name) for name in table.column_names]
    for i in range(limit):
        writer.writerow([column[i] for column in columns])
    if args.output != "-":
        handle.close()
        print(f"wrote {limit:,} rows to {args.output}")
    return 0


def _parse_pair(spec: str) -> tuple[str, str]:
    if ":" not in spec:
        raise CorraError(
            f"expected TARGET:REFERENCE, got {spec!r}"
        )
    target, reference = spec.split(":", 1)
    return target, reference


def _build_plan(args: argparse.Namespace, table) -> CompressionPlan:
    explicit = args.diff_encode or args.hierarchical or args.mine_rules_for
    if args.plan == "baseline" and not explicit:
        return CompressionPlan.vertical_only(table.schema)

    if explicit:
        builder = CompressionPlan.builder(table.schema)
        for spec in args.diff_encode:
            target, reference = _parse_pair(spec)
            builder.diff_encode(target, reference)
        for spec in args.hierarchical:
            target, reference = _parse_pair(spec)
            builder.hierarchical_encode(target, reference)
        if args.mine_rules_for:
            config, result = mine_multi_reference_config(table, args.mine_rules_for)
            print("mined multi-reference configuration:")
            print("  " + result.describe().replace("\n", "\n  "))
            builder.multi_reference_encode(args.mine_rules_for, config)
        return builder.build()

    suggestions = CorrelationDetector().suggest(table)
    return CompressionPlan.from_suggestions(table.schema, suggestions)


def _cmd_compress(args: argparse.Namespace) -> int:
    generator = dataset_by_name(args.name)
    table = generator.generate(args.rows, seed=args.seed)
    baseline = SingleColumnBaseline().report(table)
    plan = _build_plan(args, table)

    compressor = TableCompressor(
        plan, block_size=args.block_size, workers=args.workers
    )
    relation = compressor.compress(table)

    rows = []
    for name in table.column_names:
        corra = relation.column_size(name)
        base = baseline.size_of(name)
        saving = 1 - corra / base
        column_plan = plan.column_plan(name)
        encoding = column_plan.encoding
        if column_plan.is_horizontal:
            encoding += f" ({', '.join(column_plan.references)})"
        rows.append((name, f"{base:,}", f"{corra:,}", f"{saving:.1%}", encoding))
    print(format_table(("column", "baseline bytes", "corra bytes", "saving", "encoding"), rows))
    total_saving = 1 - relation.size_bytes / max(baseline.total_size, 1)
    print(
        f"\ntotal: {baseline.total_size:,} -> {relation.size_bytes:,} bytes "
        f"({total_saving:.1%} saving), {relation.n_blocks} block(s) of "
        f"{args.block_size:,} tuples"
    )
    if args.output:
        footer = write_table(args.output, relation)
        print(
            f"wrote {footer.n_blocks} block(s) / {footer.data_bytes:,} data "
            f"bytes to {args.output} (format v{footer.version})"
        )
    if args.catalog:
        footer = Catalog(args.catalog).save(args.name, relation, overwrite=True)
        print(
            f"catalogued {args.name!r} in {args.catalog} "
            f"({footer.n_blocks} block(s), format v{footer.version})"
        )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    generator = dataset_by_name(args.name)
    table = generator.generate(args.rows, seed=args.seed)
    detector = CorrelationDetector(min_saving_rate=args.min_saving_rate)
    suggestions = detector.suggest(table)
    if not suggestions:
        print("no exploitable correlations found")
        return 0
    rows = [
        (
            s.target,
            s.kind,
            ", ".join(s.references),
            f"{s.estimated_saving_rate:.1%}",
            f"{s.estimated_saving_bytes:,}",
            s.detail,
        )
        for s in suggestions[: args.top]
    ]
    print(
        format_table(("target", "encoding", "references", "saving", "bytes saved", "detail"), rows)
    )
    return 0


def _request_body(args: argparse.Namespace) -> dict:
    """The query flags as the JSON plan the query service reads.

    ``corra query`` and ``POST /query`` share one grammar and one
    validation (:meth:`~repro.query.plan.Plan.from_json`); only the flag
    spellings are parsed here.  An operand that parses as an integer
    compares as one.
    """

    def operand(text: str) -> "int | str":
        try:
            return int(text)
        except ValueError:
            return text

    nodes: list[dict] = []
    for spec in args.equals:
        column, _, value = spec.partition(":")
        if not value:
            raise CorraError(f"expected COLUMN:VALUE, got {spec!r}")
        nodes.append({"op": "eq", "column": column, "value": operand(value)})
    for spec in args.between:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CorraError(f"expected COLUMN:LOW:HIGH, got {spec!r}")
        column, low, high = parts
        nodes.append({
            "op": "between",
            "column": column,
            "lo": operand(low) if low else None,
            "hi": operand(high) if high else None,
        })
    for spec in args.is_in:
        column, _, values = spec.partition(":")
        if not values:
            raise CorraError(f"expected COLUMN:V1,V2,..., got {spec!r}")
        candidates = [operand(v) for v in values.split(",")]
        nodes.append({"op": "in", "column": column, "values": candidates})
    body: dict = {}
    if nodes:
        body["where"] = nodes[0] if len(nodes) == 1 else {"op": "and", "children": nodes}
    aggregates: dict[str, dict] = {}
    for spec in args.agg:
        parts = spec.split(":")
        if len(parts) not in (2, 3) or not all(parts):
            raise CorraError(f"expected NAME:FUNC[:COLUMN], got {spec!r}")
        if parts[0] in aggregates:
            raise CorraError(f"duplicate aggregate output name {parts[0]!r}")
        aggregates[parts[0]] = {"fn": parts[1].lower()}
        if len(parts) == 3:
            aggregates[parts[0]]["column"] = parts[2]
    if aggregates:
        body["aggregates"] = aggregates
    if args.group_by:
        body["group_by"] = args.group_by.split(",")
    if args.select:
        body["select"] = args.select.split(",")
    if args.order_by is not None:
        column, _, suffix = args.order_by.partition(":")
        if not column or suffix not in ("", "desc"):
            raise CorraError(f"expected COLUMN or COLUMN:desc, got {args.order_by!r}")
        body["order_by"] = {"column": column, "desc": suffix == "desc"}
    if args.limit is not None:
        body["limit"] = args.limit
    return body


def _print_metrics(metrics, workers: int) -> None:
    rows = [
        ("blocks", f"{metrics.n_blocks:,}"),
        ("blocks scanned", f"{metrics.blocks_scanned:,}"),
        ("blocks pruned", f"{metrics.blocks_pruned:,}"),
        ("blocks fully covered", f"{metrics.blocks_full:,}"),
        ("rows total", f"{metrics.rows_total:,}"),
        ("rows matched", f"{metrics.rows_matched:,}"),
        ("rows decoded", f"{metrics.rows_decoded:,}"),
        ("decoded fraction", f"{metrics.decoded_fraction:.2%}"),
        ("rows gathered", f"{metrics.rows_gathered:,}"),
        ("rows dict-evaluated", f"{metrics.rows_dict_evaluated:,}"),
        ("rows for-evaluated", f"{metrics.rows_for_evaluated:,}"),
        ("rows kernel-aggregated", f"{metrics.rows_kernel_aggregated:,}"),
        ("kernel declines", f"{metrics.kernel_declines:,}"),
        ("scan workers", f"{workers:,}"),
    ]
    print(format_table(("scan metric", "value"), rows))


def _print_io_metrics(relation: DiskRelation) -> None:
    io, cache = relation.io, relation.cache_stats
    rows = [
        ("blocks read (full)", f"{io.blocks_read:,}"),
        ("column segments read", f"{io.columns_read:,}"),
        ("column segments skipped", f"{io.columns_skipped:,}"),
        ("reads coalesced", f"{io.reads_coalesced:,}"),
        ("column bytes read", f"{io.column_bytes_read:,}"),
        ("block bytes available", f"{io.column_block_bytes:,}"),
        ("total bytes read", f"{io.bytes_read:,}"),
        ("footer bytes read", f"{io.footer_bytes_read:,}"),
        ("table data bytes", f"{relation.size_bytes:,}"),
        ("cache hits", f"{cache.hits:,}"),
        ("cache misses", f"{cache.misses:,}"),
        ("cache hit rate", f"{cache.hit_rate:.1%}"),
        ("cache evictions", f"{cache.evictions:,}"),
        ("cache resident bytes", f"{cache.current_bytes:,}"),
        ("prefetch issued", f"{io.prefetch_issued:,}"),
        ("prefetch hits", f"{io.prefetch_hits:,}"),
    ]
    print(format_table(("io metric", "value"), rows))


def _reject_generation_flags(args: argparse.Namespace, target: str) -> None:
    """Disk tables are opened as-is; generation flags would silently lie."""
    conflicting = []
    if args.rows is not None:
        conflicting.append("--rows")
    if args.seed != 42:
        conflicting.append("--seed")
    if args.block_size != DEFAULT_BLOCK_SIZE:
        conflicting.append("--block-size")
    if args.plan != "auto":
        conflicting.append("--plan")
    if conflicting:
        raise CorraError(
            f"{', '.join(conflicting)} only apply when querying a generated "
            f"dataset; {target} is opened as-is"
        )


def _load_query_relation(args: argparse.Namespace, engine: Engine):
    """The relation `corra query` runs over: compressed dataset or disk table.

    A catalogued table is opened by (and closed with) ``engine``; a table
    file shares the engine's cache but is the caller's to close.
    """
    if args.catalog is not None:
        _reject_generation_flags(args, f"catalogued table {args.name!r}")
        return engine.table(args.name)
    if args.name.endswith(TABLE_SUFFIX):
        _reject_generation_flags(args, f"table file {args.name!r}")
        return DiskRelation(
            args.name, cache=engine.cache, prefetch_workers=engine.config.prefetch_workers
        )
    generator = dataset_by_name(args.name)
    table = generator.generate(args.rows, seed=args.seed)
    if args.plan == "baseline":
        plan = CompressionPlan.vertical_only(table.schema)
    else:
        suggestions = CorrelationDetector().suggest(table)
        plan = CompressionPlan.from_suggestions(table.schema, suggestions)
    return TableCompressor(
        plan, block_size=args.block_size, workers=args.workers
    ).compress(table)


def _print_result_rows(columns: dict) -> None:
    names = tuple(columns)
    n_rows = len(next(iter(columns.values()))) if columns else 0
    cells = [
        tuple(str(columns[name][i]) for name in names) for i in range(n_rows)
    ]
    print(format_table(names, cells))


def _dump_trace(tracer: Tracer, destination: str, query_name: str) -> None:
    """Append one JSON line with the executed query's span tree."""
    trace = QueryTrace.from_tracer(tracer, query=query_name)
    line = trace.to_json_line()
    if destination == "-":
        print(line)
        return
    with open(destination, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(f"trace: {len(trace.spans)} spans appended to {destination}")


def _cmd_query(args: argparse.Namespace) -> int:
    config = EngineConfig(
        workers=args.workers,
        cache_bytes=args.cache_bytes,
        prefetch_workers=0 if args.no_prefetch else DEFAULT_PREFETCH_WORKERS,
    )
    with Engine(config, catalog=args.catalog) as engine:
        try:
            relation = _load_query_relation(args, engine)
        except OSError as error:
            raise CorraError(f"cannot open table {args.name!r}: {error}") from error
        try:
            return _run_query(args, engine, relation)
        finally:
            if args.catalog is None and isinstance(relation, DiskRelation):
                relation.close()


def _run_query(args: argparse.Namespace, engine: Engine, relation) -> int:
    body = _request_body(args)
    if args.order_by is not None and not args.select:
        raise CorraError("--order-by needs --select (ordering a bare count is a no-op)")
    if not ({"where", "aggregates", "group_by", "select"} & set(body)):
        raise CorraError(
            "no predicate given; use --equals, --between and/or --in "
            "(or aggregate the whole relation with --agg/--group-by)"
        )
    plan = Plan.from_json(body)
    lazy = engine.query(relation).with_plan(plan)
    predicate = plan.predicate
    if predicate is not None:
        print(f"query: {predicate.describe()}")

    if args.explain or args.analyze:
        print(lazy.explain(analyze=args.analyze))
        print()

    tracer = Tracer() if args.trace is not None else None
    query_name = predicate.describe() if predicate is not None else args.name
    workers = resolve_workers(args.workers)
    if plan.aggregates or plan.projection is not None:
        result = lazy.execute(tracer=tracer)
        _print_result_rows(result.columns)
        if tracer is not None:
            _dump_trace(tracer, args.trace, query_name)
        if result.metrics is not None:
            print()
            _print_metrics(result.metrics, workers)
        if isinstance(relation, DiskRelation):
            print()
            _print_io_metrics(relation)
        return 0

    count = lazy.count(tracer=tracer)
    if tracer is not None:
        _dump_trace(tracer, args.trace, query_name)
    metrics = lazy.last_metrics
    # Selectivity reflects the predicate itself; --limit may clamp the
    # reported count but not the fraction of rows that actually matched.
    matched = metrics.rows_matched
    limited = " (limited)" if count < matched else ""
    print(
        f"count: {count:,}{limited} of {relation.n_rows:,} rows "
        f"({matched / max(relation.n_rows, 1):.2%} selectivity)"
    )
    _print_metrics(metrics, workers)
    if isinstance(relation, DiskRelation):
        print()
        _print_io_metrics(relation)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the server package (asyncio front end) is only needed
    # by this subcommand.
    import asyncio

    from .server import CorraHttpServer, QueryService, ServiceConfig

    engine_config = EngineConfig(workers=args.workers, cache_bytes=args.cache_bytes)
    service_config = ServiceConfig(
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        timeout_seconds=args.timeout,
        max_rows_scanned=args.max_rows,
        max_bytes_scanned=args.max_bytes,
        result_cache_entries=args.result_cache_entries,
    )
    service = QueryService(args.catalog, engine_config=engine_config, config=service_config)
    tables = ", ".join(service.tables()) or "(none)"
    server = CorraHttpServer(service, host=args.host, port=args.port)

    def ready(host: str, port: int) -> None:
        print(f"serving catalog {args.catalog} on http://{host}:{port}", flush=True)
        print(f"tables: {tables}", flush=True)
        print("routes: GET /health /tables /metrics, POST /query", flush=True)

    try:
        with service:
            asyncio.run(server.serve(ready=ready))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """`corra check`: delegate to the analyzer's own argv contract."""
    from .analysis import main as analysis_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.list_rules:
        argv.append("--list-rules")
    return analysis_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets(args)
        if args.command == "compress":
            return _cmd_compress(args)
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "check":
            return _cmd_check(args)
    except CorraError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
