"""The tracing subsystem: parity, span-tree shape, analyze tables, exposition.

The correctness bar has two halves.  First, observation must be free of
side effects: a traced query — serial, parallel or disk-backed — must
return results bit-identical to the untraced run.  Second, the telemetry
itself must be well-formed: span trees have no orphans and children nest
inside their parents even across worker threads, the ``EXPLAIN ANALYZE``
stage table agrees with the final :class:`ScanMetrics`, the
``ServerMetrics`` snapshot is internally consistent under concurrency,
and the Prometheus exposition parses.
"""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.framework import load_project, run_rules
from repro.analysis.spans import SpanDisciplineRule
from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64
from repro.query import Between, Count, EngineConfig, Sum
from repro.query.engine import Engine
from repro.query.tracing import (
    HISTOGRAM_BUCKETS,
    TRACE_DISABLED,
    LatencyHistogram,
    QueryTrace,
    StageHistograms,
    Tracer,
    activate,
    current_tracer,
    run_adopted,
)
from repro.server.metrics import ServerMetrics, prometheus_exposition
from repro.server.service import QueryService, ServiceConfig
from repro.storage import Catalog, Table

N_ROWS = 20_000
RUN_LENGTH = 64
N_GRADES = 50


def _build_relation(seed: int = 7):
    rng = np.random.default_rng(seed)
    runs = -(-N_ROWS // RUN_LENGTH)
    grade = np.repeat(np.arange(runs, dtype=np.int64) % N_GRADES, RUN_LENGTH)[:N_ROWS]
    table = Table.from_columns(
        [
            ("grade", INT64, grade),
            ("word", INT64, rng.integers(0, 65_536, N_ROWS)),
        ]
    )
    plan = (
        CompressionPlan.builder(table.schema)
        .vertical("grade", "for_bitpack")
        .vertical("word", "for_bitpack")
        .build()
    )
    return TableCompressor(plan, block_size=2_048).compress(table)


RELATION = _build_relation()


@pytest.fixture(scope="module")
def disk_engine(tmp_path_factory):
    root = tmp_path_factory.mktemp("tracing") / "cat"
    Catalog(root).save("grades", _build_relation())
    with Engine(EngineConfig(workers=4), catalog=root) as engine:
        yield engine


def _assert_identical(traced, untraced):
    assert traced.n_rows == untraced.n_rows
    assert set(traced.columns) == set(untraced.columns)
    for name in traced.columns:
        assert np.array_equal(
            np.asarray(traced.columns[name]), np.asarray(untraced.columns[name])
        )


class TestSpanMechanics:
    def test_disabled_tracer_is_the_shared_noop(self):
        # One global null span for every call: the disabled hot path
        # allocates nothing.
        assert current_tracer() is TRACE_DISABLED
        assert TRACE_DISABLED.span("a") is TRACE_DISABLED.span("b", rows=1)
        assert TRACE_DISABLED.current() is None
        TRACE_DISABLED.annotate(rows=1)  # no-op, must not raise
        assert TRACE_DISABLED.spans() == ()

    def test_nesting_parents_and_intervals(self):
        tracer = Tracer()
        with activate(tracer):
            with tracer.span("outer") as outer:
                with tracer.span("inner", rows=3) as inner:
                    tracer.annotate(bytes=9)
        spans = {span.name: span for span in tracer.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].attrs == {"rows": 3, "bytes": 9}
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert current_tracer() is TRACE_DISABLED  # activation restored

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.name == "doomed" and span.end >= span.start
        assert tracer.current() is None  # the stack did not leak

    def test_adopt_parents_worker_spans(self):
        tracer = Tracer()
        with activate(tracer):
            with tracer.span("root") as root:

                def worker(item):
                    with current_tracer().span("child", item=item):
                        pass
                    return item

                thread = threading.Thread(
                    target=run_adopted, args=(tracer, root, worker, 1)
                )
                thread.start()
                thread.join()
        spans = {span.name: span for span in tracer.spans()}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["child"].thread != spans["root"].thread


class TestTracedQueryParity:
    """Tracing on vs off is bit-identical, in memory and out of core."""

    @given(lo=st.integers(0, N_GRADES - 1), span=st.integers(0, N_GRADES))
    @settings(max_examples=15, deadline=None)
    def test_in_memory_serial_and_parallel(self, lo, span):
        for workers in (1, 4):
            with Engine(EngineConfig(workers=workers)) as engine:
                lazy = (
                    engine.query(RELATION)
                    .where(Between("grade", lo, lo + span))
                    .agg(n=Count(), s=Sum("word"))
                )
                untraced = lazy.execute()
                traced = lazy.execute(tracer=Tracer())
            _assert_identical(traced, untraced)

    @given(lo=st.integers(0, N_GRADES - 1), span=st.integers(0, N_GRADES))
    @settings(max_examples=10, deadline=None)
    def test_disk_backed(self, disk_engine, lo, span):
        lazy = (
            disk_engine.query(disk_engine.table("grades"))
            .where(Between("grade", lo, lo + span))
            .select("word")
        )
        untraced = lazy.execute()
        traced = lazy.execute(tracer=Tracer())
        _assert_identical(traced, untraced)

    def test_traced_count_matches_untraced(self):
        with Engine(EngineConfig(workers=2)) as engine:
            lazy = engine.query(RELATION).where(Between("grade", 5, 25))
            assert lazy.count(tracer=Tracer()) == lazy.count()


class TestSpanTreeShape:
    def _trace(self, disk_engine):
        tracer = disk_engine.tracer()
        lazy = (
            disk_engine.query(disk_engine.table("grades"))
            .where(Between("grade", 10, 30))
            .agg(n=Count(), s=Sum("word"))
        )
        lazy.execute(tracer=tracer)
        return QueryTrace.from_tracer(tracer, query="grades")

    def test_no_orphans_and_children_nest_inside_parents(self, disk_engine):
        trace = self._trace(disk_engine)
        assert trace.spans
        by_id = {span.span_id: span for span in trace.spans}
        for span in trace.spans:
            if span.parent_id is None:
                continue
            # Every parent reference resolves, even for spans opened on
            # adopted worker threads ...
            assert span.parent_id in by_id, f"orphan span {span.name!r}"
            parent = by_id[span.parent_id]
            # ... and the child's interval sits inside its parent's.
            assert parent.start <= span.start
            assert span.end <= parent.end

    def test_disk_parallel_trace_covers_fetch_and_kernel_stages(self, disk_engine):
        trace = self._trace(disk_engine)
        names = {span.name for span in trace.spans}
        assert {"execute", "plan", "predicate", "fetch"} <= names
        kernels = {
            span.attrs.get("kernel")
            for span in trace.spans
            if span.name == "predicate"
        }
        assert "for_bitpack" in kernels  # the grade predicate ran in word space

    def test_trace_document_roundtrips_as_json(self, disk_engine):
        trace = self._trace(disk_engine)
        doc = json.loads(trace.to_json_line())
        assert doc["query"] == "grades"
        assert doc["n_spans"] == len(trace.spans)
        starts = [s["start_seconds"] for s in doc["spans"]]
        assert starts == sorted(starts)  # documents list spans in start order
        assert all(s >= 0.0 for s in starts)
        assert trace.render_tree().splitlines()[0].startswith("execute")


class TestExplainAnalyze:
    def test_stage_rows_match_scan_metrics(self):
        tracer = Tracer()
        with Engine(EngineConfig(workers=2)) as engine:
            lazy = (
                engine.query(RELATION)
                .where(Between("grade", 10, 30))
                .agg(n=Count(), s=Sum("word"))
            )
            result = lazy.execute(tracer=tracer)
        stages = QueryTrace.from_tracer(tracer).stage_summary()
        # The gather spans annotate exactly the rows they materialise, so
        # the per-stage sum equals the final counter.
        assert stages["gather"]["rows"] == result.metrics.rows_gathered
        assert stages["aggregate"]["rows"] == result.metrics.rows_matched
        assert stages["execute"]["calls"] == 1

    def test_explain_analyze_renders_for_disk_backed_parallel_query(self, disk_engine):
        lazy = (
            disk_engine.query(disk_engine.table("grades"))
            .where(Between("grade", 10, 30))
            .agg(n=Count())
        )
        text = lazy.explain(analyze=True)
        assert "== execution (analyze) ==" in text
        assert "== span tree ==" in text
        for stage in ("execute", "plan", "predicate", "aggregate"):
            assert re.search(rf"^{stage}\s", text, flags=re.MULTILINE), stage

    def test_explain_without_analyze_does_not_execute(self):
        lazy = RELATION.query().where(Between("grade", 0, 9))
        text = lazy.explain()
        assert "== execution (analyze) ==" not in text


class TestHistograms:
    def test_buckets_are_cumulative_and_fixed(self):
        histogram = LatencyHistogram()
        histogram.observe(2.0**-17)  # below the first bound
        histogram.observe(1.0)
        histogram.observe(100.0)  # beyond the ladder -> +Inf
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum_seconds"] == pytest.approx(2.0**-17 + 101.0)
        labels = [label for label, _ in snap["buckets"]]
        assert labels[-1] == "+Inf"
        assert [float(label) for label in labels[:-1]] == list(HISTOGRAM_BUCKETS)
        counts = [count for _, count in snap["buckets"]]
        assert counts == sorted(counts)  # cumulative => monotone
        assert counts[0] == 1 and counts[-1] == 3

    def test_merge_is_exact(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.001)
        b.observe(0.002)
        b.observe(5.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"][-1][1] == 3

    def test_tracer_feeds_stage_histograms(self):
        sink = StageHistograms()
        tracer = Tracer(histograms=sink)
        with tracer.span("scan"):
            pass
        with tracer.span("scan"):
            pass
        with tracer.span("plan"):
            pass
        assert sink.stages() == ("plan", "scan")
        assert sink.snapshot()["scan"]["count"] == 2


class TestServerMetricsConsistency:
    def test_snapshot_is_one_consistent_cut_under_concurrency(self):
        metrics = ServerMetrics()
        stop = threading.Event()
        failures: list[tuple[int, int]] = []

        def writer():
            while not stop.is_set():
                metrics.record_success(0.001, None, cached=False)

        def reader():
            while not stop.is_set():
                snap = metrics.snapshot()
                if snap["queries_ok"] != snap["latency"]["count"]:
                    failures.append((snap["queries_ok"], snap["latency"]["count"]))

        threads = [threading.Thread(target=writer) for _ in range(4)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        # Pre-fix, the latency sample landed outside the counter lock and
        # snapshots could observe queries_ok != recorded samples.
        assert not failures, failures[:3]
        snap = metrics.snapshot()
        assert snap["queries_ok"] == snap["latency"]["count"] > 0


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? "
    r"-?(\d+\.?\d*([eE][+-]?\d+)?|\+Inf|NaN)$"
)


class TestPrometheusExposition:
    def _exposition(self):
        metrics = ServerMetrics()
        metrics.count_request()
        metrics.record_success(0.01, None, cached=False)
        sink = StageHistograms()
        sink.observe("scan", 0.002)
        sink.observe("predicate", 0.0001)
        snapshot = metrics.snapshot() | {
            "tables": {"grades": {"n_rows": N_ROWS, "io": {"bytes_read": 123}}}
        }
        return prometheus_exposition(snapshot, stages=sink.snapshot())

    def test_every_line_is_valid_exposition_syntax(self):
        text = self._exposition()
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) corra_[a-z0-9_]+ .+$", line), line
            else:
                assert _SAMPLE_RE.match(line), line

    def test_counters_tables_and_histograms_are_present(self):
        text = self._exposition()
        assert "# TYPE corra_queries_total counter" in text
        assert "corra_queries_total 1" in text
        assert 'corra_table_io_bytes_read{table="grades"} 123' in text
        assert "# TYPE corra_stage_duration_seconds histogram" in text
        assert 'corra_stage_duration_seconds_bucket{stage="scan",le="+Inf"} 1' in text
        assert 'corra_stage_duration_seconds_count{stage="predicate"} 1' in text
        # Families are contiguous: a metric name never reappears after a
        # different family started (the exposition contract).
        seen: list[str] = []
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            # _bucket/_sum/_count are all samples of one histogram family.
            name = re.sub(r"_(bucket|sum|count)$", "", name) if "stage_duration" in name else name
            if not seen or seen[-1] != name:
                assert name not in seen, f"family {name} split"
                seen.append(name)

    def test_bucket_counts_are_cumulative_per_stage(self):
        text = self._exposition()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith('corra_stage_duration_seconds_bucket{stage="scan"')
        ]
        assert counts and counts == sorted(counts)
        assert counts[-1] == 1


class TestServiceTracing:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tracesvc") / "cat"
        Catalog(root).save("grades", _build_relation())
        with QueryService(root, config=ServiceConfig()) as svc:
            yield svc

    def _request(self, trace: bool) -> dict:
        body = {
            "table": "grades",
            "where": {"op": "between", "column": "grade", "lo": 5, "hi": 25},
            "aggregates": {"n": {"fn": "count"}, "s": {"fn": "sum", "column": "word"}},
        }
        if trace:
            body["trace"] = True
        return body

    def test_trace_true_attaches_span_tree(self, service):
        body = service.execute(self._request(trace=True))
        assert body["n_rows"] == 1
        trace = body["trace"]
        assert trace["n_spans"] > 0
        names = {span["name"] for span in trace["spans"]}
        assert {"request", "parse", "execute", "plan"} <= names

    def test_cached_responses_never_leak_a_trace(self, service):
        traced = service.execute(self._request(trace=True))
        untraced = service.execute(self._request(trace=False))
        assert "trace" in traced
        # Same plan, served from the result cache — the cached entry must
        # not carry the earlier request's trace.
        assert "trace" not in untraced
        assert untraced["columns"] == traced["columns"]

    def test_requests_feed_engine_stage_histograms(self, service):
        service.execute(self._request(trace=False))
        snap = service.snapshot_metrics()
        assert snap["stages"], "trace_requests=True must feed stage histograms"
        assert "request" in snap["stages"]
        assert snap["stages"]["request"]["count"] >= 1

    def test_trace_flag_is_validated(self, service):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            service.execute(self._request(trace=False) | {"trace": "yes"})


class TestSpanDisciplineRule:
    def _project(self, tmp_path, source: str):
        path = tmp_path / "query" / "mod.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        return load_project([tmp_path])

    def test_flags_span_call_outside_with(self, tmp_path):
        findings = run_rules(
            self._project(tmp_path, "span = tracer.span('scan')\n"),
            [SpanDisciplineRule()],
        )
        assert [f.rule for f in findings] == ["span-discipline"]
        assert "outside a with" in findings[0].message

    def test_accepts_with_and_honours_suppression(self, tmp_path):
        source = (
            "with tracer.span('scan') as s:\n"
            "    pass\n"
            "with tracer.adopt(parent):\n"
            "    pass\n"
            "m.span(0)  # corra: ignore[span-discipline] -- regex Match.span\n"
        )
        assert run_rules(self._project(tmp_path, source), [SpanDisciplineRule()]) == []

    def test_flags_adopt_passed_around(self, tmp_path):
        findings = run_rules(
            self._project(tmp_path, "ctx = tracer.adopt(parent)\nctx.__enter__()\n"),
            [SpanDisciplineRule()],
        )
        assert len(findings) == 1
