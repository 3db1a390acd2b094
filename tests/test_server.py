"""The query service: protocol, admission, cost gate, result cache, HTTP.

The correctness bar is the library itself: every response served over HTTP
must be bit-identical (as JSON values) to the same plan executed serially
through ``relation.query()``.  The operational bar is hygiene: rejected
queries — queue-full, over-budget, timed out — must leave the admission
gate, the result cache and the engine's pools exactly as they found them.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import Between, Count, Eq, Predicate, Sum
from repro.query.engine import EngineConfig
from repro.query.predicates import MAX_PREDICATE_DEPTH
from repro.server import (
    BackgroundServer,
    CostLimitError,
    QueryService,
    QueryTimeoutError,
    QueueFullError,
    ServiceConfig,
    UnknownTableError,
    parse_request,
)
from repro.server.service import _AdmissionGate
from repro.storage import Catalog, Table

N_ROWS = 3_000
TAGS = [f"tag_{i}" for i in range(5)]


def _build_relation(seed: int = 3):
    rng = np.random.default_rng(seed)
    table = Table.from_columns(
        [
            ("ship", INT64, np.arange(N_ROWS, dtype=np.int64) + 8_000),
            ("v", INT64, rng.integers(0, 500, N_ROWS)),
            ("tag", STRING, [TAGS[i] for i in rng.integers(0, len(TAGS), N_ROWS)]),
        ]
    )
    plan = CompressionPlan.vertical_only(table.schema)
    return TableCompressor(plan, block_size=250).compress(table)


RELATION = _build_relation()


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve") / "cat"
    Catalog(root).save("trips", RELATION)
    return root


class TestProtocol:
    def test_predicate_depth_is_bounded(self):
        def nested(depth):
            node = {"op": "eq", "column": "v", "value": 1}
            for _ in range(depth - 1):
                node = {"op": "not", "child": node}
            return node

        Predicate.from_json(nested(MAX_PREDICATE_DEPTH))
        Predicate.from_json({"op": "and", "children": [nested(MAX_PREDICATE_DEPTH - 1)] * 2})
        with pytest.raises(ValidationError, match="deeper than"):
            Predicate.from_json(nested(MAX_PREDICATE_DEPTH + 1))
        with pytest.raises(ValidationError, match="deeper than"):
            Predicate.from_json({"op": "or", "children": [nested(1), nested(MAX_PREDICATE_DEPTH)]})

    def test_parse_predicate_all_ops(self):
        node = {
            "op": "and",
            "children": [
                {"op": "between", "column": "ship", "lo": 1, "hi": 2},
                {"op": "or", "children": [
                    {"op": "eq", "column": "tag", "value": "x"},
                    {"op": "in", "column": "v", "values": [1, 2, 3]},
                ]},
                {"op": "not", "child": {"op": "eq", "column": "v", "value": 0}},
            ],
        }
        predicate = Predicate.from_json(node)
        assert sorted(set(predicate.columns())) == ["ship", "tag", "v"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "zz"},
            {"op": "eq", "column": "a"},
            {"op": "eq", "value": 1},
            {"op": "eq", "column": "a", "value": True},
            {"op": "between", "column": "a", "lo": 1},
            {"op": "in", "column": "a", "values": []},
            {"op": "and", "children": [{"op": "eq", "column": "a", "value": 1}]},
            {"op": "not"},
            "eq a 1",
            42,
        ],
    )
    def test_parse_predicate_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            Predicate.from_json(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"table": ""},
            {"table": "t", "bogus": 1},
            {"table": "t", "select": []},
            {"table": "t", "select": ["a"], "aggregates": {"n": {"fn": "count"}}},
            {"table": "t", "group_by": ["a"]},
            {"table": "t", "aggregates": {"n": {"fn": "median", "column": "a"}}},
            {"table": "t", "aggregates": {"n": {"fn": "sum"}}},
            {"table": "t", "aggregates": {"n": {"fn": "count", "column": "a"}}},
            {"table": "t", "limit": -1},
            {"table": "t", "limit": True},
            ["t"],
        ],
    )
    def test_parse_request_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            parse_request(bad)

    def test_parse_request_roundtrip(self):
        request = parse_request(
            {
                "table": "trips",
                "where": {"op": "eq", "column": "tag", "value": "tag_1"},
                "group_by": ["tag"],
                "aggregates": {"n": {"fn": "count"}, "s": {"fn": "sum", "column": "v"}},
                "limit": 10,
            }
        )
        assert request.table == "trips"
        assert request.plan.group_by == ("tag",)
        assert [name for name, _ in request.plan.aggregates] == ["n", "s"]
        assert request.plan.limit == 10


class TestServiceConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_concurrency", 0),
            ("max_concurrency", 2.0),
            ("queue_depth", -1),
            ("queue_depth", None),
            ("timeout_seconds", 0.0),
            ("timeout_seconds", -1.0),
            ("timeout_seconds", float("inf")),
            ("timeout_seconds", float("nan")),
            ("timeout_seconds", "30"),
            ("max_rows_scanned", -1),
            ("max_bytes_scanned", -1),
            ("max_bytes_scanned", 1.5),
            ("result_cache_entries", -3),
        ],
    )
    def test_rejects_bad_limits_at_construction(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ServiceConfig(**{field: value})

    def test_accepts_the_edges(self):
        config = ServiceConfig(
            max_concurrency=1,
            queue_depth=0,
            timeout_seconds=1e-9,
            max_rows_scanned=0,
            max_bytes_scanned=0,
            result_cache_entries=0,
        )
        assert config.max_concurrency == 1 and config.result_cache_entries == 0


class TestAdmissionGate:
    def test_queue_full_rejects_immediately(self):
        import time

        gate = _AdmissionGate(max_concurrency=1, queue_depth=0)
        gate.acquire(deadline=time.monotonic() + 5)
        with pytest.raises(QueueFullError):
            gate.acquire(deadline=time.monotonic() + 5)
        gate.release()
        # The freed slot admits again.
        gate.acquire(deadline=time.monotonic() + 5)
        gate.release()
        assert gate.depths() == (0, 0)

    def test_queued_waiter_times_out_and_leaves_no_residue(self):
        import time

        gate = _AdmissionGate(max_concurrency=1, queue_depth=4)
        gate.acquire(deadline=time.monotonic() + 5)
        with pytest.raises(QueryTimeoutError):
            gate.acquire(deadline=time.monotonic() + 0.05)
        assert gate.depths() == (1, 0)
        gate.release()
        assert gate.depths() == (0, 0)

    def test_waiter_admitted_when_slot_frees(self):
        import time

        gate = _AdmissionGate(max_concurrency=1, queue_depth=4)
        gate.acquire(deadline=time.monotonic() + 5)
        admitted = threading.Event()

        def waiter():
            gate.acquire(deadline=time.monotonic() + 5)
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not admitted.wait(timeout=0.1)
        gate.release()
        assert admitted.wait(timeout=5)
        gate.release()
        thread.join(timeout=5)
        assert gate.depths() == (0, 0)


class TestQueryService:
    def test_results_bit_identical_to_library(self, catalog_dir):
        payload = {
            "table": "trips",
            "where": {"op": "between", "column": "ship", "lo": 8_100, "hi": 8_900},
            "aggregates": {"n": {"fn": "count"}, "s": {"fn": "sum", "column": "v"}},
        }
        serial = (
            RELATION.query()
            .where(Between("ship", 8_100, 8_900))
            .agg(n=Count(), s=Sum("v"))
            .execute()
        )
        with QueryService(catalog_dir) as service:
            body = service.execute(payload)
        assert body["columns"]["n"] == list(serial.columns["n"])
        assert body["columns"]["s"] == list(serial.columns["s"])

    def test_aggregate_names_do_not_collide_in_the_cache_key(self, tmp_path):
        # The output name "x:sum:v;y" once spelled the same cache key as the
        # two outputs x = sum(v) and y = count(*).
        table = Table.from_columns([("v", INT64, np.arange(10, dtype=np.int64))])
        relation = TableCompressor(CompressionPlan.vertical_only(table.schema)).compress(table)
        Catalog(tmp_path / "cat").save("t", relation)
        one_output = {"table": "t", "aggregates": {"x:sum:v;y": {"fn": "count"}}}
        two_outputs = {
            "table": "t",
            "aggregates": {"x": {"fn": "sum", "column": "v"}, "y": {"fn": "count"}},
        }
        with QueryService(tmp_path / "cat") as service:
            first = service.execute(one_output)
            second = service.execute(two_outputs)
            assert service.metrics.queries_cached == 0
        assert first["columns"] == {"x:sum:v;y": [10]}
        assert second["columns"] == {"x": [45], "y": [10]}

    def test_result_cache_hit_and_invalidation(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("t", RELATION)
        payload = {
            "table": "t",
            "where": {"op": "eq", "column": "tag", "value": "tag_1"},
            "aggregates": {"n": {"fn": "count"}},
        }
        with QueryService(tmp_path / "cat") as service:
            first = service.execute(payload)
            second = service.execute(payload)
            assert first == second
            assert service.metrics.queries_cached == 1
            assert service._result_cache.snapshot()["hits"] == 1
            # Overwrite the table: the cached entry must not survive.
            smaller = _build_relation(seed=9)
            catalog.save("t", smaller, overwrite=True)
            service.engine.refresh_table("t")
            third = service.execute(payload)
            assert service.metrics.queries_cached == 1  # stale entry not served
            assert third == service.execute(payload)  # fresh entry caches again

    def test_cost_limit_rejection_is_clean(self, catalog_dir):
        config = ServiceConfig(max_rows_scanned=100)
        with QueryService(catalog_dir, config=config) as service:
            payload = {
                "table": "trips",
                "where": {"op": "eq", "column": "v", "value": 7},
                "aggregates": {"n": {"fn": "count"}},
            }
            with pytest.raises(CostLimitError):
                service.execute(payload)
            assert service.metrics.rejected_cost == 1
            # Nothing was admitted, cached, or left behind.
            assert service._gate.depths() == (0, 0)
            assert service._result_cache.snapshot()["entries"] == 0
            # Pruned-only plans stay under the row budget and still run.
            ok = service.execute(
                {
                    "table": "trips",
                    "where": {"op": "between", "column": "ship", "lo": 1, "hi": 2},
                    "aggregates": {"n": {"fn": "count"}},
                }
            )
            assert ok["columns"]["n"] == [0]

    def test_timeout_rejection_is_clean(self, catalog_dir):
        config = ServiceConfig(timeout_seconds=1e-9)
        with QueryService(catalog_dir, config=config) as service:
            payload = {"table": "trips", "aggregates": {"n": {"fn": "count"}}}
            with pytest.raises(QueryTimeoutError):
                service.execute(payload)
            assert service.metrics.timeouts == 1
            assert service._gate.depths() == (0, 0)
            assert service._result_cache.snapshot()["entries"] == 0

    def test_unknown_table_maps_to_404_error(self, catalog_dir):
        with QueryService(catalog_dir) as service:
            with pytest.raises(UnknownTableError) as excinfo:
                service.execute({"table": "nope", "aggregates": {"n": {"fn": "count"}}})
            assert excinfo.value.status == 404

    def test_malformed_request_counts_as_failed(self, catalog_dir):
        with QueryService(catalog_dir) as service:
            with pytest.raises(ValidationError):
                service.execute({"table": "trips", "where": {"op": "zz"}})
            assert service.metrics.queries_failed == 1

    def test_concurrent_requests_identical_and_counted(self, catalog_dir):
        payloads = [
            {
                "table": "trips",
                "where": {"op": "eq", "column": "tag", "value": tag},
                "aggregates": {"n": {"fn": "count"}, "s": {"fn": "sum", "column": "v"}},
            }
            for tag in TAGS
        ]
        expected = []
        for tag in TAGS:
            serial = (
                RELATION.query().where(Eq("tag", tag)).agg(n=Count(), s=Sum("v")).execute()
            )
            expected.append({k: list(v) for k, v in serial.columns.items()})
        with QueryService(
            catalog_dir, engine_config=EngineConfig(workers=2)
        ) as service:
            errors: list = []
            results: dict[int, list] = {}

            def worker(thread_id: int):
                try:
                    out = []
                    for index, payload in enumerate(payloads * 4):
                        out.append((index % len(payloads), service.execute(payload)))
                    results[thread_id] = out
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            for out in results.values():
                for which, body in out:
                    assert body["columns"] == expected[which]
            metrics = service.snapshot_metrics()
            assert metrics["queries_total"] == 6 * len(payloads) * 4
            assert metrics["queries_ok"] == metrics["queries_total"]
            assert metrics["result_cache"]["hits"] > 0
            assert service._gate.depths() == (0, 0)


class TestHttpServer:
    def _request(self, host, port, method, path, body=None):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"} if body is not None else {},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_end_to_end_over_http(self, catalog_dir):
        with QueryService(catalog_dir) as service:
            with BackgroundServer(service, port=0) as (host, port):
                status, health = self._request(host, port, "GET", "/health")
                assert (status, health) == (200, {"status": "ok"})
                status, tables = self._request(host, port, "GET", "/tables")
                assert status == 200 and tables == {"tables": ["trips"]}

                payload = {
                    "table": "trips",
                    "where": {"op": "eq", "column": "tag", "value": "tag_0"},
                    "select": ["ship", "tag"],
                    "limit": 5,
                }
                status, body = self._request(host, port, "POST", "/query", payload)
                assert status == 200
                serial = (
                    RELATION.query()
                    .where(Eq("tag", "tag_0"))
                    .select("ship", "tag")
                    .limit(5)
                    .execute()
                )
                assert body["columns"]["ship"] == list(serial.columns["ship"])
                assert body["columns"]["tag"] == list(serial.columns["tag"])

                status, _ = self._request(host, port, "POST", "/query", {"table": "nope"})
                assert status == 404
                status, _ = self._request(
                    host, port, "POST", "/query", {"table": "trips", "where": {"op": "zz"}}
                )
                assert status == 400
                status, _ = self._request(host, port, "GET", "/bogus")
                assert status == 404
                status, _ = self._request(host, port, "GET", "/query")
                assert status == 405

                status, metrics = self._request(host, port, "GET", "/metrics")
                assert status == 200
                assert metrics["queries_total"] >= 3
                assert metrics["latency"]["count"] >= 1
                assert "trips" in metrics["tables"]

    def test_http_status_for_rejections(self, catalog_dir):
        config = ServiceConfig(max_rows_scanned=100)
        with QueryService(catalog_dir, config=config) as service:
            with BackgroundServer(service, port=0) as (host, port):
                status, body = self._request(
                    host,
                    port,
                    "POST",
                    "/query",
                    {
                        "table": "trips",
                        "where": {"op": "eq", "column": "v", "value": 7},
                        "aggregates": {"n": {"fn": "count"}},
                    },
                )
                assert status == 413
                assert "limit" in body["error"]

    def test_invalid_json_is_400(self, catalog_dir):
        with QueryService(catalog_dir) as service:
            with BackgroundServer(service, port=0) as (host, port):
                conn = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    conn.request(
                        "POST",
                        "/query",
                        body="{not json",
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    assert response.status == 400
                finally:
                    conn.close()

    @staticmethod
    def _nested_not_body(depth: int) -> str:
        """A count over ``depth`` nested ``not`` nodes, as raw JSON text."""
        leaf = '{"op": "eq", "column": "v", "value": 7}'
        where = '{"op": "not", "child": ' * (depth - 1) + leaf + "}" * (depth - 1)
        return '{"table": "trips", "where": %s, "aggregates": {"n": {"fn": "count"}}}' % where

    def test_deeply_nested_predicates_are_400_and_shallow_ones_run(self, catalog_dir):
        with QueryService(catalog_dir) as service:
            with BackgroundServer(service, port=0) as (host, port):
                # 600 levels fail the predicate depth bound; 3,000 are too
                # deep for the JSON parser itself.  Both are the client's
                # fault, and the server keeps answering afterwards.
                for depth, expected in ((600, 400), (3_000, 400), (10, 200)):
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    try:
                        conn.request("POST", "/query", body=self._nested_not_body(depth))
                        response = conn.getresponse()
                        body = json.loads(response.read())
                        assert response.status == expected, (depth, body)
                    finally:
                        conn.close()
                # Nine ``not`` nodes negate the leaf.
                assert body["columns"]["n"] == [N_ROWS - RELATION.query().where(Eq("v", 7)).count()]
