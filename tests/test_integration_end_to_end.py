"""Integration tests: full pipeline from dataset generation to query output.

These tests run the whole stack the way the examples and benchmarks do:
generate a synthetic dataset, detect/choose a plan, compress into blocks,
serialise and restore, query with selection vectors, and compare against the
uncompressed ground truth.
"""

import numpy as np
import pytest

from repro import (
    CompressionPlan,
    CorrelationDetector,
    SingleColumnBaseline,
    TableCompressor,
    TpchLineitemGenerator,
    deserialize_block,
    serialize_block,
)
from repro.baselines import UncompressedBaseline
from repro.datasets import (
    DmvGenerator,
    LdbcMessageGenerator,
    TaxiGenerator,
    taxi_multi_reference_config,
)
from repro.query import Between, generate_selection_vectors, materialize_columns


class TestTpchPipeline:
    @pytest.fixture(scope="class")
    def setup(self):
        table = TpchLineitemGenerator().generate_dates_only(30_000, seed=21)
        plan = (
            CompressionPlan.builder(table.schema)
            .diff_encode("l_commitdate", reference="l_shipdate")
            .diff_encode("l_receiptdate", reference="l_shipdate")
            .build()
        )
        relation = TableCompressor(plan, block_size=8_192).compress(table)
        return table, relation

    def test_compression_beats_baseline(self, setup):
        table, relation = setup
        baseline = SingleColumnBaseline().report(table)
        assert relation.column_size("l_receiptdate") < 0.5 * baseline.size_of("l_receiptdate")
        assert relation.column_size("l_commitdate") < 0.7 * baseline.size_of("l_commitdate")

    def test_every_selectivity_roundtrips(self, setup):
        table, relation = setup
        for selectivity in (0.001, 0.01, 0.1, 1.0):
            vector = generate_selection_vectors(table.n_rows, selectivity, 1, seed=5)[0]
            out = materialize_columns(relation, ["l_shipdate", "l_receiptdate"], vector)
            for name in ("l_shipdate", "l_receiptdate"):
                assert np.array_equal(out[name], table.column(name)[vector.row_ids])

    def test_blocks_survive_serialisation(self, setup):
        table, relation = setup
        block = relation.block(1)
        restored = deserialize_block(serialize_block(block))
        start = relation.block_size
        end = start + block.n_rows
        assert np.array_equal(
            restored.decode_column("l_receiptdate"),
            table.column("l_receiptdate")[start:end],
        )

    def test_predicate_query_on_compressed_relation(self, setup):
        table, relation = setup
        ship = table.column("l_shipdate")
        lo, hi = int(np.quantile(ship, 0.4)), int(np.quantile(ship, 0.6))
        result = (
            relation.query()
            .where(Between("l_shipdate", lo, hi))
            .select("l_receiptdate")
            .execute()
        )
        expected_rows = np.flatnonzero((ship >= lo) & (ship <= hi))
        assert np.array_equal(result.row_ids, expected_rows)
        assert np.array_equal(
            result.column("l_receiptdate"), table.column("l_receiptdate")[expected_rows]
        )


class TestAutoPlanPipeline:
    def test_detector_driven_plan_roundtrips(self):
        table = TpchLineitemGenerator().generate_dates_only(15_000, seed=3)
        suggestions = CorrelationDetector().suggest(table)
        plan = CompressionPlan.from_suggestions(table.schema, suggestions)
        assert plan.horizontal_columns()  # something was detected
        relation = TableCompressor(plan, block_size=4_096).compress(table)
        for name in table.column_names:
            restored = np.concatenate([b.decode_column(name) for b in relation])
            assert np.array_equal(restored, table.column(name))


class TestHierarchicalPipeline:
    def test_dmv_zip_pipeline(self):
        table = DmvGenerator().generate_pair_only(20_000, seed=17)
        plan = (
            CompressionPlan.builder(table.schema)
            .hierarchical_encode("zip_code", reference="city")
            .build()
        )
        relation = TableCompressor(plan, block_size=6_000).compress(table)
        vector = generate_selection_vectors(table.n_rows, 0.05, 1, seed=1)[0]
        out = materialize_columns(relation, ["city", "zip_code"], vector)
        expected_zip = np.asarray(table.column("zip_code"))[vector.row_ids]
        assert np.array_equal(out["zip_code"], expected_zip)
        expected_city = [table.column("city")[int(i)] for i in vector.row_ids]
        assert out["city"] == expected_city

    def test_ldbc_ip_pipeline(self):
        table = LdbcMessageGenerator().generate_pair_only(20_000, seed=17)
        plan = (
            CompressionPlan.builder(table.schema)
            .hierarchical_encode("ip", reference="countryid")
            .build()
        )
        # A single block: per-block hierarchical metadata is only amortised at
        # realistic block fill levels (the paper uses 1 M-tuple blocks).
        relation = TableCompressor(plan, block_size=20_000).compress(table)
        baseline = SingleColumnBaseline().report(table)
        assert relation.column_size("ip") < baseline.size_of("ip")
        vector = generate_selection_vectors(table.n_rows, 0.01, 1, seed=2)[0]
        out = materialize_columns(relation, ["ip"], vector)
        expected = [table.column("ip")[int(i)] for i in vector.row_ids]
        assert out["ip"] == expected


class TestTaxiPipeline:
    def test_multi_reference_pipeline(self):
        table = TaxiGenerator().generate_monetary_only(25_000, seed=29)
        config = taxi_multi_reference_config()
        plan = (
            CompressionPlan.builder(table.schema)
            .multi_reference_encode("total_amount", config)
            .build()
        )
        relation = TableCompressor(plan, block_size=10_000).compress(table)
        baseline = SingleColumnBaseline().report(table)
        assert relation.column_size("total_amount") < 0.4 * baseline.size_of("total_amount")
        vector = generate_selection_vectors(table.n_rows, 0.02, 1, seed=3)[0]
        out = materialize_columns(relation, ["total_amount"], vector)
        assert np.array_equal(
            out["total_amount"], table.column("total_amount")[vector.row_ids]
        )

    def test_uncompressed_baseline_agrees(self):
        table = TaxiGenerator().generate_monetary_only(10_000, seed=29)
        uncompressed = UncompressedBaseline(block_size=4_000).compress(table)
        config = taxi_multi_reference_config()
        plan = (
            CompressionPlan.builder(table.schema)
            .multi_reference_encode("total_amount", config)
            .build()
        )
        corra = TableCompressor(plan, block_size=4_000).compress(table)
        vector = generate_selection_vectors(table.n_rows, 0.1, 1, seed=4)[0]
        a = materialize_columns(uncompressed, ["total_amount"], vector)
        b = materialize_columns(corra, ["total_amount"], vector)
        assert np.array_equal(a["total_amount"], b["total_amount"])
