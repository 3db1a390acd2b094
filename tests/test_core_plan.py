"""Unit tests for compression plans and the table compressor."""

import numpy as np
import pytest

from repro.core import CompressionPlan, PlanBuilder, TableCompressor
from repro.datasets import TaxiGenerator, taxi_multi_reference_config
from repro.dtypes import INT64, STRING
from repro.errors import ConfigurationError, UnknownColumnError
from repro.storage import Schema


class TestColumnPlanValidation:
    def test_horizontal_without_reference_rejected(self):
        from repro.core import ColumnPlan

        with pytest.raises(ConfigurationError):
            ColumnPlan(column="x", encoding="non_hierarchical")

    def test_vertical_with_reference_rejected(self):
        from repro.core import ColumnPlan

        with pytest.raises(ConfigurationError):
            ColumnPlan(column="x", encoding="for_bitpack", references=("y",))

    def test_multi_reference_needs_config(self):
        from repro.core import ColumnPlan

        with pytest.raises(ConfigurationError):
            ColumnPlan(column="x", encoding="multi_reference", references=("y",))


class TestCompressionPlan:
    def _schema(self):
        return Schema.from_pairs([("a", INT64), ("b", INT64), ("c", STRING)])

    def test_vertical_only_defaults_to_auto(self):
        plan = CompressionPlan.vertical_only(self._schema())
        assert plan.column_plan("a").encoding == "auto"
        assert plan.horizontal_columns() == ()

    def test_builder_diff_encode(self):
        plan = (
            PlanBuilder(self._schema())
            .diff_encode("b", reference="a")
            .build()
        )
        assert plan.column_plan("b").references == ("a",)
        assert plan.horizontal_columns() == ("b",)

    def test_self_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanBuilder(self._schema()).diff_encode("a", reference="a").build()

    def test_reference_chain_rejected(self):
        builder = PlanBuilder(self._schema()).diff_encode("b", reference="a")
        with pytest.raises(ConfigurationError):
            builder.diff_encode("a", reference="c")

    def test_unknown_reference_rejected(self):
        with pytest.raises(UnknownColumnError):
            PlanBuilder(self._schema()).diff_encode("b", reference="zzz").build()

    def test_unknown_target_rejected(self):
        plan = PlanBuilder(self._schema()).build()
        with pytest.raises(UnknownColumnError):
            plan.column_plan("zzz")

    def test_describe_lists_every_column(self):
        plan = (
            PlanBuilder(self._schema())
            .hierarchical_encode("c", reference="a")
            .build()
        )
        text = plan.describe()
        assert "a: auto" in text
        assert "c: hierarchical" in text

    def test_from_suggestions_skips_conflicts(self, small_int_table):
        from repro.core import CorrelationDetector

        suggestions = CorrelationDetector(min_saving_rate=0.0).suggest(small_int_table)
        plan = CompressionPlan.from_suggestions(small_int_table.schema, suggestions)
        # Whatever was chosen must be a valid plan (no chains).
        for name in plan.horizontal_columns():
            for ref in plan.column_plan(name).references:
                assert not plan.column_plan(ref).is_horizontal

    def test_from_suggestions_keeps_the_first_suggestion_per_target(self):
        from repro.core import EncodingSuggestion

        schema = Schema.from_pairs([("a", INT64), ("b", INT64), ("c", INT64)])
        suggestions = [
            EncodingSuggestion("non_hierarchical", "c", ("a",), 100, 0.5),
            EncodingSuggestion("hierarchical", "c", ("b",), 10, 0.1),
        ]
        plan = CompressionPlan.from_suggestions(schema, suggestions)
        assert plan.horizontal_columns() == ("c",)
        assert plan.column_plan("c").encoding == "non_hierarchical"
        assert plan.column_plan("c").references == ("a",)

    def test_automatic_dmv_plan_keeps_the_larger_saving(self):
        from repro.core import CorrelationDetector
        from repro.datasets import dataset_by_name

        table = dataset_by_name("dmv").generate(2_000, seed=1)
        suggestions = CorrelationDetector().suggest(table)
        # Both references are suggested for zip_code, the larger saving first.
        assert [s.references for s in suggestions if s.target == "zip_code"][:2] == [
            ("city",),
            ("model_year",),
        ]
        plan = CompressionPlan.from_suggestions(table.schema, suggestions)
        assert plan.column_plan("zip_code").encoding == "hierarchical"
        assert plan.column_plan("zip_code").references == ("city",)


class TestTableCompressor:
    def test_vertical_compression_roundtrip(self, small_int_table):
        relation = TableCompressor(block_size=300).compress(small_int_table)
        assert relation.n_blocks == 4
        for name in small_int_table.schema.names:
            restored = np.concatenate(
                [np.asarray(b.decode_column(name)) for b in relation]
            )
            assert np.array_equal(restored, small_int_table.column(name))

    def test_horizontal_compression_roundtrip(self, dates_schema_table):
        plan = (
            CompressionPlan.builder(dates_schema_table.schema)
            .diff_encode("commit", reference="ship")
            .diff_encode("receipt", reference="ship")
            .build()
        )
        relation = TableCompressor(plan, block_size=256).compress(dates_schema_table)
        for name in ("commit", "receipt"):
            restored = np.concatenate([b.decode_column(name) for b in relation])
            assert np.array_equal(restored, dates_schema_table.column(name))

    def test_named_vertical_scheme(self, small_int_table):
        plan = (
            CompressionPlan.builder(small_int_table.schema)
            .vertical("base", "plain")
            .build()
        )
        relation = TableCompressor(plan, block_size=1_000).compress(small_int_table)
        assert relation.block(0).encoding_of("base") == "plain"

    def test_multi_reference_plan(self):
        taxi = TaxiGenerator().generate_monetary_only(5_000, seed=1)
        config = taxi_multi_reference_config()
        plan = (
            CompressionPlan.builder(taxi.schema)
            .multi_reference_encode("total_amount", config)
            .build()
        )
        relation = TableCompressor(plan, block_size=2_000).compress(taxi)
        restored = np.concatenate(
            [b.decode_column("total_amount") for b in relation]
        )
        assert np.array_equal(restored, taxi.column("total_amount"))
        assert relation.block(0).dependency("total_amount").kind == "multi_reference"

    def test_blocks_are_self_contained(self, dates_schema_table):
        """Each block must decode on its own (the paper's block property)."""
        plan = (
            CompressionPlan.builder(dates_schema_table.schema)
            .diff_encode("receipt", reference="ship")
            .build()
        )
        relation = TableCompressor(plan, block_size=100).compress(dates_schema_table)
        block = relation.block(3)
        decoded = block.decode_column("receipt")
        expected = dates_schema_table.column("receipt")[300:400]
        assert np.array_equal(decoded, expected)

    def test_column_sizes_helper(self, dates_schema_table):
        plan = (
            CompressionPlan.builder(dates_schema_table.schema)
            .diff_encode("receipt", reference="ship")
            .build()
        )
        sizes = TableCompressor(plan, block_size=500).column_sizes(dates_schema_table)
        assert set(sizes) == {"ship", "commit", "receipt"}
        assert sizes["receipt"] < sizes["commit"]

    def test_compression_reduces_total_size(self, dates_schema_table):
        plan = (
            CompressionPlan.builder(dates_schema_table.schema)
            .diff_encode("commit", reference="ship")
            .diff_encode("receipt", reference="ship")
            .build()
        )
        horizontal = TableCompressor(plan, block_size=500).compress(dates_schema_table)
        vertical = TableCompressor(block_size=500).compress(dates_schema_table)
        assert horizontal.size_bytes < vertical.size_bytes
