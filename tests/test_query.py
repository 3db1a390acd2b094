"""Unit tests for selection vectors, scans and query chains."""

import numpy as np
import pytest

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import UnknownColumnError, ValidationError
from repro.query import (
    Between,
    Eq,
    In,
    generate_selection_vector,
    generate_selection_vectors,
    materialize_columns,
)
from repro.storage import Table


@pytest.fixture
def compressed(dates_schema_table):
    plan = (
        CompressionPlan.builder(dates_schema_table.schema)
        .diff_encode("receipt", reference="ship")
        .build()
    )
    return TableCompressor(plan, block_size=256).compress(dates_schema_table)


class TestSelectionVectors:
    def test_size_matches_selectivity(self):
        vector = generate_selection_vector(10_000, 0.01, np.random.default_rng(0))
        assert vector.n_selected == 100
        assert vector.actual_selectivity == pytest.approx(0.01)

    def test_row_ids_sorted_and_unique(self):
        vector = generate_selection_vector(5_000, 0.3, np.random.default_rng(1))
        rows = vector.row_ids
        assert np.all(np.diff(rows) > 0)

    def test_full_selectivity_selects_everything(self):
        vector = generate_selection_vector(1_000, 1.0)
        assert np.array_equal(vector.row_ids, np.arange(1_000))

    def test_zero_selectivity(self):
        vector = generate_selection_vector(1_000, 0.0)
        assert vector.n_selected == 0

    def test_invalid_selectivity(self):
        with pytest.raises(ValidationError):
            generate_selection_vector(100, 1.5)

    def test_ten_vectors_are_independent_but_seeded(self):
        a = generate_selection_vectors(10_000, 0.01, count=10, seed=7)
        b = generate_selection_vectors(10_000, 0.01, count=10, seed=7)
        assert len(a) == 10
        assert not np.array_equal(a[0].row_ids, a[1].row_ids)
        assert np.array_equal(a[3].row_ids, b[3].row_ids)


class TestMaterialization:
    def test_vertical_column(self, compressed, dates_schema_table):
        vector = generate_selection_vector(dates_schema_table.n_rows, 0.1, np.random.default_rng(3))
        out = materialize_columns(compressed, ["ship"], vector)
        assert np.array_equal(
            out["ship"], dates_schema_table.column("ship")[vector.row_ids]
        )

    def test_horizontal_column_alone(self, compressed, dates_schema_table):
        vector = generate_selection_vector(
            dates_schema_table.n_rows, 0.05, np.random.default_rng(4)
        )
        out = materialize_columns(compressed, ["receipt"], vector)
        assert np.array_equal(
            out["receipt"], dates_schema_table.column("receipt")[vector.row_ids]
        )

    def test_both_columns(self, compressed, dates_schema_table):
        vector = generate_selection_vector(dates_schema_table.n_rows, 0.5, np.random.default_rng(5))
        out = materialize_columns(compressed, ["ship", "receipt"], vector)
        for name in ("ship", "receipt"):
            assert np.array_equal(
                out[name], dates_schema_table.column(name)[vector.row_ids]
            )

    def test_preserves_selection_order_across_blocks(self, compressed, dates_schema_table):
        rows = np.array([900, 5, 513, 2, 999], dtype=np.int64)
        out = materialize_columns(compressed, ["receipt"], rows)
        assert np.array_equal(out["receipt"], dates_schema_table.column("receipt")[rows])

    def test_string_columns(self):
        table = Table.from_columns(
            [
                ("k", INT64, np.arange(600, dtype=np.int64)),
                ("s", STRING, [f"name-{i % 11}" for i in range(600)]),
            ]
        )
        relation = TableCompressor(block_size=200).compress(table)
        rows = np.array([599, 0, 311], dtype=np.int64)
        out = materialize_columns(relation, ["s"], rows)
        assert out["s"] == ["name-5", "name-0", "name-3"]

    def test_unknown_column(self, compressed):
        with pytest.raises(UnknownColumnError):
            materialize_columns(compressed, ["nope"], np.array([0]))

    def test_empty_selection(self, compressed):
        out = materialize_columns(compressed, ["ship"], np.array([], dtype=np.int64))
        assert out["ship"].size == 0


class TestQueryChain:
    @pytest.fixture
    def executor(self, dates_schema_table):
        relation = TableCompressor(block_size=300).compress(dates_schema_table)
        return relation, dates_schema_table

    def test_filter_equals(self, executor):
        ex, table = executor
        ship = table.column("ship")
        target = int(ship[17])
        rows = ex.query().where(Eq("ship", target)).execute().row_ids
        assert np.array_equal(rows, np.flatnonzero(ship == target))

    def test_filter_between(self, executor):
        ex, table = executor
        ship = table.column("ship")
        rows = ex.query().where(Between("ship", 8_100, 8_200)).execute().row_ids
        assert np.array_equal(rows, np.flatnonzero((ship >= 8_100) & (ship <= 8_200)))

    def test_select_with_predicate(self, executor):
        ex, table = executor
        result = ex.query().where(Between("ship", 8_100, 8_110)).select("receipt").execute()
        expected_rows = np.flatnonzero(
            (table.column("ship") >= 8_100) & (table.column("ship") <= 8_110)
        )
        assert np.array_equal(result.row_ids, expected_rows)
        assert np.array_equal(
            result.column("receipt"), table.column("receipt")[expected_rows]
        )

    def test_select_without_predicate_returns_everything(self, executor):
        ex, table = executor
        result = ex.query().select("ship").execute()
        assert result.n_rows == table.n_rows

    def test_count(self, executor):
        ex, table = executor
        assert ex.query().where(Between("ship", 8_000, 8_499)).count() == 500

    def test_is_in_predicate_on_strings(self):
        table = Table.from_columns(
            [("s", STRING, ["a", "b", "c", "a", "b"])]
        )
        relation = TableCompressor(block_size=5).compress(table)
        assert relation.query().where(In("s", ["a", "c"])).count() == 3

    def test_unknown_predicate_column(self, executor):
        ex, _ = executor
        with pytest.raises(UnknownColumnError):
            ex.query().where(Eq("nope", 1)).execute()
