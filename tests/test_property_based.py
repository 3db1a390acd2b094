"""Property-based tests (hypothesis) for the core invariants.

The invariants exercised here are the load-bearing ones:

* every encoding is lossless (decode/gather reproduce the input exactly);
* positional access equals full decode + indexing;
* compressed sizes are what the accounting claims (non-negative, monotone in
  the number of rows for fixed-width streams);
* the optimizer never produces an invalid configuration and never loses to
  the all-vertical baseline.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle
from repro.bitpack import BitPackedArray, pack, required_bits, unpack
from repro.core import (
    CompressionPlan,
    HierarchicalEncoding,
    NonHierarchicalEncoding,
    OutlierStore,
    TableCompressor,
)
from repro.core.optimizer import DiffEncodingOptimizer
from repro.dtypes import INT64, STRING
from repro.encodings import (
    DeltaEncoding,
    DictionaryEncoding,
    ForBitPackEncoding,
    FrequencyEncoding,
    RleEncoding,
)
from repro.query import And, Between, Eq, In, Or, QueryExecutor
from repro.storage import Table

# Bounded 64-bit signed integers that never overflow when differenced.
bounded_ints = st.integers(min_value=-(2**40), max_value=2**40)

int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=300),
    elements=bounded_ints,
)

small_nonneg_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=300),
    elements=st.integers(min_value=0, max_value=2**20),
)


class TestBitpackProperties:
    @given(values=small_nonneg_arrays)
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, values):
        width = required_bits(int(values.max())) if values.size else 0
        words = pack(values, width)
        assert np.array_equal(unpack(words, width, values.size), values)

    @given(values=small_nonneg_arrays, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_gather_equals_decode_indexing(self, values, data):
        packed = BitPackedArray.from_values(values)
        positions = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.integers(min_value=0, max_value=50),
                elements=st.integers(min_value=0, max_value=values.size - 1),
            )
        )
        assert np.array_equal(packed.gather(positions), packed.to_numpy()[positions])

    @given(values=small_nonneg_arrays)
    @settings(max_examples=30, deadline=None)
    def test_size_is_byte_rounded_bits(self, values):
        packed = BitPackedArray.from_values(values)
        assert packed.size_bytes == (values.size * packed.bit_width + 7) // 8


class TestVerticalEncodingProperties:
    @given(values=int_arrays)
    @settings(max_examples=50, deadline=None)
    def test_for_bitpack_lossless(self, values):
        column = ForBitPackEncoding().encode(values, INT64)
        assert np.array_equal(column.decode(), values)

    @given(values=int_arrays)
    @settings(max_examples=50, deadline=None)
    def test_dictionary_lossless(self, values):
        column = DictionaryEncoding().encode(values, INT64)
        assert np.array_equal(column.decode(), values)

    @given(values=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_rle_lossless(self, values):
        column = RleEncoding().encode(values, INT64)
        assert np.array_equal(column.decode(), values)

    @given(values=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_delta_lossless(self, values):
        column = DeltaEncoding(checkpoint_interval=64).encode(values, INT64)
        assert np.array_equal(column.decode(), values)

    @given(values=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_frequency_lossless(self, values):
        column = FrequencyEncoding(n_hot=4).encode(values, INT64)
        assert np.array_equal(column.decode(), values)

    @given(values=int_arrays, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gather_consistency_across_schemes(self, values, data):
        positions = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.integers(min_value=0, max_value=30),
                elements=st.integers(min_value=0, max_value=values.size - 1),
            )
        )
        for scheme in (ForBitPackEncoding(), DictionaryEncoding(), RleEncoding()):
            column = scheme.encode(values, INT64)
            assert np.array_equal(column.gather(positions), values[positions])

    @given(
        strings=st.lists(
            st.text(alphabet=st.characters(codec="utf-8"), max_size=20),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_string_dictionary_lossless(self, strings):
        column = DictionaryEncoding().encode(strings, STRING)
        assert column.decode() == strings


class TestHorizontalEncodingProperties:
    @given(reference=int_arrays, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_diff_encoding_lossless(self, reference, data):
        offsets = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.just(reference.shape),
                elements=st.integers(min_value=-1000, max_value=1000),
            )
        )
        target = reference + offsets
        column = NonHierarchicalEncoding().encode(target, reference, "ref")
        decoded = column.decode_with_reference({"ref": reference})
        assert np.array_equal(decoded, target)

    @given(reference=int_arrays, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_diff_encoding_width_never_exceeds_naive(self, reference, data):
        offsets = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.just(reference.shape),
                elements=st.integers(min_value=0, max_value=63),
            )
        )
        target = reference + offsets
        column = NonHierarchicalEncoding().encode(target, reference, "ref")
        assert column.bit_width <= 6

    @given(
        n_groups=st.integers(min_value=1, max_value=8),
        fanout=st.integers(min_value=1, max_value=6),
        n_rows=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_hierarchical_lossless_and_width_bounded(self, n_groups, fanout, n_rows, seed):
        rng = np.random.default_rng(seed)
        reference = rng.integers(0, n_groups, size=n_rows, dtype=np.int64)
        target = reference * 1_000 + rng.integers(0, fanout, size=n_rows, dtype=np.int64)
        column = HierarchicalEncoding().encode(target, reference, "ref")
        assert np.array_equal(
            column.decode_with_reference({"ref": reference}), target
        )
        assert column.code_bit_width <= required_bits(fanout - 1)

    @given(
        positions=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=0, max_size=50, unique=True
        ),
        base=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_outlier_store_apply_is_exact(self, positions, base):
        positions = np.asarray(sorted(positions), dtype=np.int64)
        values = positions * 7 + base
        store = OutlierStore(positions, values)
        queried = np.arange(0, 10_001, 97, dtype=np.int64)
        reconstructed = np.full(queried.size, -1, dtype=np.int64)
        out = store.apply(queried, reconstructed)
        lookup = dict(zip(positions.tolist(), values.tolist()))
        expected = np.array(
            [lookup.get(int(q), -1) for q in queried], dtype=np.int64
        )
        assert np.array_equal(out, expected)


class TestScanPruningProperties:
    """Zone-map pruning must be invisible: pruned scans == the row-by-row oracle."""

    @given(
        reference=int_arrays,
        block_size=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_pruned_filter_equals_decode_everything(self, reference, block_size, data):
        offsets = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.just(reference.shape),
                elements=st.integers(min_value=-50, max_value=50),
            )
        )
        target = reference + offsets
        table = Table.from_columns([("a", INT64, reference), ("b", INT64, target)])
        plan = (
            CompressionPlan.builder(table.schema)
            .diff_encode("b", reference="a")
            .build()
        )
        relation = TableCompressor(plan, block_size=block_size).compress(table)

        lo_a, hi_a = int(reference.min()), int(reference.max())
        value = data.draw(st.integers(min_value=lo_a - 10, max_value=hi_a + 10))
        low = data.draw(st.integers(min_value=lo_a - 10, max_value=hi_a + 10))
        span = data.draw(st.integers(min_value=0, max_value=100))
        column = data.draw(st.sampled_from(["a", "b"]))
        predicate = data.draw(
            st.sampled_from(
                [
                    Eq(column, value),
                    Between(column, low, low + span),
                    In(column, [value, low]),
                    And(Between("a", low, low + span), Between("b", low, low + span)),
                    Or(Eq("a", value), Eq("b", value)),
                ]
            )
        )

        pruned = QueryExecutor(relation)
        expected = oracle.filter_rows(table, predicate)
        assert pruned.filter(predicate).tolist() == expected
        with oracle.decode_engine() as decode:
            assert decode.executor(relation).filter(predicate).tolist() == expected
        assert pruned.count(predicate) == len(expected)
        assert pruned.last_scan_metrics.rows_decoded <= pruned.last_scan_metrics.rows_total


class TestOptimizerProperties:
    @given(
        n_rows=st.integers(min_value=10, max_value=200),
        spread_a=st.integers(min_value=1, max_value=1 << 20),
        spread_b=st.integers(min_value=1, max_value=1 << 20),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_configuration_never_worse_than_vertical(self, n_rows, spread_a, spread_b, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, spread_a, size=n_rows, dtype=np.int64)
        b = a + rng.integers(0, spread_b, size=n_rows, dtype=np.int64)
        table = Table.from_columns([("a", INT64, a), ("b", INT64, b)])
        graph, config = DiffEncodingOptimizer().optimize(table)
        assert config.total_size <= config.baseline_size
        # References must stay vertical (no chains).
        for reference in config.assignments.values():
            assert reference not in config.assignments
