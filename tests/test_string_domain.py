"""One string domain: a dictionary's distinct strings, factorised and read once.

A string column's sorted distinct values are computed by one function
(:func:`repro.encodings.dictionary.factorize_strings`), held by one
:class:`StringHeap` that answers every read from its decoded strings, and
grouped on as plain ``str`` keys whether a block answers the group-by in
code space or decodes the column.  These tests pin the three halves: the
factorisation equals numpy's, a group-by over blocks that encode the same
column differently equals the plain-Python answer, and the bytes written
for string blocks do not move.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.encodings.dictionary import StringHeap, factorize_strings
from repro.query import Count, Max
from repro.storage import Relation, Table, serialize_block

# Multi-byte UTF-8 and the empty string included.
STRINGS = st.text(alphabet="abéß日本\U0001f600", max_size=4)


@st.composite
def string_columns(draw):
    pool = draw(st.lists(STRINGS, min_size=1, max_size=8, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return [pool[i] for i in picks]


def _numpy_factorisation(values: list[str]) -> tuple[np.ndarray, list[str]]:
    domain, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    return codes.astype(np.int64), [str(s) for s in domain]


@given(values=string_columns())
@settings(max_examples=150, deadline=None)
def test_factorisation_equals_numpy_unique(values):
    codes, domain = factorize_strings(values)
    expected_codes, expected_domain = _numpy_factorisation(values)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, expected_codes)
    assert domain == expected_domain


@pytest.mark.parametrize(
    "values",
    [[], [""], ["solo"], ["same"] * 5, ["日本", "", "é", "日本", "a", ""]],
    ids=["empty", "empty-string", "one-value", "all-equal", "multi-byte"],
)
def test_factorisation_edge_cases(values):
    codes, domain = factorize_strings(values)
    expected_codes, expected_domain = _numpy_factorisation(values)
    assert np.array_equal(codes, expected_codes)
    assert domain == expected_domain


@given(values=string_columns())
@settings(max_examples=60, deadline=None)
def test_heap_reads_agree_with_the_domain(values):
    _, domain = factorize_strings(values)
    heap = StringHeap(domain)
    assert heap.all_strings() == domain
    assert [heap[i] for i in range(len(heap))] == domain
    picks = np.arange(len(domain))[::-1].repeat(2)
    assert heap.lookup_many(picks) == [domain[i] for i in picks]
    # The stored layout: the UTF-8 encodings back to back, and where each
    # entry starts and ends.
    encoded = [s.encode("utf-8") for s in domain]
    assert heap._payload == b"".join(encoded)
    assert heap._offsets.dtype == np.int64
    assert heap._offsets.tolist() == [0, *itertools.accumulate(map(len, encoded))]
    assert heap.size_bytes == len(heap._payload) + 4 * (len(domain) + 1)
    for i, value in enumerate(domain):
        assert heap.find(value) == i
        assert heap.bisect_left(value) == i
        assert heap.bisect_right(value) == i + 1


# ---------------------------------------------------------------------------
# a group-by over blocks that encode the same string column differently
# ---------------------------------------------------------------------------


def _mixed_relation() -> tuple[Relation, Table]:
    """``city`` is a dictionary column in one block and a hierarchical
    target (decoded through its reference) in the other."""
    cities = ["Ålesund", "Bonn", "", "Zürich", "東京", "Bonn"]
    n = 240
    city = [cities[(i * 7) % len(cities)] for i in range(n)]
    region = np.asarray([cities.index(c) % 3 for c in city], dtype=np.int64)
    value = np.asarray([(i * 37) % 101 for i in range(n)], dtype=np.int64)
    table = Table.from_columns(
        [("region", INT64, region), ("city", STRING, city), ("v", INT64, value)]
    )
    half = n // 2
    dictionary = CompressionPlan.builder(table.schema).vertical("city", "dictionary").build()
    hierarchical = (
        CompressionPlan.builder(table.schema).hierarchical_encode("city", "region").build()
    )
    blocks = [
        TableCompressor(dictionary).compress_block(table.slice(0, half)),
        TableCompressor(hierarchical).compress_block(table.slice(half, n)),
    ]
    return Relation(table.schema, blocks, block_size=half), table


def test_mixed_encoding_group_by_matches_the_oracle():
    relation, table = _mixed_relation()
    assert relation.block(0).encoding_of("city") == "dictionary"
    assert relation.block(1).encoding_of("city") == "hierarchical"
    result = relation.query().group_by("city").agg(n=Count(), hi=Max("v")).execute()
    expected = oracle.group_by(table, None, ["city"], {"n": Count(), "hi": Max("v")})
    assert result.columns == expected
    # One key per distinct string: the keys of the block grouped by its
    # dictionary codes and of the block that decodes ``city`` merge.
    assert result.column("city") == sorted(set(table.column("city")))
    assert result.metrics.rows_kernel_aggregated == relation.block(0).n_rows


# ---------------------------------------------------------------------------
# the bytes written for string blocks
# ---------------------------------------------------------------------------

CITIES = ["Bonn", "Zürich", "東京", "", "Bonn", "Ålesund", "Zürich", "Bonn"]
IPS = ["10.0.0.1", "10.0.0.2", "192.168.1.1", "10.0.0.1", "::1", "10.0.0.2", "", "::1"]
COUNTRIES = [4, 4, 9, 4, 7, 4, 9, 7]
ZIPS = [53111, 8001, 1000001, 0, 53113, 6001, 8002, 53111]


def _block(columns, plan):
    table = Table.from_columns(columns)
    return TableCompressor(plan(table.schema)).compress_block(table)


PINNED_BLOCKS = {
    "dictionary": (
        lambda: _block(
            [("city", STRING, CITIES)],
            lambda schema: CompressionPlan.builder(schema).vertical("city", "dictionary").build(),
        ),
        "63a68e8c15f083f84e1c4573fadfb0c5183bce7602f7a13e9ff92f8a59138fa0",
    ),
    "hierarchical-string-target": (
        lambda: _block(
            [("country", INT64, np.asarray(COUNTRIES, dtype=np.int64)), ("ip", STRING, IPS)],
            lambda schema: CompressionPlan.builder(schema)
            .vertical("country", "dictionary")
            .hierarchical_encode("ip", "country")
            .build(),
        ),
        "284eb5124db2513f4a53c34a26f2dfbfb565407f8ce653d306b20205965c1336",
    ),
    "hierarchical-string-reference": (
        lambda: _block(
            [("city", STRING, CITIES), ("zip", INT64, np.asarray(ZIPS, dtype=np.int64))],
            lambda schema: CompressionPlan.builder(schema)
            .vertical("city", "dictionary")
            .hierarchical_encode("zip", "city")
            .build(),
        ),
        "5487b1bd27ffb83b0814bee13fab1ca91c68ea4fefd0da5777cd17664c7fa17e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BLOCKS))
def test_string_block_bytes_are_pinned(name):
    build, digest = PINNED_BLOCKS[name]
    assert hashlib.sha256(serialize_block(build())).hexdigest() == digest
