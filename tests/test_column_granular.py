"""Column-granular storage tests: format v3 sub-segments, pruned I/O, prefetch.

The parity section drives randomized predicates, projections and aggregates
through v3 (column-granular), v2 (block-granular) and in-memory executions
of the same relation — over a column mix covering FOR/delta, RLE,
dictionary string, plus *horizontal* diff-encoded and hierarchical columns
— and asserts bit-identical results.  The closure section proves that
querying a horizontal column fetches its reference column's sub-segment
even when the query never names it, and nothing else; on a wide table, v3
reads grow with the projected column count while v2 reads whole blocks.
The format section
checks the v3 footer round-trip, per-column CRC corruption detection (and
that corruption of one column leaves the others readable), the lazy
per-column zone-map parse, and the read-ahead pool's accounting.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import SerializationError
from repro.query import (
    Avg,
    Between,
    Count,
    Engine,
    EngineConfig,
    Eq,
    In,
    Max,
    Min,
    Not,
    Or,
    Sum,
)
from repro.storage import (
    DiskRelation,
    LazyBlockStatistics,
    Table,
    TableReader,
    deserialize_column,
    serialize_block,
    serialize_block_with_layout,
    write_table,
)
from repro.storage.format import SUPPORTED_VERSIONS

CITIES = ["albany", "buffalo", "catskill", "delhi", "elmira", "fredonia"]
TAGS = [f"tag_{i:02d}" for i in range(9)]
N_ROWS = 3_000
BLOCK_SIZE = 250


def _mixed_table(seed: int = 31) -> Table:
    rng = np.random.default_rng(seed)
    ship = np.arange(N_ROWS, dtype=np.int64) + 8_000  # sorted (delta/FOR)
    receipt = ship + rng.integers(1, 15, N_ROWS)  # diff-encodable
    v = rng.integers(0, 500, N_ROWS)  # unsorted ints
    runs = np.repeat(np.arange(N_ROWS // 100, dtype=np.int64), 100)  # RLE-ish
    city_ids = rng.integers(0, len(CITIES), N_ROWS)
    cities = [CITIES[i] for i in city_ids]  # dictionary string
    zips = (city_ids + 1) * 10_000 + rng.integers(0, 50, N_ROWS)  # hierarchical
    tags = [TAGS[i] for i in rng.integers(0, len(TAGS), N_ROWS)]
    return Table.from_columns(
        [
            ("ship", INT64, ship),
            ("receipt", INT64, receipt),
            ("v", INT64, v),
            ("runs", INT64, runs),
            ("city", STRING, cities),
            ("zip", INT64, zips),
            ("tag", STRING, tags),
        ]
    )


@pytest.fixture(scope="module")
def table() -> Table:
    return _mixed_table()


@pytest.fixture(scope="module")
def relation(table):
    plan = (
        CompressionPlan.builder(table.schema)
        .diff_encode("receipt", reference="ship")
        .hierarchical_encode("zip", reference="city")
        .build()
    )
    return TableCompressor(plan, block_size=BLOCK_SIZE).compress(table)


@pytest.fixture(scope="module")
def paths(relation, tmp_path_factory):
    root = tmp_path_factory.mktemp("granular")
    files = {}
    for version in (2, 3):
        files[version] = root / f"mixed-v{version}.corra"
        write_table(files[version], relation, version=version)
    return files


@pytest.fixture(scope="module")
def disk_v3(paths):
    with DiskRelation(paths[3]) as rel:
        yield rel


@pytest.fixture(scope="module")
def disk_v2(paths):
    with DiskRelation(paths[2]) as rel:
        yield rel


_predicates = st.recursive(
    st.one_of(
        st.builds(
            Eq, st.sampled_from(["v", "ship", "receipt", "zip"]), st.integers(-10, 70_000)
        ),
        st.builds(
            lambda c, lo, hi: Between(c, min(lo, hi), max(lo, hi)),
            st.sampled_from(["v", "ship", "receipt", "zip"]),
            st.integers(-10, 70_000),
            st.integers(-10, 70_000),
        ),
        st.builds(In, st.just("v"), st.lists(st.integers(-10, 510), min_size=1, max_size=5)),
        st.builds(Eq, st.just("city"), st.sampled_from(CITIES + ["nowhere"])),
        st.builds(
            In, st.just("tag"),
            st.lists(st.sampled_from(TAGS + ["absent"]), min_size=1, max_size=4),
        ),
    ),
    lambda children: st.one_of(
        st.builds(lambda a, b: a & b, children, children),
        st.builds(lambda a, b: Or(a, b), children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)
_projections = st.lists(
    st.sampled_from(["ship", "receipt", "v", "runs", "city", "zip", "tag"]),
    min_size=1,
    max_size=3,
    unique=True,
)
_aggregate_sets = st.lists(
    st.sampled_from(
        [
            ("n", Count()),
            ("total", Sum("v")),
            ("rsum", Sum("receipt")),
            ("zsum", Sum("zip")),
            ("mean", Avg("receipt")),
            ("lo", Min("ship")),
            ("hi", Max("zip")),
        ]
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
)


class TestColumnPrunedParity:
    """v3 column-pruned execution == v2 block execution == in-memory."""

    @settings(max_examples=25, deadline=None)
    @given(predicate=_predicates, projection=_projections)
    def test_select_parity(self, relation, disk_v2, disk_v3, predicate, projection):
        expected = relation.query().where(predicate).select(*projection).execute()
        for disk in (disk_v2, disk_v3):
            actual = disk.query().where(predicate).select(*projection).execute()
            assert np.array_equal(actual.row_ids, expected.row_ids)
            for name in projection:
                expected_values = expected.column(name)
                if isinstance(expected_values, np.ndarray):
                    assert np.array_equal(actual.column(name), expected_values)
                else:
                    assert actual.column(name) == expected_values

    @settings(max_examples=20, deadline=None)
    @given(predicate=_predicates, aggs=_aggregate_sets)
    def test_aggregate_parity(self, relation, disk_v2, disk_v3, predicate, aggs):
        expected = relation.query().where(predicate).agg(**dict(aggs)).execute()
        for disk in (disk_v2, disk_v3):
            serial = disk.query().where(predicate).agg(**dict(aggs)).execute()
            with Engine(EngineConfig(workers=4)) as engine:
                parallel = engine.query(disk).where(predicate).agg(**dict(aggs)).execute()
            for name, fn in aggs:
                assert serial.scalar(name) == expected.scalar(name), fn.describe()
                assert parallel.scalar(name) == expected.scalar(name), fn.describe()

    @settings(max_examples=10, deadline=None)
    @given(predicate=_predicates)
    def test_group_by_parity(self, relation, disk_v3, predicate):
        expected = (
            relation.query().where(predicate).group_by("city").agg(n=Count(), z=Sum("zip"))
        ).execute()
        actual = (
            disk_v3.query().where(predicate).group_by("city").agg(n=Count(), z=Sum("zip"))
        ).execute()
        assert actual.columns == expected.columns

    @settings(max_examples=10, deadline=None)
    @given(predicate=_predicates, projection=_projections)
    def test_tiny_cache_and_no_prefetch_stay_correct(
        self, paths, relation, predicate, projection
    ):
        expected = relation.query().where(predicate).select(*projection).execute()
        with DiskRelation(paths[3], cache_bytes=1, prefetch_workers=0) as starved:
            actual = starved.query().where(predicate).select(*projection).execute()
            assert np.array_equal(actual.row_ids, expected.row_ids)
            assert len(starved.cache) == 0


class TestDependencyClosure:
    """Horizontal columns fetch their reference sub-segments — nothing more."""

    def test_diff_projection_reads_reference_closure(self, paths, table):
        with DiskRelation(paths[3], prefetch_workers=0) as fresh:
            result = fresh.query().select("receipt").limit(400).execute()
            assert np.array_equal(
                result.column("receipt"), np.asarray(table.column("receipt"))[:400]
            )
            # The diff-encoded target needs its reference column 'ship' even
            # though the query never names it; no other column moves.
            read = {
                name
                for i in range(fresh.n_blocks)
                for name in fresh.schema.names
                if fresh.is_column_cached(i, name)
            }
            assert read == {"receipt", "ship"}
            assert fresh.io.blocks_read == 0

    def test_hierarchical_projection_reads_reference_closure(self, paths, table):
        with DiskRelation(paths[3], prefetch_workers=0) as fresh:
            result = fresh.query().select("zip").limit(400).execute()
            assert np.array_equal(
                result.column("zip"), np.asarray(table.column("zip"))[:400]
            )
            read = {
                name
                for i in range(fresh.n_blocks)
                for name in fresh.schema.names
                if fresh.is_column_cached(i, name)
            }
            assert read == {"zip", "city"}

    def test_closure_resolved_from_footer_metadata(self, disk_v3):
        # No I/O: the dependency closure comes from the footer's column index.
        before = disk_v3.io.bytes_read
        assert disk_v3.column_closure(0, ["receipt"]) == ("receipt", "ship")
        assert disk_v3.column_closure(0, ["zip", "v"]) == ("zip", "city", "v")
        assert disk_v3.column_closure(0, ["ship"]) == ("ship",)
        block = disk_v3.blocks[0]
        assert block.dependency("receipt").references == ("ship",)
        assert block.dependency("v") is None
        assert block.is_horizontal("zip")
        assert not block.is_horizontal("tag")
        assert disk_v3.io.bytes_read == before

    def test_predicate_on_horizontal_column_stays_column_granular(self, paths, relation):
        predicate = Between("receipt", 8_500, 8_700)
        expected = relation.query().where(predicate).count()
        with DiskRelation(paths[3], prefetch_workers=0) as fresh:
            assert fresh.query().where(predicate).count() == expected
            assert fresh.io.blocks_read == 0
            assert 0 < fresh.io.column_bytes_read < fresh.io.column_block_bytes


class TestProjectedBytes:
    """On a wide table, v3 reads grow with the projection; v2 reads whole blocks."""

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        rng = np.random.default_rng(42)
        n_rows = 8_000
        key = np.sort(rng.integers(0, n_rows // 8, n_rows))
        columns = [("key", INT64, key)]
        columns += [(f"c{i:02d}", INT64, rng.integers(0, 1 << 16, n_rows)) for i in range(1, 20)]
        relation = TableCompressor(block_size=n_rows // 16).compress(Table.from_columns(columns))
        root = tmp_path_factory.mktemp("wide")
        for version in (2, 3):
            write_table(root / f"wide-v{version}.corra", relation, version=version)
        return root, relation, Between("key", int(key[0]), int(key[n_rows // 10]))

    def test_bytes_read_per_projected_column_count(self, wide):
        root, relation, predicate = wide
        bytes_read: dict = {2: {}, 3: {}}
        for k in (2, 10, 20):
            projection = ("key",) + tuple(f"c{i:02d}" for i in range(1, k))
            expected = relation.query().where(predicate).select(*projection).execute()
            for version in (2, 3):
                path = root / f"wide-v{version}.corra"
                with DiskRelation(path, prefetch_workers=0) as fresh:
                    result = fresh.query().where(predicate).select(*projection).execute()
                    assert np.array_equal(result.row_ids, expected.row_ids)
                    for name in projection:
                        assert np.array_equal(result.column(name), expected.column(name))
                    bytes_read[version][k] = fresh.io.bytes_read
        # 2 of 20 columns: v3 moves at most a quarter of v2's bytes.
        assert bytes_read[3][2] <= 0.25 * bytes_read[2][2]
        assert bytes_read[3][2] < bytes_read[3][10] <= bytes_read[3][20]
        assert bytes_read[2][2] == bytes_read[2][20]
        # Projecting everything converges to (at most about) the v2 reads.
        assert bytes_read[3][20] <= 1.1 * bytes_read[2][20]


class TestFormatV3:
    def test_footer_indexes_every_column_span(self, paths, relation):
        with TableReader(paths[3]) as reader:
            assert reader.column_granular
            for index, block in enumerate(relation):
                entry = reader.block_entry(index)
                payload, spans = serialize_block_with_layout(block)
                assert payload == serialize_block(block)
                assert set(entry.columns) == set(block.columns)
                for name, (offset, length) in spans.items():
                    segment = entry.columns[name]
                    assert (segment.offset, segment.length) == (offset, length)
                    assert segment.checksum == zlib.crc32(
                        payload[offset : offset + length]
                    )
                    stored_name, dependency, encoded = deserialize_column(
                        payload[offset : offset + length]
                    )
                    assert stored_name == name
                    assert dependency == block.dependency(name)
                    assert encoded.n_values == block.n_rows

    def test_read_column_matches_full_block(self, paths, relation):
        with TableReader(paths[3]) as reader:
            block = reader.read_block(0)
            for name in relation.schema.names:
                encoded, dependency = reader.read_column(0, name)
                assert type(encoded) is type(block.column(name))
                assert dependency == block.dependency(name)

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_column_index_presence_by_version(self, relation, tmp_path, version):
        path = tmp_path / f"v{version}.corra"
        footer = write_table(path, relation, version=version)
        for entry in footer.blocks:
            assert (entry.columns is not None) == (version >= 3)
        with TableReader(path) as reader:
            for index in range(reader.n_blocks):
                entry = reader.block_entry(index)
                assert (entry.columns is not None) == (version >= 3)
                restored = reader.read_block(index)
                assert restored.column_names == relation.block(index).column_names

    def test_column_crc_detects_corruption_and_isolates_it(self, paths, relation, tmp_path):
        source = paths[3].read_bytes()
        path = tmp_path / "corrupt-column.corra"
        path.write_bytes(source)
        with TableReader(paths[3]) as reader:
            entry = reader.block_entry(0)
        segment = entry.columns["v"]
        data = bytearray(source)
        # Flip one byte in the middle of block 0's 'v' sub-segment.
        target = entry.offset + segment.offset + segment.length // 2
        data[target] ^= 0xFF
        path.write_bytes(bytes(data))
        with TableReader(path) as reader:
            with pytest.raises(SerializationError, match="checksum"):
                reader.read_column(0, "v")
            # The whole-block checksum catches it too ...
            with pytest.raises(SerializationError, match="checksum"):
                reader.read_block(0)
        # ... but other columns' sub-segments stay readable: a query that
        # never touches 'v' is unaffected by the corruption.
        with DiskRelation(path, prefetch_workers=0) as fresh:
            expected = relation.query().where(Between("ship", 8_000, 8_100)).count()
            assert fresh.query().where(Between("ship", 8_000, 8_100)).count() == expected
            with pytest.raises(SerializationError, match="checksum"):
                fresh.query().where(Between("v", 0, 250)).count()

    def test_lazy_zone_maps_parse_per_column(self, paths):
        with DiskRelation(paths[3]) as fresh:
            statistics = fresh.footer.blocks[0].statistics
            assert isinstance(statistics, LazyBlockStatistics)
            assert statistics.parsed_column_names == ()
            fresh.query().where(Between("ship", 8_000, 8_100)).explain()
            # Planning the predicate parsed its column's zone map — only it.
            parsed = set()
            for entry in fresh.footer.blocks:
                parsed.update(entry.statistics.parsed_column_names)
            assert parsed == {"ship"}

    def test_lazy_zone_maps_round_trip_whole_map(self, paths, relation):
        with TableReader(paths[3]) as reader:
            for index, block in enumerate(relation):
                assert reader.block_entry(index).statistics == block.statistics


class TestIOAccountingLifecycle:
    def test_reset_restarts_column_accounting(self, paths):
        with DiskRelation(paths[3], cache_bytes=0, prefetch_workers=0) as fresh:
            fresh.query().where(Between("ship", 8_000, 8_100)).count()
            assert fresh.io.columns_skipped >= 0
            fresh.io.reset()
            # A column of an already-touched block read after reset() must
            # restart the skipped/available baseline, not go negative.
            fresh.query().where(Between("v", 0, 250)).count()
            assert fresh.io.columns_skipped >= 0
            assert fresh.io.column_block_bytes > 0
            assert fresh.io.column_bytes_read <= fresh.io.column_block_bytes

    def test_is_block_cached_reflects_full_column_residency(self, paths):
        with DiskRelation(paths[3], prefetch_workers=0) as fresh:
            assert not fresh.is_block_cached(0)
            fresh.blocks[0].decode_column("v")
            assert not fresh.is_block_cached(0)  # one column resident
            for name in fresh.schema.names:
                fresh.blocks[0].column(name)
            # Every column entry resident == the block is resident, even
            # though no whole-block cache entry exists on a v3 table.
            assert fresh.is_block_cached(0)
            assert fresh.blocks[0].is_loaded


class TestReadAhead:
    def test_prefetch_overlaps_and_counts_hits(self, paths, relation):
        predicate = Between("v", 0, 250)  # unsorted: every block scans
        expected = relation.query().where(predicate).count()
        with DiskRelation(paths[3]) as fresh:
            assert fresh.query().where(predicate).count() == expected
            # Every block but the first was hinted ahead of its kernel.
            assert fresh.io.prefetch_issued > 0
            assert fresh.io.prefetch_hits <= fresh.io.prefetch_issued
            # Prefetch must not inflate I/O: exactly one 'v' segment read
            # per block, demand or read-ahead.
            assert fresh.io.columns_read == fresh.n_blocks

    def test_no_prefetch_disables_pool_and_counters(self, paths):
        with DiskRelation(paths[3], prefetch_workers=0) as fresh:
            fresh.query().where(Between("v", 0, 250)).count()
            assert fresh.io.prefetch_issued == 0
            assert fresh.io.prefetch_hits == 0
            assert not fresh.prefetch_block_columns(0, ("v",))

    def test_prefetch_hints_are_dropped_not_queued(self, paths):
        with DiskRelation(paths[3]) as fresh:
            fresh.prefetch_block_columns(0, ("v",))
            fresh.close()  # drains the pool; the fetch (if scheduled) completed
            # A closed relation refuses hints, as do out-of-range blocks and
            # (below, on a live relation) already-resident segments.
            assert not fresh.prefetch_block_columns(0, ("v",))
            assert not fresh.prefetch_block_columns(10_000, ("v",))
        with DiskRelation(paths[3], prefetch_workers=1) as live:
            live.blocks[0].decode_column("v")  # demand-load, now resident
            assert not live.prefetch_block_columns(0, ("v",))
