"""Out-of-core storage tests: format round-trips, disk==memory parity, cache.

The property-based section drives randomized predicates and aggregates
through a :class:`DiskRelation` and asserts bit-identical results against
the in-memory :class:`Relation` the file was written from — over a relation
mixing vertical encodings (FOR/delta/dictionary/RLE candidates) with a
diff-encoded horizontal column, serial and parallel, with cache budgets
down to "smaller than one block".  The format section round-trips footers
across both supported format versions, and the metrics section proves that
planning is metadata-only: pruned blocks contribute zero bytes read.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import DATE, INT64, STRING
from repro.errors import SerializationError, ValidationError
from repro.query import Avg, Between, Count, EngineConfig, Eq, In, Max, Min, Not, Or, Sum
from repro.storage import (
    BlockCache,
    Catalog,
    DiskRelation,
    Table,
    TableReader,
    TableWriter,
    open_table,
    write_table,
)
from repro.storage.format import FORMAT_VERSION, SUPPORTED_VERSIONS

TAGS = [f"tag_{i:02d}" for i in range(9)]
N_ROWS = 3_000
BLOCK_SIZE = 250


def _reference_table(seed: int = 23) -> Table:
    rng = np.random.default_rng(seed)
    ship = np.arange(N_ROWS, dtype=np.int64) + 8_000  # sorted (prunable)
    receipt = ship + rng.integers(1, 15, N_ROWS)  # diff-encodable
    v = rng.integers(0, 500, N_ROWS)  # unsorted ints
    runs = np.repeat(np.arange(N_ROWS // 100, dtype=np.int64), 100)  # RLE-ish
    tags = [TAGS[i] for i in rng.integers(0, len(TAGS), N_ROWS)]
    return Table.from_columns(
        [
            ("ship", DATE, ship),
            ("receipt", DATE, receipt),
            ("v", INT64, v),
            ("runs", INT64, runs),
            ("tag", STRING, tags),
        ]
    )


@pytest.fixture(scope="module")
def table() -> Table:
    return _reference_table()


@pytest.fixture(scope="module")
def relation(table):
    plan = (
        CompressionPlan.builder(table.schema)
        .diff_encode("receipt", reference="ship")
        .build()
    )
    return TableCompressor(plan, block_size=BLOCK_SIZE).compress(table)


@pytest.fixture(scope="module")
def table_path(relation, tmp_path_factory):
    path = tmp_path_factory.mktemp("corra") / "reference.corra"
    write_table(path, relation)
    return path


@pytest.fixture(scope="module")
def disk(table_path):
    with DiskRelation(table_path) as relation:
        yield relation


# -- random query strategies (mirrors test_query_plan) -------------------------

_int_leaves = st.one_of(
    st.builds(Eq, st.sampled_from(["v", "ship", "receipt", "runs"]), st.integers(-10, 9_100)),
    st.builds(
        lambda c, lo, hi: Between(c, min(lo, hi), max(lo, hi)),
        st.sampled_from(["v", "ship", "receipt"]),
        st.integers(-10, 9_100),
        st.integers(-10, 9_100),
    ),
    st.builds(In, st.just("v"), st.lists(st.integers(-10, 510), min_size=1, max_size=5)),
)
_string_leaves = st.one_of(
    st.builds(Eq, st.just("tag"), st.sampled_from(TAGS + ["absent"])),
    st.builds(
        In, st.just("tag"),
        st.lists(st.sampled_from(TAGS + ["absent"]), min_size=1, max_size=4),
    ),
)
_predicates = st.recursive(
    st.one_of(_int_leaves, _string_leaves),
    lambda children: st.one_of(
        st.builds(lambda a, b: a & b, children, children),
        st.builds(lambda a, b: Or(a, b), children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)
_aggregate_sets = st.lists(
    st.sampled_from(
        [
            ("n", Count()),
            ("total", Sum("v")),
            ("rsum", Sum("receipt")),
            ("mean", Avg("v")),
            ("rmean", Avg("receipt")),
            ("lo", Min("ship")),
            ("hi", Max("receipt")),
        ]
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
)


class TestDiskMemoryParity:
    """Disk-served results are bit-identical to the in-memory relation."""

    @settings(max_examples=25, deadline=None)
    @given(predicate=_predicates)
    def test_filter_parity(self, relation, disk, predicate):
        expected = relation.query().where(predicate).execute()
        actual = disk.query().where(predicate).execute()
        assert np.array_equal(actual.row_ids, expected.row_ids)
        assert disk.query().where(predicate).count() == expected.n_rows

    @settings(max_examples=20, deadline=None)
    @given(predicate=_predicates, aggs=_aggregate_sets)
    def test_aggregate_parity(self, relation, disk, predicate, aggs):
        expected = relation.query().where(predicate).agg(**dict(aggs)).execute()
        serial = disk.query().where(predicate).agg(**dict(aggs)).execute()
        parallel = (
            disk.query(config=EngineConfig(workers=4)).where(predicate).agg(**dict(aggs)).execute()
        )
        for name, fn in aggs:
            assert serial.scalar(name) == expected.scalar(name), fn.describe()
            assert parallel.scalar(name) == expected.scalar(name), fn.describe()

    @settings(max_examples=10, deadline=None)
    @given(predicate=_predicates)
    def test_group_by_and_select_parity(self, relation, disk, predicate):
        expected = (
            relation.query().where(predicate).group_by("tag").agg(n=Count(), m=Avg("v")).execute()
        )
        actual = (
            disk.query().where(predicate).group_by("tag").agg(n=Count(), m=Avg("v")).execute()
        )
        assert actual.columns == expected.columns
        selected = disk.query().where(predicate).select("tag", "receipt").limit(20).execute()
        reference = relation.query().where(predicate).select("tag", "receipt").limit(20).execute()
        assert selected.column("tag") == reference.column("tag")
        assert np.array_equal(selected.column("receipt"), reference.column("receipt"))

    @settings(max_examples=10, deadline=None)
    @given(predicate=_predicates)
    def test_tiny_cache_budget_stays_correct(self, table_path, relation, predicate):
        """A budget smaller than any block degrades to load-per-access."""
        with DiskRelation(table_path, cache_bytes=1) as starved:
            expected = relation.query().where(predicate).execute()
            actual = starved.query().where(predicate).execute()
            assert np.array_equal(actual.row_ids, expected.row_ids)
            assert len(starved.cache) == 0

    def test_full_scan_materialisation_matches(self, table, disk):
        result = disk.query().select(*table.column_names).execute()
        for name in table.column_names:
            values = table.column(name)
            if isinstance(values, np.ndarray):
                assert np.array_equal(result.column(name), values)
            else:
                assert result.column(name) == values


class TestMetadataOnlyPlanning:
    def test_pruned_blocks_contribute_zero_bytes(self, table_path):
        with DiskRelation(table_path) as fresh:
            # Block-aligned sorted range: 3 fully-covered blocks, rest pruned.
            query = fresh.query().where(Between("ship", 8_250, 8_999))
            assert query.count() == 750
            assert fresh.io.blocks_read == 0
            assert fresh.io.bytes_read == 0
            metrics = query.last_metrics
            assert metrics.blocks_pruned + metrics.blocks_full == fresh.n_blocks

    def test_only_surviving_blocks_are_fetched(self, table_path):
        with DiskRelation(table_path) as fresh:
            # A non-aligned range counts over exactly the two boundary
            # blocks, and only their predicate column's sub-segments move:
            # the v3 footer makes the scan column-granular.
            fresh.query().where(Between("ship", 8_100, 8_260)).count()
            scanned = [
                i for i in range(fresh.n_blocks) if fresh.is_column_cached(i, "ship")
            ]
            assert scanned == [0, 1]
            expected_bytes = sum(
                fresh.footer.blocks[i].column_segment("ship").length for i in scanned
            )
            assert fresh.io.blocks_read == 0
            assert fresh.io.columns_read == 2
            assert fresh.io.bytes_read == expected_bytes
            assert fresh.io.column_bytes_read == expected_bytes
            # The block-granular baseline those reads avoided.
            assert fresh.io.column_block_bytes == sum(
                fresh.footer.blocks[i].length for i in scanned
            )
            assert fresh.io.column_bytes_read < fresh.io.column_block_bytes

    def test_aggregates_over_covered_blocks_read_nothing(self, table_path):
        with DiskRelation(table_path) as fresh:
            result = (
                fresh.query()
                .where(Between("ship", 8_250, 8_999))
                .agg(total=Sum("v"), rsum=Sum("receipt"), mean=Avg("receipt"))
                .execute()
            )
            assert fresh.io.blocks_read == 0
            assert result.metrics.rows_gathered == 0

    def test_explain_reads_no_blocks(self, table_path):
        with DiskRelation(table_path) as fresh:
            text = fresh.query().where(Eq("ship", 8_123)).explain()
            assert "prune" in text
            assert fresh.io.blocks_read == 0

    def test_size_bytes_comes_from_footer(self, table_path, disk):
        with DiskRelation(table_path) as fresh:
            assert fresh.size_bytes == fresh.footer.data_bytes
            assert fresh.io.blocks_read == 0


class TestFormatRoundTrip:
    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_footer_round_trip_across_versions(self, relation, tmp_path, version):
        path = tmp_path / f"v{version}.corra"
        footer = write_table(path, relation, version=version)
        assert footer.version == version
        with TableReader(path) as reader:
            assert reader.version == version
            assert reader.schema == relation.schema
            assert reader.block_size == relation.block_size
            assert reader.n_rows == relation.n_rows
            assert reader.n_blocks == relation.n_blocks
            for index, block in enumerate(relation):
                entry = reader.block_entry(index)
                assert entry.n_rows == block.n_rows
                assert entry.statistics == block.statistics
                assert (entry.checksum is not None) == (version >= 2)
                restored = reader.read_block(index)
                assert restored.n_rows == block.n_rows
                assert restored.column_names == block.column_names

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_disk_relation_serves_both_versions(self, relation, tmp_path, version):
        path = tmp_path / f"rel-v{version}.corra"
        write_table(path, relation, version=version)
        with DiskRelation(path) as fresh:
            assert fresh.format_version == version
            assert fresh.query().where(Between("ship", 8_100, 8_260)).count() == (
                relation.query().where(Between("ship", 8_100, 8_260)).count()
            )

    def test_checksum_detects_corruption(self, relation, tmp_path):
        path = tmp_path / "corrupt.corra"
        footer = write_table(path, relation)
        entry = footer.blocks[0]
        data = bytearray(path.read_bytes())
        # Flip one byte in the middle of block 0's segment.
        data[entry.offset + entry.length // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with TableReader(path) as reader:
            with pytest.raises(SerializationError, match="checksum"):
                reader.read_block(0)

    def test_truncated_and_foreign_files_are_rejected(self, tmp_path):
        empty = tmp_path / "empty.corra"
        empty.write_bytes(b"")
        with pytest.raises(SerializationError):
            TableReader(empty)
        foreign = tmp_path / "foreign.corra"
        foreign.write_bytes(b"not a corra table, definitely long enough to read")
        with pytest.raises(SerializationError):
            TableReader(foreign)

    def test_writer_rejects_bad_versions_and_oversized_blocks(self, relation, tmp_path):
        with pytest.raises(ValidationError):
            TableWriter(tmp_path / "x.corra", relation.schema, BLOCK_SIZE, version=99)
        writer = TableWriter(tmp_path / "y.corra", relation.schema, block_size=10)
        with pytest.raises(ValidationError):
            writer.write_block(relation.block(0))  # 250 rows > block size 10

    def test_write_table_defaults_to_current_version(self, relation, tmp_path):
        path = tmp_path / "default.corra"
        footer = write_table(path, relation)
        assert footer.version == FORMAT_VERSION

    def test_empty_relation_round_trips(self, tmp_path):
        table = _reference_table().slice(0, 0)
        relation = TableCompressor(block_size=BLOCK_SIZE).compress(table)
        path = tmp_path / "empty-rel.corra"
        write_table(path, relation)
        with DiskRelation(path) as fresh:
            assert fresh.n_rows == 0
            assert fresh.query().where(Eq("v", 1)).count() == 0

    def test_seek_read_fallback_matches_mmap(self, table_path, relation):
        with DiskRelation(table_path, use_mmap=False) as fresh:
            predicate = Between("ship", 8_100, 8_260)
            assert fresh.query().where(predicate).count() == (
                relation.query().where(predicate).count()
            )


class TestCacheBehaviourOnDisk:
    def test_eviction_under_small_budget_keeps_results_exact(self, table_path, relation):
        # A budget of roughly three of the ~300-byte column sub-segments:
        # a scan touching every block must evict as it goes.
        budget = 3 * 300
        with DiskRelation(table_path, cache_bytes=budget, prefetch_workers=0) as small:
            predicate = Between("v", 0, 250)  # unsorted: every block scans
            expected = relation.query().where(predicate).count()
            assert small.query().where(predicate).count() == expected
            stats = small.cache_stats
            assert stats.evictions > 0
            assert stats.current_bytes <= budget
            # Re-running faults evicted segments back in, still correctly.
            assert small.query().where(predicate).count() == expected

    def test_starved_cache_loads_each_block_once_per_scan(self, table_path):
        # Budget below every segment: nothing is retained, but a worker body
        # resolves its proxy once, so a full scan reads each block's
        # predicate column exactly once — not once per proxy access.
        with DiskRelation(table_path, cache_bytes=1, prefetch_workers=0) as starved:
            starved.query().where(Between("v", 0, 250)).count()
            assert starved.io.columns_read == starved.n_blocks
            assert starved.io.blocks_read == 0
            assert starved.io.bytes_read == sum(
                entry.column_segment("v").length for entry in starved.footer.blocks
            )

    def test_warm_cache_serves_hits_without_io(self, table_path):
        with DiskRelation(table_path) as fresh:
            predicate = Between("ship", 8_100, 8_260)
            fresh.query().where(predicate).execute()
            cold_reads = fresh.io.blocks_read
            fresh.query().where(predicate).execute()
            assert fresh.io.blocks_read == cold_reads  # all hits, no new I/O
            assert fresh.cache_stats.hits > 0

    def test_shared_cache_across_tables(self, relation, tmp_path):
        cache = BlockCache(budget_bytes=None)
        path_a = tmp_path / "a.corra"
        path_b = tmp_path / "b.corra"
        write_table(path_a, relation)
        write_table(path_b, relation)
        with DiskRelation(path_a, cache=cache) as a, DiskRelation(path_b, cache=cache) as b:
            a.query().where(Between("ship", 8_100, 8_260)).count()
            b.query().where(Between("ship", 8_100, 8_260)).count()
            # Same (block, column) coordinates, distinct tables: the
            # relation token in the key must keep them from colliding.
            assert a.io.columns_read == 2
            assert b.io.columns_read == 2
            assert len(cache) == 4


class TestCatalog:
    def test_save_open_list_remove(self, relation, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("lineitem", relation)
        assert catalog.tables() == ("lineitem",)
        assert "lineitem" in catalog
        with catalog.open("lineitem") as table:
            assert table.n_rows == relation.n_rows
        catalog.remove("lineitem")
        assert catalog.tables() == ()
        assert "lineitem" not in catalog

    def test_duplicate_save_requires_overwrite(self, relation, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("t", relation)
        with pytest.raises(ValidationError):
            catalog.save("t", relation)
        catalog.save("t", relation, overwrite=True)

    def test_open_unknown_table(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        # Read paths never create the directory; a missing root says so.
        with pytest.raises(ValidationError, match="does not exist"):
            catalog.open("missing")
        assert not (tmp_path / "cat").exists()
        (tmp_path / "cat").mkdir()
        with pytest.raises(ValidationError, match="no table named"):
            catalog.open("missing")
        with pytest.raises(ValidationError):
            catalog.remove("missing")

    def test_invalid_names_rejected(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        for name in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ValidationError):
                catalog.path_of(name)
            assert name not in catalog

    def test_open_table_helper(self, table_path):
        with open_table(table_path) as fresh:
            assert fresh.n_rows == N_ROWS
