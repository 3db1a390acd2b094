"""The paper's own results, reproduced on the synthetic datasets.

Each table and figure is asserted against the core encoders directly, at
30,000 rows per dataset.  Saving rates do not depend on the row count except
through bit-width steps; 30,000 rows is past the step that puts ``zip_code``
below its bound.  Every tolerance is the one the paper's numbers were held to
when they were first reproduced.  Where an existing test already asserts a
result, it is named here and not repeated:

==========  =================================================================
Table 1     :class:`TestTable1` below (every group, its code, and the outlier
            share)
Table 2     :class:`TestTable2` below, all seven rows
Table 3     :class:`TestTable3` below; the Corra side is Table 2's rows, and
            the ``l_receiptdate`` pair's Corra-vs-C3 parity is
            ``test_baselines.py::TestC3Selector::test_corra_and_c3_on_par_for_dates``
Figure 2    :class:`TestFigure2` below (both ``l_shipdate`` assignments,
            greedy == exhaustive on the date graph, 82.5 MB at SF 10)
Ablations   :class:`TestDesignAblations` below
==========  =================================================================

Query latency (Figs. 5-8) is timing, not a tier-1 fact: it is the
``core.*.latency_ratio`` family of ``python3 bench/run.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import C3Selector, SingleColumnBaseline
from repro.core import (
    CompressionPlan,
    DiffEncodedColumn,
    DiffEncodingOptimizer,
    HierarchicalEncoding,
    MultiReferenceEncoding,
    NonHierarchicalEncoding,
    TableCompressor,
    optimal_configuration_exhaustive,
)
from repro.datasets import (
    DmvGenerator,
    LdbcMessageGenerator,
    TaxiGenerator,
    TpchLineitemGenerator,
    taxi_multi_reference_config,
)

N_ROWS = 30_000
SEED = 42


@pytest.fixture(scope="module")
def tables():
    return {
        "lineitem": TpchLineitemGenerator().generate_dates_only(N_ROWS, SEED),
        "taxi": TaxiGenerator().generate(N_ROWS, SEED),
        "dmv": DmvGenerator().generate_pair_only(N_ROWS, SEED),
        "message": LdbcMessageGenerator().generate_pair_only(N_ROWS, SEED),
    }


def saving_rate(table, target: str, size_bytes: int) -> float:
    """Saving over the best single-column scheme for ``target``."""
    baseline = SingleColumnBaseline().select_column(table, target).size_bytes
    return 1.0 - size_bytes / baseline


def corra_size(table, target: str, encoding: type, reference: str | None) -> int:
    """Bytes of ``target`` under one of the paper's three encodings.

    ``MultiReferenceEncoding`` takes Taxi's configuration (groups A/B/C)
    and no single reference.
    """
    if encoding is MultiReferenceEncoding:
        config = taxi_multi_reference_config()
        references = {name: table.column(name) for name in config.reference_columns}
        return encoding(config).encode(table.column(target), references).size_bytes
    return encoding().encode(table.column(target), table.column(reference), reference).size_bytes


NON_HIER, HIER, MULTI = NonHierarchicalEncoding, HierarchicalEncoding, MultiReferenceEncoding


class TestTable1:
    """The rule mixture that explains Taxi's ``total_amount``."""

    def test_rule_mixture(self, tables):
        taxi = tables["taxi"]
        config = taxi_multi_reference_config()
        references = {name: taxi.column(name) for name in config.reference_columns}
        column = MultiReferenceEncoding(config).encode(taxi.column("total_amount"), references)
        stats = column.rule_statistics()
        assert stats.labels == ["A", "A + B", "A + C", "A + B + C"]
        assert stats.codes == ["00", "01", "10", "11"]
        assert dict(zip(stats.labels, stats.probabilities)) == pytest.approx(
            {"A": 0.3119, "A + B": 0.6244, "A + C": 0.0269, "A + B + C": 0.0333}, abs=0.02
        )
        assert stats.outlier_probability == pytest.approx(0.0032, abs=0.002)


class TestTable2:
    """Space saving over single-column encoding schemes."""

    # (dataset, target, encoding, reference, paper's rate, accepted range)
    ROWS = [
        ("lineitem", "l_receiptdate", NON_HIER, "l_shipdate", 0.583, (0.563, 0.603)),
        ("lineitem", "l_commitdate", NON_HIER, "l_shipdate", 0.333, (0.313, 0.353)),
        ("taxi", "dropoff", NON_HIER, "pickup", 0.306, (0.226, 0.386)),
        ("dmv", "zip_code", HIER, "city", 0.537, (0.30, 0.70)),
        ("dmv", "city", HIER, "state", 0.018, (-0.10, 0.10)),
        ("message", "ip", HIER, "countryid", 0.171, (0.05, 0.35)),
        ("taxi", "total_amount", MULTI, None, 0.8516, (0.7916, 0.9116)),
    ]

    @pytest.mark.parametrize(
        "dataset, target, encoding, reference, paper, accepted",
        ROWS,
        ids=[row[1] for row in ROWS],
    )
    def test_saving_rate(self, tables, dataset, target, encoding, reference, paper, accepted):
        table = tables[dataset]
        rate = saving_rate(table, target, corra_size(table, target, encoding, reference))
        low, high = accepted
        assert low < rate < high, f"{target}: {rate:.3f} (paper {paper:.3f})"


class TestTable3:
    """Corra against the independent C3 comparator."""

    # (dataset, target, Corra's encoding, reference, schemes C3 may choose)
    PAIRS = [
        ("lineitem", "l_commitdate", NON_HIER, "l_shipdate", {"DFOR", "Numerical"}),
        ("lineitem", "l_receiptdate", NON_HIER, "l_shipdate", {"DFOR", "Numerical"}),
        ("taxi", "dropoff", NON_HIER, "pickup", {"DFOR", "Numerical"}),
        ("dmv", "zip_code", HIER, "city", {"1-to-1", "Hierarchical"}),
    ]

    def rates(self, tables, target: str) -> tuple[float, float, str]:
        """``(Corra rate, C3 rate, C3's scheme)`` for the pair of ``target``."""
        dataset, _, encoding, reference, _ = next(p for p in self.PAIRS if p[1] == target)
        table = tables[dataset]
        best = C3Selector().best(table, target, reference)
        return (
            saving_rate(table, target, corra_size(table, target, encoding, reference)),
            saving_rate(table, target, best.size_bytes),
            best.scheme,
        )

    @pytest.mark.parametrize(
        "target, schemes", [(p[1], p[4]) for p in PAIRS], ids=[p[1] for p in PAIRS]
    )
    def test_c3_scheme(self, tables, target, schemes):
        _, _, scheme = self.rates(tables, target)
        assert scheme in schemes

    def test_commitdate_pair_on_par(self, tables):
        """Paper: 33.3% (Corra) vs 31.5% (C3)."""
        corra, c3, _ = self.rates(tables, "l_commitdate")
        assert c3 == pytest.approx(corra, abs=0.05)

    def test_taxi_pair_c3_never_loses(self, tables):
        """Paper: 30.6% vs 52.9%.  The affine-fit Numerical scheme cannot
        recover the paper's C3 figure, but C3 can always fall back to DFOR."""
        corra, c3, _ = self.rates(tables, "dropoff")
        assert c3 >= corra - 0.01

    def test_city_zip_pair_c3_saves(self, tables):
        """Paper: 53.7% vs 59.1%."""
        _, c3, _ = self.rates(tables, "zip_code")
        assert c3 > 0.25


class TestFigure2:
    """The optimal diff-encoding configuration of the TPC-H date columns."""

    def test_reproduces_configuration(self, tables):
        dates = tables["lineitem"]
        graph, greedy = DiffEncodingOptimizer().optimize(dates)
        assert len(graph.edge_sizes) == 6  # every ordered pair of the three dates
        assert greedy.assignments == {"l_receiptdate": "l_shipdate", "l_commitdate": "l_shipdate"}
        assert greedy.total_size == optimal_configuration_exhaustive(graph).total_size
        scaled_mb = greedy.total_saving * (TpchLineitemGenerator.paper_rows / N_ROWS) / 1e6
        assert scaled_mb == pytest.approx(82.5, rel=0.05)


class TestDesignAblations:
    """The alternatives the paper discusses and rejects."""

    def test_outlier_region_beats_a_wide_code(self):
        """§2.3: diverting 0.2% wild rows keeps the code narrow, where one
        code stream would widen to fit them."""
        rng = np.random.default_rng(77)
        reference = rng.integers(0, 1 << 20, size=N_ROWS, dtype=np.int64)
        target = reference + rng.integers(0, 64, size=N_ROWS, dtype=np.int64)
        target[rng.choice(N_ROWS, size=N_ROWS // 500, replace=False)] += 1 << 34
        with_region = DiffEncodedColumn(target, reference, "ref", outlier_bit_budget=6)
        without = DiffEncodedColumn(target, reference, "ref")
        assert with_region.bit_width <= 6
        assert without.bit_width > 30
        assert with_region.size_bytes < 0.5 * without.size_bytes
        assert np.array_equal(with_region.decode_with_reference({"ref": reference}), target)

    def test_zigzag_and_frame_on_tpch_dates(self, tables):
        """Raw packing zig-zags differences of both signs; a frame of
        reference over the differences (DFOR) is never larger."""
        dates = tables["lineitem"]
        pairs = [
            ("l_commitdate", "l_receiptdate"),
            ("l_commitdate", "l_shipdate"),
            ("l_shipdate", "l_receiptdate"),
        ]
        for target, reference in pairs:
            args = (dates.column(target), dates.column(reference), reference)
            raw = NonHierarchicalEncoding(use_frame=False).encode(*args)
            framed = NonHierarchicalEncoding(use_frame=True).encode(*args)
            assert framed.size_bytes <= raw.size_bytes, (target, reference)
            if (target, reference) == pairs[0]:
                assert raw.uses_zigzag  # commit - receipt has both signs
                assert framed.uses_frame

    def test_larger_blocks_amortise_hierarchical_metadata(self, tables):
        dmv = tables["dmv"]
        plan = CompressionPlan.builder(dmv.schema).hierarchical_encode("zip_code", "city").build()
        small = TableCompressor(plan, block_size=N_ROWS // 4).compress(dmv)
        large = TableCompressor(plan, block_size=N_ROWS).compress(dmv)
        assert small.n_blocks == 4 and large.n_blocks == 1
        assert small.n_rows == large.n_rows == dmv.n_rows
        assert large.column_size("zip_code") <= small.column_size("zip_code")
