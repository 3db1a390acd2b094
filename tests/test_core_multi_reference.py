"""Unit tests for multi-reference encoding and the outlier store (paper §2.3)."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack import BitPackedArray
from repro.core import (
    ArithmeticRule,
    CompressionPlan,
    MultiReferenceConfig,
    MultiReferenceEncoding,
    OutlierStore,
    ReferenceGroup,
    TableCompressor,
)
from repro.datasets import TaxiGenerator, taxi_multi_reference_config
from repro.dtypes import INT64
from repro.errors import ConfigurationError, DecodingError, EncodingError, ValidationError
from repro.storage import Table
from repro.storage.serialization import serialize_block

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture
def simple_config():
    groups = (
        ReferenceGroup("A", ("a1", "a2")),
        ReferenceGroup("B", ("b",)),
    )
    rules = (ArithmeticRule(("A",)), ArithmeticRule(("A", "B")))
    return MultiReferenceConfig(groups=groups, rules=rules)


@pytest.fixture
def simple_data(rng):
    n = 2_000
    a1 = rng.integers(0, 100, size=n, dtype=np.int64)
    a2 = rng.integers(0, 100, size=n, dtype=np.int64)
    b = rng.integers(1, 50, size=n, dtype=np.int64)
    choose_b = rng.random(n) < 0.6
    outlier = rng.random(n) < 0.01
    total = np.where(choose_b, a1 + a2 + b, a1 + a2)
    total[outlier] += 10_000
    return {"a1": a1, "a2": a2, "b": b}, total, outlier


class TestConfig:
    def test_reference_columns_in_order(self, simple_config):
        assert simple_config.reference_columns == ("a1", "a2", "b")

    def test_code_width(self, simple_config):
        assert simple_config.code_bit_width == 1

    def test_four_rules_need_two_bits(self):
        config = taxi_multi_reference_config()
        assert config.code_bit_width == 2
        assert [r.label for r in config.rules] == ["A", "A + B", "A + C", "A + B + C"]

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiReferenceConfig(
                groups=(ReferenceGroup("A", ("x",)), ReferenceGroup("A", ("y",))),
                rules=(ArithmeticRule(("A",)),),
            )

    def test_rule_referencing_unknown_group_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiReferenceConfig(
                groups=(ReferenceGroup("A", ("x",)),),
                rules=(ArithmeticRule(("A", "Z")),),
            )

    def test_empty_rules_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiReferenceConfig(groups=(ReferenceGroup("A", ("x",)),), rules=())

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ReferenceGroup("A", ())

    def test_duplicate_groups_in_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            ArithmeticRule(("A", "A"))


class TestEncoding:
    def test_roundtrip(self, simple_config, simple_data):
        references, total, _ = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        decoded = column.decode_with_reference(references)
        assert np.array_equal(decoded, total)

    def test_gather_subset(self, simple_config, simple_data, rng):
        references, total, _ = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        pos = rng.integers(0, len(total), size=100, dtype=np.int64)
        subset_refs = {name: values[pos] for name, values in references.items()}
        assert np.array_equal(
            column.gather_with_reference(pos, subset_refs), total[pos]
        )

    def test_outlier_fraction_matches_injection(self, simple_config, simple_data):
        references, total, outlier_mask = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        assert column.outliers.n_outliers == int(outlier_mask.sum())

    def test_code_width_stays_minimal_despite_outliers(self, simple_config, simple_data):
        """The paper's point: outliers do not force a wider code (no sentinel)."""
        references, total, _ = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        assert column.code_bit_width == 1

    def test_rule_statistics_sum_to_one(self, simple_config, simple_data):
        references, total, _ = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        stats = column.rule_statistics()
        assert sum(stats.probabilities) + stats.outlier_probability == pytest.approx(1.0)
        assert stats.codes == ["0", "1"]

    def test_first_matching_rule_wins(self):
        """When B is zero, A and A+B coincide; the first rule must be chosen."""
        config = MultiReferenceConfig(
            groups=(ReferenceGroup("A", ("a",)), ReferenceGroup("B", ("b",))),
            rules=(ArithmeticRule(("A",)), ArithmeticRule(("A", "B"))),
        )
        references = {
            "a": np.array([10, 10], dtype=np.int64),
            "b": np.array([0, 5], dtype=np.int64),
        }
        total = np.array([10, 15], dtype=np.int64)
        column = MultiReferenceEncoding(config).encode(total, references)
        stats = column.rule_statistics()
        assert stats.probabilities == [0.5, 0.5]

    def test_missing_reference_column_rejected(self, simple_config):
        with pytest.raises(EncodingError):
            MultiReferenceEncoding(simple_config).encode(
                np.array([1], dtype=np.int64), {"a1": np.array([1], dtype=np.int64)}
            )

    def test_reference_length_mismatch_rejected(self, simple_config):
        with pytest.raises(EncodingError):
            MultiReferenceEncoding(simple_config).encode(
                np.array([1, 2], dtype=np.int64),
                {
                    "a1": np.array([1, 2], dtype=np.int64),
                    "a2": np.array([1, 2], dtype=np.int64),
                    "b": np.array([1], dtype=np.int64),
                },
            )

    def test_decode_without_reference_raises(self, simple_config, simple_data):
        references, total, _ = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        with pytest.raises(DecodingError):
            column.decode()


class TestTaxiConfiguration:
    def test_taxi_mixture_close_to_paper(self):
        taxi = TaxiGenerator().generate_monetary_only(50_000, seed=11)
        config = taxi_multi_reference_config()
        references = {name: taxi.column(name) for name in config.reference_columns}
        column = MultiReferenceEncoding(config).encode(
            taxi.column("total_amount"), references
        )
        stats = column.rule_statistics()
        observed = dict(zip(stats.labels, stats.probabilities))
        assert observed["A"] == pytest.approx(0.3119, abs=0.02)
        assert observed["A + B"] == pytest.approx(0.6244, abs=0.02)
        assert stats.outlier_probability == pytest.approx(0.0032, abs=0.002)

    def test_taxi_roundtrip(self):
        taxi = TaxiGenerator().generate_monetary_only(20_000, seed=11)
        config = taxi_multi_reference_config()
        references = {name: taxi.column(name) for name in config.reference_columns}
        column = MultiReferenceEncoding(config).encode(
            taxi.column("total_amount"), references
        )
        assert np.array_equal(
            column.decode_with_reference(references), taxi.column("total_amount")
        )

    def test_taxi_saving_is_large(self):
        taxi = TaxiGenerator().generate_monetary_only(20_000, seed=11)
        config = taxi_multi_reference_config()
        references = {name: taxi.column(name) for name in config.reference_columns}
        column = MultiReferenceEncoding(config).encode(
            taxi.column("total_amount"), references
        )
        # Vertical FOR needs ~13-14 bits per row; the rule codes need 2.
        vertical_bytes = 13 * taxi.n_rows / 8
        assert column.size_bytes < 0.35 * vertical_bytes


class TestOutlierStore:
    def test_apply_overrides_positions(self):
        store = OutlierStore(np.array([2, 5]), np.array([100, 200]))
        reconstructed = np.zeros(8, dtype=np.int64)
        out = store.apply(np.arange(8), reconstructed)
        assert out[2] == 100 and out[5] == 200
        assert out[[0, 1, 3, 4, 6, 7]].sum() == 0

    def test_apply_on_subset_positions(self):
        store = OutlierStore(np.array([10]), np.array([7]))
        out = store.apply(np.array([9, 10, 11]), np.array([1, 2, 3], dtype=np.int64))
        assert out.tolist() == [1, 7, 3]

    def test_membership(self):
        store = OutlierStore(np.array([1, 4]), np.array([11, 44]))
        is_outlier, values = store.membership(np.array([0, 1, 4, 9]))
        assert is_outlier.tolist() == [False, True, True, False]
        assert values[1] == 11 and values[2] == 44

    def test_from_mask(self):
        values = np.array([5, 6, 7, 8], dtype=np.int64)
        store = OutlierStore.from_mask(np.array([False, True, False, True]), values)
        assert store.positions.tolist() == [1, 3]
        assert store.values.tolist() == [6, 8]

    def test_empty_store(self):
        store = OutlierStore.empty()
        assert not store
        assert store.size_bytes > 0  # header only
        out = store.apply(np.array([0, 1]), np.array([9, 9], dtype=np.int64))
        assert out.tolist() == [9, 9]

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValidationError):
            OutlierStore(np.array([1, 1]), np.array([2, 3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            OutlierStore(np.array([1, 2]), np.array([3]))

    def test_fraction(self):
        store = OutlierStore(np.array([0, 1, 2]), np.array([0, 0, 0]))
        assert store.fraction_of(1_000) == pytest.approx(0.003)
        with pytest.raises(ValidationError):
            store.fraction_of(0)


# -- reconstruction against the per-rule original ---------------------------------

GROUPS = (
    ReferenceGroup("A", ("a1", "a2", "a3")),
    ReferenceGroup("B", ("b",)),
    ReferenceGroup("C", ("c1", "c2")),
    ReferenceGroup("D", ("d",)),
)

#: Rule tables by how their groups are used: by every rule, by some, by none.
RULE_SETS = {
    "A every, B and C some, D none": (("A", "B"), ("A", "C"), ("A", "B", "C")),
    "no group in every rule": (("A",), ("B",), ("B", "C")),
    "one rule": (("C", "A"),),
    "every group some": (("A", "B"), ("C", "D"), ("A", "D"), ("B",)),
    "every group every rule": (("A", "B", "C", "D"), ("D", "C", "B", "A")),
}

POSITION_KINDS = ("all", "ascending", "unsorted", "repeated", "empty", "first", "last")


def _config(rules) -> MultiReferenceConfig:
    return MultiReferenceConfig(groups=GROUPS, rules=tuple(ArithmeticRule(r) for r in rules))


def _rule_predictions(config: MultiReferenceConfig, columns: dict, n: int) -> list:
    """Every rule on every row: the sum of its groups' columns."""
    predictions = []
    for rule in config.rules:
        total = np.zeros(n, dtype=np.int64)
        for group in config.groups:
            if group.name in rule.groups:
                for name in group.columns:
                    total = total + columns[name]
        predictions.append(total)
    return predictions


def _reconstruct_reference(column, positions: np.ndarray, columns: dict) -> np.ndarray:
    """The per-rule reconstruction: stack every rule's prediction, pick each
    row's by a 2-D fancy index, then patch outliers through ``membership``."""
    pos = np.asarray(positions, dtype=np.int64)
    picked = {name: values[pos] for name, values in columns.items()}
    stacked = np.stack(_rule_predictions(column.config, picked, pos.size), axis=0)
    reconstructed = stacked[column.gather_codes(pos), np.arange(pos.size)]
    is_outlier, values = column.outliers.membership(pos)
    return np.where(is_outlier, values, reconstructed)


def _mixture(config: MultiReferenceConfig, n: int, magnitude: int, seed: int):
    """Reference columns, and a target following a random rule per row with
    outliers at rows 0 and ``n - 1`` (plus a few more)."""
    rng = np.random.default_rng(seed)
    names = [name for group in GROUPS for name in group.columns]
    columns = {name: rng.integers(-magnitude, magnitude, n) for name in names}
    predictions = np.stack(_rule_predictions(config, columns, n), axis=0)
    target = predictions[rng.integers(0, len(config.rules), n), np.arange(n)]
    rows = np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, 3)]))
    target[rows] = rng.integers(-(2**63), 2**63 - 1, rows.size)
    return columns, target, rows


def _positions(kind: str, n: int, rng) -> np.ndarray:
    if kind == "all":
        return np.arange(n)
    if kind == "ascending":
        return np.union1d(rng.choice(n, n // 3, replace=False), [0, n - 1])
    if kind == "unsorted":
        return rng.permutation(n)[: n // 2 + 1]
    if kind == "repeated":
        return rng.integers(0, n, 2 * n)
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    return np.array([0 if kind == "first" else n - 1])


class TestReconstructionMatchesPerRuleReference:
    @pytest.mark.parametrize("rules", list(RULE_SETS.values()), ids=list(RULE_SETS))
    @pytest.mark.parametrize("magnitude", [1_000, 2**62], ids=["small", "wrapping"])
    def test_every_position_kind(self, rules, magnitude):
        config = _config(rules)
        n = 400
        columns, target, outlier_rows = _mixture(config, n, magnitude, seed=len(rules))
        column = MultiReferenceEncoding(config).encode(target, columns)
        assert {0, n - 1} <= set(column.outliers.positions.tolist())
        assert set(outlier_rows.tolist()) <= set(column.outliers.positions.tolist())
        rng = np.random.default_rng(7)
        for kind in POSITION_KINDS:
            pos = _positions(kind, n, rng)
            picked = {name: values[pos] for name, values in columns.items()}
            got = column.gather_with_reference(pos, picked)
            assert got.dtype == np.int64
            assert np.array_equal(got, _reconstruct_reference(column, pos, columns)), kind
            assert np.array_equal(got, target[pos]), kind

    def test_paper_configuration(self):
        taxi = TaxiGenerator().generate_monetary_only(5_000, seed=3)
        config = taxi_multi_reference_config()
        columns = {name: taxi.column(name) for name in config.reference_columns}
        target = taxi.column("total_amount")
        column = MultiReferenceEncoding(config).encode(target, columns)
        rng = np.random.default_rng(1)
        for kind in POSITION_KINDS:
            pos = _positions(kind, target.size, rng)
            picked = {name: values[pos] for name, values in columns.items()}
            got = column.gather_with_reference(pos, picked)
            assert np.array_equal(got, _reconstruct_reference(column, pos, columns)), kind
            assert np.array_equal(got, target[pos]), kind

    @pytest.mark.parametrize("kind", [k for k in POSITION_KINDS if k != "empty"])
    def test_codes_beyond_the_rule_table_raise(self, kind):
        config = _config(RULE_SETS["A every, B and C some, D none"])  # 3 rules, 2-bit codes
        n = 64
        columns, target, _ = _mixture(config, n, 1_000, seed=0)
        column = MultiReferenceEncoding(config).encode(target, columns)
        column._codes = BitPackedArray.from_values(np.full(n, 3, dtype=np.int64), 2)
        pos = _positions(kind, n, np.random.default_rng(0))
        with pytest.raises(DecodingError):
            column.gather_with_reference(pos, {name: v[pos] for name, v in columns.items()})

    def test_reference_checks_still_apply(self, simple_config, simple_data):
        references, total, _ = simple_data
        column = MultiReferenceEncoding(simple_config).encode(total, references)
        pos = np.arange(10)
        picked = {name: values[pos] for name, values in references.items()}
        with pytest.raises(DecodingError):
            column.gather_with_reference(pos, {k: v for k, v in picked.items() if k != "b"})
        with pytest.raises(DecodingError):
            column.gather_with_reference(pos, {**picked, "b": picked["b"][:-1]})
        with pytest.raises(EncodingError):
            column.gather_with_reference(pos, {**picked, "a1": picked["a1"].astype(float)})

    def test_group_usage_table_is_never_serialised(self, simple_config, simple_data):
        references, total, _ = simple_data
        table = Table.from_columns(
            [(name, INT64, values) for name, values in references.items()]
            + [("total", INT64, total)]
        )
        plan = CompressionPlan.builder(table.schema).multi_reference_encode(
            "total", simple_config
        ).build()
        block = TableCompressor(plan).compress(table).block(0)
        before = serialize_block(block)
        assert np.array_equal(block.gather_column("total", np.arange(5)), total[:5])
        assert hasattr(block.column("total"), "_cached_group_usage")
        assert serialize_block(block) == before


class TestOutlierPatchPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        outliers=st.lists(st.integers(0, 300), unique=True, max_size=40),
        queried=st.lists(st.integers(0, 300), max_size=120),
        ascending=st.booleans(),
    )
    def test_apply_equals_the_membership_patch(self, outliers, queried, ascending):
        store = OutlierStore(np.array(outliers, dtype=np.int64), np.array(outliers) * 3 - 7)
        pos = np.array(sorted(set(queried)) if ascending else queried, dtype=np.int64)
        reconstructed = np.arange(pos.size, dtype=np.int64) - 1_000
        is_outlier, values = store.membership(pos)
        out = store.apply(pos, reconstructed)
        assert np.array_equal(out, np.where(is_outlier, values, reconstructed))
        assert np.array_equal(reconstructed, np.arange(pos.size) - 1_000)  # input untouched

    def test_outliers_at_the_first_and_last_position(self):
        store = OutlierStore(np.array([0, 9]), np.array([-1, -2]))
        out = store.apply(np.arange(10), np.zeros(10, dtype=np.int64))
        assert out.tolist() == [-1] + [0] * 8 + [-2]
        assert store.apply(np.array([9]), np.array([5])).tolist() == [-2]
        assert store.apply(np.array([4]), np.array([5])).tolist() == [5]


def _called_in(path: Path, cls: str, method: str) -> set[str]:
    """Names of the functions called inside ``cls.method`` of ``path``."""
    tree = ast.parse(path.read_text())
    node = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls)
    func = next(n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == method)
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
    }


def test_gather_builds_no_per_rule_predictions():
    called = _called_in(
        SRC / "core" / "multi_reference.py", "MultiReferenceEncodedColumn", "gather_with_reference"
    )
    assert "stack" not in called
    assert "rule_predictions" not in called
