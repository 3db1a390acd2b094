"""The Engine: one config, memoized state, and the two front doors onto it."""

from __future__ import annotations

import ast
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import Between, Count, Engine, EngineConfig, Eq, LazyQuery, Sum
from repro.storage import DEFAULT_CACHE_BYTES, Catalog, DiskRelation, Table, write_table


def _table(n: int = 2_000, seed: int = 5) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        [
            ("ship", INT64, np.arange(n, dtype=np.int64) + 8_000),
            ("v", INT64, rng.integers(0, 500, n)),
            ("tag", STRING, [f"tag_{i}" for i in rng.integers(0, 7, n)]),
        ]
    )


def _relation(table: Table | None = None, block_size: int = 250):
    table = table if table is not None else _table()
    plan = CompressionPlan.vertical_only(table.schema)
    return TableCompressor(plan, block_size=block_size).compress(table)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.workers == 1
        assert config.cache_bytes == DEFAULT_CACHE_BYTES
        assert config.prefetch_workers == 2

    def test_with_overrides(self):
        config = EngineConfig().with_overrides(workers=4, prefetch_workers=0)
        assert config.workers == 4
        assert config.prefetch_workers == 0
        # The original is immutable and unchanged.
        assert EngineConfig().prefetch_workers == 2

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown EngineConfig field"):
            EngineConfig().with_overrides(worker_count=4)

    @pytest.mark.parametrize("workers", [-1, "4", 2.0])
    def test_rejects_bad_workers_at_construction(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            EngineConfig(workers=workers)
        with pytest.raises(ValidationError, match="workers"):
            EngineConfig().with_overrides(workers=workers)

    @pytest.mark.parametrize("prefetch_workers", [-3, None, "2"])
    def test_rejects_bad_prefetch_workers_at_construction(self, prefetch_workers):
        with pytest.raises(ValidationError, match="prefetch_workers"):
            EngineConfig(prefetch_workers=prefetch_workers)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cache_bytes", -5),
            ("cache_bytes", "x"),
            ("cache_bytes", 1.5),
            ("cache_bytes", True),
            ("workers", True),
            ("workers", False),
            ("prefetch_workers", True),
            ("prefetch_workers", False),
        ],
    )
    def test_every_field_is_validated_at_construction(self, field, value):
        # A bool is an int subclass, but not a count; cache_bytes is checked
        # here, not first by the BlockCache an Engine builds from it.
        with pytest.raises(ValidationError, match=field):
            EngineConfig(**{field: value})
        with pytest.raises(ValidationError, match=field):
            EngineConfig().with_overrides(**{field: value})

    def test_accepts_an_unbounded_or_empty_cache(self):
        assert EngineConfig(cache_bytes=None).cache_bytes is None
        assert EngineConfig(cache_bytes=0).cache_bytes == 0

    def test_accepts_auto_and_zero(self):
        assert EngineConfig(workers=None).resolved_workers() >= 1
        assert EngineConfig(workers=0).resolved_workers() >= 1
        assert EngineConfig(prefetch_workers=0).prefetch_workers == 0


class TestEngineSharedState:
    def test_compiler_memoized_per_relation(self):
        relation = _relation()
        with Engine() as engine:
            assert engine.compiler_for(relation) is engine.compiler_for(relation)
            # A different relation gets its own compiler.
            other = _relation()
            assert engine.compiler_for(other) is not engine.compiler_for(relation)

    def test_compiler_cache_is_bounded(self):
        table = _table(100)
        with Engine() as engine:
            first = _relation(table, block_size=50)
            engine.compiler_for(first)
            for _ in range(Engine.MAX_CACHED_COMPILERS):
                engine.compiler_for(_relation(table, block_size=50))
            # The first compiler fell off the LRU; a new one is built.
            assert engine.compiler_for(first) is not None
            assert len(engine._compilers) <= Engine.MAX_CACHED_COMPILERS

    def test_shared_worker_pool_across_relations(self):
        with Engine(EngineConfig(workers=2)) as engine:
            a = engine.compiler_for(_relation())
            b = engine.compiler_for(_relation())
            assert a._pool is b._pool is not None

    def test_serial_engine_has_no_pool(self):
        with Engine(EngineConfig(workers=1)) as engine:
            compiler = engine.compiler_for(_relation())
            assert compiler._pool is None

    def test_query_results_match_direct_path(self):
        relation = _relation()
        with Engine(EngineConfig(workers=2)) as engine:
            shared = (
                engine.query(relation)
                .where(Eq("tag", "tag_1"))
                .agg(n=Count(), total=Sum("v"))
                .execute()
            )
        direct = (
            relation.query().where(Eq("tag", "tag_1")).agg(n=Count(), total=Sum("v")).execute()
        )
        assert shared.columns == direct.columns

    def test_query_chain_shares_the_engine_compiler(self):
        relation = _relation()
        with Engine() as engine:
            query = engine.query(relation).where(Eq("tag", "tag_2"))
            assert query._compiler() is engine.compiler_for(relation)
            assert query.count() == relation.query().where(Eq("tag", "tag_2")).count()

    def test_closed_engine_rejects_use(self):
        engine = Engine()
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ValidationError, match="closed"):
            engine.compiler_for(_relation())
        with pytest.raises(ValidationError, match="closed"):
            engine.query(_relation())


class TestEngineCatalog:
    def test_table_memoized_and_shared_cache(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("t", _relation())
        with Engine(catalog=tmp_path / "cat") as engine:
            one = engine.table("t")
            assert engine.table("t") is one
            assert engine.tables() == {"t": one}
            assert one._cache is engine.cache

    def test_refresh_table_drops_stale_state(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("t", _relation())
        with Engine(catalog=catalog) as engine:
            stale = engine.table("t")
            engine.compiler_for(stale)
            catalog.save("t", _relation(_table(500)), overwrite=True)
            fresh = engine.refresh_table("t")
            assert fresh is not stale
            assert fresh.n_rows == 500
            assert stale.cache_token not in engine._compilers

    def test_no_catalog_raises(self):
        with Engine() as engine:
            with pytest.raises(ValidationError, match="no catalog"):
                engine.table("t")


def _new_engine_threads(before: set[threading.Thread]) -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("corra-engine")
    ]


class TestOneQuerySurface:
    """``relation.query()`` needs no close: a default engine starts no thread."""

    def test_relation_query_takes_no_arguments(self):
        relation = _relation()
        with Engine() as engine:
            with pytest.raises(TypeError):
                relation.query(engine=engine)
        with pytest.raises(TypeError):
            relation.query(config=EngineConfig(workers=2))
        with pytest.raises(TypeError):
            LazyQuery(relation)  # a chain always runs on an engine

    def _run_every_terminal(self, relation) -> None:
        query = relation.query().where(Between("ship", 8_100, 8_900))
        assert query.execute().n_rows == 801
        assert query.count() == 801
        top = query.select("ship").order_by("ship", desc=True).limit(3).execute()
        assert top.column("ship").tolist() == [8_900, 8_899, 8_898]

    def test_relation_query_starts_no_engine_thread(self, tmp_path):
        relation = _relation()
        write_table(tmp_path / "t.corra", relation)
        before = set(threading.enumerate())
        self._run_every_terminal(relation)
        with DiskRelation(tmp_path / "t.corra") as disk:
            self._run_every_terminal(disk)
        assert _new_engine_threads(before) == []

    def test_engine_block_leaves_no_thread_behind(self):
        relation = _relation()
        before = set(threading.enumerate())
        with Engine(EngineConfig(workers=2)) as engine:
            assert engine.query(relation).where(Eq("v", 3)).count() >= 0
            assert _new_engine_threads(before)  # the pool did start
        assert _new_engine_threads(before) == []


class TestDeprecatedKeywordPaths:
    def test_legacy_keywords_are_type_errors(self):
        relation = _relation()
        with pytest.raises(TypeError):
            relation.query(workers=2)
        with pytest.raises(TypeError):
            EngineConfig(use_kernels=False)

    def test_engine_bound_query_does_not_warn(self):
        relation = _relation()
        with Engine() as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert engine.query(relation).where(Eq("v", 1)).count() >= 0


# -- no A/B switch is left in any layer ------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: The zone-map and kernel off-switches the engine used to carry.
SWITCHES = {"use_statistics", "use_kernels"}


def switch_declarations(root: Path) -> tuple[set[str], set[str]]:
    """``(functions taking a switch as a parameter, classes with a switch field)``."""
    functions, classes = set(), set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text())
        methods = {
            id(node): f"{owner.name}.{node.name}"
            for owner in ast.walk(tree)
            if isinstance(owner, ast.ClassDef)
            for node in owner.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if names & SWITCHES:
                    functions.add(methods.get(id(node), node.name))
            elif isinstance(node, ast.ClassDef):
                fields = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
                if fields & SWITCHES:
                    classes.add(node.name)
    return functions, classes


def test_no_switch_is_declared():
    assert {f.name for f in fields(EngineConfig)} == {"workers", "cache_bytes", "prefetch_workers"}
    assert switch_declarations(SRC) == (set(), set())
    for path in SRC.rglob("*.py"):
        assert "ColumnPredicate" not in path.read_text(), path


def test_the_walk_sees_parameters_and_fields(tmp_path):
    (tmp_path / "sample.py").write_text(
        "class A:\n    use_kernels: bool = True\n"
        "    def f(self, *, use_statistics=True): ...\n"
        "def g(use_statistics):\n    def h(use_kernels): ...\n"
    )
    assert switch_declarations(tmp_path) == ({"A.f", "g", "h"}, {"A"})
