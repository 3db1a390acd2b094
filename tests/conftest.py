"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    DmvGenerator,
    LdbcMessageGenerator,
    TaxiGenerator,
    TpchLineitemGenerator,
)
from repro.dtypes import DATE, INT64, STRING
from repro.query import Engine, EngineConfig
from repro.storage import Table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_int_table() -> Table:
    """A tiny integer table with an obvious correlated column pair."""
    base = np.arange(0, 1_000, dtype=np.int64) * 3 + 10_000
    offset = np.tile(np.arange(1, 11, dtype=np.int64), 100)
    return Table.from_columns(
        [
            ("base", INT64, base),
            ("shifted", INT64, base + offset),
            ("independent", INT64, np.arange(1_000, dtype=np.int64) % 7),
        ]
    )


@pytest.fixture
def city_zip_table() -> Table:
    """A tiny hierarchical (city, zip) table mirroring the paper's Fig. 3."""
    cities = ["Cortland", "Naples", "Naples", "Naples", "NYC", "NYC"] * 50
    zips = [13045, 34102, 34112, 34102, 10016, 10001] * 50
    return Table.from_columns(
        [
            ("city", STRING, cities),
            ("zip_code", INT64, np.asarray(zips, dtype=np.int64)),
        ]
    )


@pytest.fixture(scope="session")
def tpch_dates() -> Table:
    return TpchLineitemGenerator().generate_dates_only(20_000, seed=7)


@pytest.fixture(scope="session")
def taxi_table() -> Table:
    return TaxiGenerator().generate(20_000, seed=7)


@pytest.fixture(scope="session")
def dmv_table() -> Table:
    return DmvGenerator().generate_pair_only(20_000, seed=7)


@pytest.fixture(scope="session")
def ldbc_table() -> Table:
    return LdbcMessageGenerator().generate_pair_only(20_000, seed=7)


@pytest.fixture
def dates_schema_table() -> Table:
    """Three date-like columns with exact, known differences."""
    ship = np.arange(8_000, 9_000, dtype=np.int64)
    return Table.from_columns(
        [
            ("ship", DATE, ship),
            ("commit", DATE, ship + 45),
            ("receipt", DATE, ship + 7),
        ]
    )


@pytest.fixture(scope="module")
def engines():
    """Engines at 1, 2 and 4 workers, shared by a module's serial == parallel checks."""
    opened = {workers: Engine(EngineConfig(workers=workers)) for workers in (1, 2, 4)}
    yield opened
    for engine in opened.values():
        engine.close()
