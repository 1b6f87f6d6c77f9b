"""Shared fixtures for the test suite.

Fixtures build tiny deployments (a few dozen to a few hundred tuples) so the
suite runs in seconds while still exercising every code path the figures
(``test_figures.py``) run at larger scale.

Plain helper *functions* live in :mod:`helpers` (``tests/helpers.py``) so test
modules can import them without relying on the ambiguous top-level module name
``conftest`` (see the module docstring there for the collision this avoids).

Two Hypothesis profiles.  ``tier1``, the default, is the gate: derandomized,
with no example database, so every box and every run draws the same examples
at each property's own count.  ``fuzz`` (``HYPOTHESIS_PROFILE=fuzz``) draws
ten times as many (:func:`helpers.examples`) from one random seed, printed in
the session header; rerun a failure with ``--hypothesis-seed=<seed>`` and pin
the falsifying example with ``@example``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.catalog.catalog import DataSourceCatalog
from repro.datagen.tpcd import TPCDGenerator
from repro.engine.context import EngineConfig, ExecutionContext
from repro.network.profiles import lan
from repro.network.source import DataSource
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import HYPOTHESIS_PROFILE, examples, make_relation

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", max_examples=examples(100), database=None, print_blob=True)
settings.load_profile(HYPOTHESIS_PROFILE)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Under ``fuzz``, draw the session's seed before Hypothesis's plugin reads it."""
    if HYPOTHESIS_PROFILE == "fuzz" and config.getoption("hypothesis_seed") is None:
        config.option.hypothesis_seed = str(random.SystemRandom().randrange(2**32))


def pytest_report_header(config):
    if HYPOTHESIS_PROFILE == "fuzz":
        return f"hypothesis fuzz seed: {config.getoption('hypothesis_seed')}"
    return None


@pytest.fixture(scope="session")
def tiny_tpcd():
    """A very small TPC-D database shared (read-only) across tests."""
    return TPCDGenerator(scale_mb=0.3, seed=7).generate(
        ["region", "nation", "supplier", "customer", "part", "partsupp", "orders"]
    )


@pytest.fixture
def simple_schema() -> Schema:
    return Schema.of("id:int", "name:str", "score:float")


@pytest.fixture
def people_relation(simple_schema) -> Relation:
    rows = [
        Row(simple_schema, (1, "ada", 9.5)),
        Row(simple_schema, (2, "bob", 7.25)),
        Row(simple_schema, (3, "cyd", 8.0)),
        Row(simple_schema, (4, "dee", 5.5)),
    ]
    return Relation("people", simple_schema, rows)


@pytest.fixture
def orders_and_items():
    """Two tiny joinable relations (orders 1-*-> items)."""
    orders = make_relation(
        "ord", ["o_id:int", "o_cust:str"], [(1, "ada"), (2, "bob"), (3, "cyd")]
    )
    items = make_relation(
        "item",
        ["i_order:int", "i_sku:str", "i_qty:int"],
        [(1, "apple", 2), (1, "pear", 1), (2, "plum", 5), (4, "kiwi", 9)],
    )
    return orders, items


@pytest.fixture
def joinable_catalog(orders_and_items) -> DataSourceCatalog:
    """Catalog exposing the two tiny relations as LAN sources."""
    orders, items = orders_and_items
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("ord", orders, lan()))
    catalog.register_source(DataSource("item", items, lan()))
    return catalog


@pytest.fixture
def context(joinable_catalog) -> ExecutionContext:
    """A fresh execution context over the tiny joinable catalog."""
    return ExecutionContext(joinable_catalog, config=EngineConfig(), query_name="test")


@pytest.fixture
def tpcd_catalog(tiny_tpcd) -> DataSourceCatalog:
    """Catalog exposing the tiny TPC-D tables as LAN sources."""
    catalog = DataSourceCatalog()
    for table in tiny_tpcd.names:
        catalog.register_source(DataSource(table, tiny_tpcd[table], lan()))
    return catalog
