"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.datalog import parse_program
from repro.engine import RulePlan
from repro.facts import Database
from repro.workloads import (
    ancestor_program,
    chain3_program,
    example6_program,
    nonlinear_ancestor_program,
    random_dag_edges,
    random_tree_edges,
    same_generation_database,
    same_generation_program,
)

from .reference_join import reference_execute


@pytest.fixture
def ancestor():
    """The paper's running example program."""
    return ancestor_program()


@pytest.fixture
def nonlinear_ancestor():
    """Example 8's non-linear ancestor."""
    return nonlinear_ancestor_program()


@pytest.fixture
def chain3():
    """Example 4/7's 3-ary sirup."""
    return chain3_program()


@pytest.fixture
def example6():
    """Example 6's sirup."""
    return example6_program()


@pytest.fixture
def chain_db():
    """A 10-edge chain under ``par``."""
    return Database.from_facts({"par": [(i, i + 1) for i in range(1, 11)]})


@pytest.fixture
def tree_db():
    """A 60-node random tree under ``par``."""
    return Database.from_facts({"par": random_tree_edges(60, seed=7)})


@pytest.fixture
def dag_db():
    """A diamond-rich 50-node DAG under ``par``."""
    return Database.from_facts({"par": random_dag_edges(50, parents=2, seed=11)})


@pytest.fixture
def sg_db():
    """A small same-generation genealogy."""
    return same_generation_database(pairs=3, depth=2, seed=5)


@pytest.fixture
def sg_program():
    """The same-generation program."""
    return same_generation_program()


@pytest.fixture
def oracle_join(monkeypatch):
    """Run every rule plan on the reference interpreter for the rest of
    the test, so whole evaluations (sequential or simulated) can be
    compared with the batch join's."""
    monkeypatch.setattr(RulePlan, "execute", reference_execute)
