"""Termination of the mp executor is event-driven, not clock-driven.

Workers send a passive notice when they go idle, and the coordinator
starts its next probe wave on the notice that makes its view balanced
— or at once after a balanced wave — so ``probe_interval`` is only the
fallback period (see :mod:`repro.parallel.mp.protocol`, "Passive
notices").  These tests pin both halves: a long interval no longer
costs its length, and whatever the interval the answer and the firing
count stay exactly those of sequential evaluation and the simulator.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.facts import Database
from repro.parallel import (
    example2_scheme,
    example3_scheme,
    rewrite_general,
    run_parallel,
)
from repro.parallel.mp import run_multiprocessing
from repro.workloads import (
    ancestor_program,
    nonlinear_ancestor_program,
    random_tree_edges,
)

pytestmark = pytest.mark.mp


@pytest.mark.parametrize("processors", [2, 3])
def test_long_probe_interval_is_not_waited_out(processors):
    # Before notices every run paid at least two full intervals between
    # its three waves (>= 10 s here); now the waves follow the work.
    database = Database.from_facts({"par": random_tree_edges(60, seed=7)})
    program = example3_scheme(ancestor_program(), tuple(range(processors)))
    started = time.perf_counter()
    result = run_multiprocessing(program, database, probe_interval=5.0,
                                 timeout=60)
    elapsed = time.perf_counter() - started
    expected = evaluate(ancestor_program(), database)
    assert (result.relation("anc").as_set()
            == expected.relation("anc").as_set())
    assert elapsed < 2.5, f"took {elapsed:.2f} s at probe_interval=5.0"


def _scheme(name, processors, database):
    if name == "example2":
        return ancestor_program(), example2_scheme(
            ancestor_program(), processors, database)
    if name == "example3":
        return ancestor_program(), example3_scheme(
            ancestor_program(), processors)
    program = nonlinear_ancestor_program()
    return program, rewrite_general(program, processors)


@given(nodes=st.integers(2, 40), seed=st.integers(0, 10_000),
       scheme=st.sampled_from(["example2", "example3", "rewrite_general"]),
       processors=st.sampled_from([2, 3]),
       probe_interval=st.sampled_from([0.001, 0.02, 1.0]))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_interval_gives_the_sequential_answer_and_firings(
        nodes, seed, scheme, processors, probe_interval):
    database = Database.from_facts(
        {"par": random_tree_edges(nodes, seed=seed)})
    program, parallel = _scheme(scheme, tuple(range(processors)), database)
    result = run_multiprocessing(parallel, database,
                                 probe_interval=probe_interval, timeout=60)
    expected = evaluate(program, database)
    assert (result.relation("anc").as_set()
            == expected.relation("anc").as_set())
    assert (result.metrics.total_firings()
            == run_parallel(parallel, database).metrics.total_firings())
