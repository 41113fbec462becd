"""Answers do not depend on when a tuple arrives.

These cases were first written for the stale-synchronous regime, which
the simulator no longer has: every tick is now one barriered round.
What they pinned is still the claim behind Theorem 1 — the
discriminating-function argument only needs every tuple to eventually
reach its owner — so they now draw the arrival schedule from delay
injection (``delay_probability`` and ``seed``) in place of a staleness
bound, alone and composed with channel faults.  The answer must equal
the sequential least model every time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.facts import Database
from repro.parallel import (
    build_fault_plan,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    rewrite_general,
    run_parallel,
    wolfson_scheme,
)
from repro.workloads import ancestor_program, random_tree_edges


class TestSSPAnswerEquality:
    def test_matches_sequential_on_chain(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, chain_db, delay_probability=0.5,
                              seed=2)
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_deterministic(self, ancestor, dag_db):
        """A delay schedule is a function of its seed."""
        program = example3_scheme(ancestor, (0, 1, 2))
        first = run_parallel(program, dag_db, delay_probability=0.5, seed=2)
        second = run_parallel(program, dag_db, delay_probability=0.5, seed=2)
        assert first.metrics.summary() == second.metrics.summary()

    def test_single_processor_ssp(self, ancestor, chain_db):
        result = run_parallel(hash_scheme(ancestor, (0,)), chain_db,
                              delay_probability=0.5, seed=1)
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_empty_database(self, ancestor):
        result = run_parallel(example3_scheme(ancestor, (0, 1)), Database(),
                              delay_probability=0.5, seed=2)
        assert len(result.relation("anc")) == 0


def _scheme(name, program, database, processors):
    if name == "example2":
        return example2_scheme(program, processors, database)
    if name == "example3":
        return example3_scheme(program, processors)
    if name == "hash":
        return hash_scheme(program, processors)
    if name == "general":
        return rewrite_general(program, processors)
    return wolfson_scheme(program, processors[:2])


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(["example2", "example3", "hash", "general",
                               "wolfson"]),
       delay_probability=st.sampled_from([0.0, 0.3, 0.6]),
       seed=st.integers(0, 1000),
       count=st.integers(2, 4),
       tree_seed=st.integers(0, 5))
def test_theorem1_holds_under_ssp_property(scheme, delay_probability, seed,
                                           count, tree_seed):
    """Property: any scheme x input x delay schedule pools exactly the
    sequential least model."""
    program = ancestor_program()
    database = Database.from_facts(
        {"par": random_tree_edges(30, seed=tree_seed)})
    parallel_program = _scheme(scheme, program, database,
                               tuple(range(count)))
    result = run_parallel(parallel_program, database,
                          delay_probability=delay_probability, seed=seed)
    expected = evaluate(program, database)
    assert (result.relation("anc").as_set()
            == expected.relation("anc").as_set())


@pytest.mark.faultinjection
class TestSSPChannelFaults:
    """Channel faults on top of delay injection: duplicates and delays
    stay harmless, drops still lose answers."""

    def test_duplicates_are_harmless(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan(["dup:0.5"], seed=3),
                              delay_probability=0.4, seed=3)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_delays_are_harmless(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan(["delay:0.4"], seed=5),
                              delay_probability=0.4, seed=5)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_drops_lose_answers(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan(["drop:0.5"], seed=1),
                              delay_probability=0.4, seed=1)
        expected = evaluate(ancestor, tree_db)
        got = result.relation("anc").as_set()
        want = expected.relation("anc").as_set()
        assert got <= want
        assert got < want

    def test_delay_injection_composes(self, ancestor, dag_db):
        program = hash_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, dag_db, delay_probability=0.4,
                              seed=11)
        expected = evaluate(ancestor, dag_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
