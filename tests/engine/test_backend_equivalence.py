"""Property tests: the batch join is invisible to the engine.

For any program and data, evaluation through the batch join must
produce the same answers, the same firings, the same probe counts and
the same iterations as through the reference interpreter
(``tests/reference_join.py``), over both evaluation methods, multi-step
bodies and constraint-bearing rules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Program, parse_program
from repro.engine import EvalCounters, RulePlan, evaluate
from repro.facts import Database
from repro.parallel import HashConstraint
from repro.parallel.discriminating import ModuloDiscriminator
from repro.workloads import (
    ancestor_program,
    nonlinear_ancestor_program,
    same_generation_program,
)

from ..reference_join import reference_execute

edge_lists = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    min_size=0, max_size=40).map(lambda edges: sorted(set(edges)))


def _evaluate_under(execute, program, relations, method):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RulePlan, "execute", execute)
        database = Database()
        for name, facts in relations.items():
            database.declare(name, 2).update(facts)
        counters = EvalCounters()
        result = evaluate(program, database, method=method,
                          counters=counters)
    answers = {pred: result.relation(pred).as_set()
               for pred in program.derived_predicates}
    return (answers, counters.total_firings(), counters.probes,
            counters.iterations)


def _assert_join_matches_reference(program, relations, method="seminaive"):
    assert (_evaluate_under(RulePlan.execute, program, relations, method)
            == _evaluate_under(reference_execute, program, relations,
                               method))


class TestBackendKernelEquivalence:
    @given(edge_lists)
    @settings(max_examples=25, deadline=None)
    def test_ancestor(self, edges):
        _assert_join_matches_reference(ancestor_program(), {"par": edges})

    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_nonlinear_ancestor(self, edges):
        _assert_join_matches_reference(nonlinear_ancestor_program(),
                                   {"par": edges})

    @given(edge_lists, edge_lists, edge_lists)
    @settings(max_examples=10, deadline=None)
    def test_same_generation(self, up, down, flat):
        _assert_join_matches_reference(
            same_generation_program(),
            {"up": up, "down": down, "flat": flat})

    @given(edge_lists)
    @settings(max_examples=10, deadline=None)
    def test_naive_method(self, edges):
        _assert_join_matches_reference(ancestor_program(), {"par": edges},
                                   method="naive")

    @pytest.mark.parametrize("method", ["seminaive", "naive"])
    def test_chain_exact(self, method):
        edges = [(i, i + 1) for i in range(1, 30)]
        _assert_join_matches_reference(ancestor_program(), {"par": edges},
                                   method=method)

    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_multi_step_bodies(self, edges):
        # Three-atom bodies drive the join through several levels per
        # rule, where its per-level grouping must count probes exactly
        # like backtracking does.
        program = parse_program("""
            hop2(X, Z) :- e(X, Y), e(Y, Z).
            reach(X, Y) :- e(X, Y).
            reach(X, Y) :- reach(X, Z), e(Z, W), e(W, Y).
        """)
        _assert_join_matches_reference(program, {"e": edges})

    @given(edge_lists, st.sampled_from([0, 1]))
    @settings(max_examples=15, deadline=None)
    def test_constraint_bearing_rules(self, edges, target):
        # Hash constraints (the parallel rewrites' side conditions)
        # force the join through its constraint-filter path.
        disc = ModuloDiscriminator((0, 1))
        rules = [rule.with_constraints(
                     [HashConstraint(disc, rule.head_variables(), target)])
                 for rule in ancestor_program().rules]
        _assert_join_matches_reference(Program(rules), {"par": edges})
