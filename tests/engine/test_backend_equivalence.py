"""Property tests: the columnar backend is invisible to the engine.

For any program and data, evaluation on either fact backend must
produce the same answers, the same firings and the same probe counts as
the reference interpreter (``tests/reference_join.py``) — the
backend-selection matrix of docs/DATA_PLANE.md.  Divergence here would
silently invalidate every cross-backend comparison.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Program, parse_program
from repro.engine import EvalCounters, RulePlan, evaluate
from repro.facts import Database, set_fact_backend
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


def _evaluate_under(backend, execute, program, relations, method):
    previous_backend = set_fact_backend(backend)
    patch = pytest.MonkeyPatch()
    patch.setattr(RulePlan, "execute", execute)
    try:
        database = Database()
        for name, facts in relations.items():
            database.declare(name, 2).update(facts)
        counters = EvalCounters()
        result = evaluate(program, database, method=method,
                          counters=counters)
        answers = {pred: result.relation(pred).as_set()
                   for pred in program.derived_predicates}
        return answers, counters
    finally:
        patch.undo()
        set_fact_backend(previous_backend)


def _assert_all_backends_agree(program, relations, method="seminaive"):
    reference = None
    for backend in ("tuple", "columnar"):
        for execute in (reference_execute, RulePlan.execute):
            answers, counters = _evaluate_under(
                backend, execute, program, relations, method)
            observed = (answers, counters.total_firings(), counters.probes,
                        counters.iterations)
            if reference is None:
                reference = observed
            else:
                assert observed == reference, (backend, execute.__name__)


class TestBackendKernelEquivalence:
    @given(edge_lists)
    @settings(max_examples=25, deadline=None)
    def test_ancestor(self, edges):
        _assert_all_backends_agree(ancestor_program(), {"par": edges})

    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_nonlinear_ancestor(self, edges):
        _assert_all_backends_agree(nonlinear_ancestor_program(),
                                   {"par": edges})

    @given(edge_lists, edge_lists, edge_lists)
    @settings(max_examples=10, deadline=None)
    def test_same_generation(self, up, down, flat):
        _assert_all_backends_agree(
            same_generation_program(),
            {"up": up, "down": down, "flat": flat})

    @given(edge_lists)
    @settings(max_examples=10, deadline=None)
    def test_naive_method(self, edges):
        _assert_all_backends_agree(ancestor_program(), {"par": edges},
                                   method="naive")

    @pytest.mark.parametrize("method", ["seminaive", "naive"])
    def test_chain_exact(self, method):
        edges = [(i, i + 1) for i in range(1, 30)]
        _assert_all_backends_agree(ancestor_program(), {"par": edges},
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
        _assert_all_backends_agree(program, {"e": edges})

    @given(edge_lists, st.sampled_from([0, 1]))
    @settings(max_examples=15, deadline=None)
    def test_constraint_bearing_rules(self, edges, target):
        # Hash constraints (the parallel rewrites' side conditions)
        # force the join through its constraint-filter path.
        disc = ModuloDiscriminator((0, 1))
        rules = [rule.with_constraints(
                     [HashConstraint(disc, rule.head_variables(), target)])
                 for rule in ancestor_program().rules]
        _assert_all_backends_agree(Program(rules), {"par": edges})
