"""Equivalence of the batch join and the reference interpreter.

``RulePlan.execute`` (the batch join) is pinned to the recursive
reference interpreter of ``tests/reference_join.py`` exactly:
identical fact sets, firing counts and probe counts,
over the workload generator (hypothesis) and over hand-built corner
cases (constants, repeated variables, constraints, full scans).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Variable, parse_program
from repro.engine import EvalCounters, RulePlan, compile_plan, evaluate
from repro.facts import Database
from repro.parallel import example3_scheme, run_parallel
from repro.workloads import make_workload, workload_kinds

from ..reference_join import reference_execute

edge_lists = st.lists(
    st.tuples(st.integers(1, 10), st.integers(1, 10)),
    min_size=0, max_size=30).map(lambda edges: sorted(set(edges)))


def _assert_equivalent(program, database, predicates, method="seminaive"):
    """The batch join against the reference interpreter: answers,
    firings, probes and iterations.  Returns the reference result."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RulePlan, "execute", reference_execute)
        reference = evaluate(program, database, method=method)
    batch = evaluate(program, database, method=method)
    for predicate in predicates:
        assert (batch.relation(predicate).as_set()
                == reference.relation(predicate).as_set())
    counters, expected = batch.counters, reference.counters
    assert counters.total_firings() == expected.total_firings()
    assert counters.probes == expected.probes
    assert counters.iterations == expected.iterations
    return reference


class TestWorkloadEquivalence:
    def test_all_workload_kinds_seminaive(self):
        for kind in workload_kinds():
            workload = make_workload(kind, 48, seed=5)
            _assert_equivalent(workload.program, workload.database,
                               workload.program.derived_predicates)

    def test_naive_method(self):
        workload = make_workload("dag", 40, seed=1)
        _assert_equivalent(workload.program, workload.database,
                           workload.program.derived_predicates,
                           method="naive")

    @given(edge_lists, st.sampled_from(["chain", "tree", "dag"]))
    @settings(max_examples=40, deadline=None)
    def test_random_edges_ancestor(self, edges, kind):
        workload = make_workload(kind, 12, seed=0)
        database = Database()
        database.declare("par", 2).update(edges)
        _assert_equivalent(workload.program, database,
                           workload.program.derived_predicates)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_same_generation(self, seed):
        workload = make_workload("same-generation", 32, seed=seed)
        _assert_equivalent(workload.program, workload.database,
                           workload.program.derived_predicates)


class TestCornerCases:
    def test_single_rule_matches_reference(self):
        program = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        working = Database.from_facts({"par": [(1, 2), (2, 3)]})
        working.declare("anc", 2)
        plan = compile_plan(program.proper_rules()[0])
        assert (set(plan.execute(working))
                == set(reference_execute(plan, working))
                == {(1, 2), (2, 3)})

    def test_constants_in_body_and_head(self):
        program = parse_program("""
            p(X, 7) :- e(X, 3).
            q(X) :- p(X, Y).
        """)
        database = Database.from_facts(
            {"e": [(1, 3), (2, 3), (5, 4)]})
        reference = _assert_equivalent(program, database, ["p", "q"])
        assert reference.relation("p").as_set() == {(1, 7), (2, 7)}

    def test_repeated_variable_within_atom(self):
        program = parse_program("""
            loop(X) :- e(X, X).
            r(X, Y) :- e(X, Y), e(Y, X).
        """)
        database = Database.from_facts(
            {"e": [(1, 1), (1, 2), (2, 1), (3, 4)]})
        reference = _assert_equivalent(program, database, ["loop", "r"])
        assert reference.relation("loop").as_set() == {(1,)}
        assert reference.relation("r").as_set() == {(1, 1), (1, 2), (2, 1)}

    def test_hash_constraints_parallel_rewrite(self, monkeypatch):
        # The rewritten programs carry HashConstraints, exercising the
        # join's column-wise constraint form; the simulated cluster must
        # agree with the one whose processors run the reference.
        workload = make_workload("dag", 40, seed=7)
        parallel_program = example3_scheme(workload.program,
                                           tuple(range(4)))
        batch = run_parallel(parallel_program, workload.database)
        monkeypatch.setattr(RulePlan, "execute", reference_execute)
        reference = run_parallel(parallel_program, workload.database)
        for predicate in parallel_program.derived:
            assert (batch.relation(predicate).as_set()
                    == reference.relation(predicate).as_set())
        assert (batch.metrics.total_firings()
                == reference.metrics.total_firings())
        assert batch.metrics.total_sent() == reference.metrics.total_sent()

    def test_constraints_spanning_steps_agree_across_kernels(self):
        """Constraint values come partly from the candidate fact and
        partly from earlier bindings: a protocol-only constraint (boxed
        ``satisfied`` fallback) and a two-position HashConstraint."""
        from repro.datalog import Atom, Rule
        from repro.datalog.term import Constant
        from repro.parallel import HashConstraint, HashDiscriminator

        class _Less:
            variables = (Variable("X"), Variable("Y"))

            def satisfied(self, binding):
                x, y = (binding.get(v) for v in self.variables)
                assert isinstance(x, Constant) and isinstance(y, Constant)
                return x.value < y.value

        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        database = Database.from_facts(
            {"b": [(i, (i * 3) % 7) for i in range(12)],
             "c": [(i % 7, (i * 5) % 11) for i in range(20)]})
        for constraint in (_Less(),
                           HashConstraint(HashDiscriminator((0, 1)),
                                          [x, y], 1)):
            rule = Rule(Atom("a", (x, y)),
                        (Atom("b", (x, z)), Atom("c", (z, y))),
                        (constraint,))
            plan = compile_plan(rule, reorder=False)
            assert len(plan.steps[1].constraints) == 1
            outcomes = {}
            for name, execute in (("batch", RulePlan.execute),
                                  ("reference", reference_execute)):
                counters = EvalCounters()
                facts = sorted(execute(plan, database, counters))
                outcomes[name] = (facts, counters.total_firings(),
                                  counters.probes)
            assert outcomes["batch"] == outcomes["reference"]
            assert 0 < len(outcomes["reference"][0]) < 30

    def test_missing_relation_raises_same_error(self):
        from repro.errors import EvaluationError

        program = parse_program("p(X) :- q(X).", validate=False)
        plan = compile_plan(program.rules[0])
        empty = Database()
        for execute in (RulePlan.execute, reference_execute):
            with pytest.raises(EvaluationError, match="no relation"):
                execute(plan, empty)

    def test_counters_optional(self):
        program = parse_program("""
            anc(X, Y) :- par(X, Y).
        """, validate=False)
        database = Database.from_facts({"par": [(1, 2)]})
        plan = compile_plan(program.rules[0])
        assert plan.execute(database) == [(1, 2)]
        counters = EvalCounters()
        assert plan.execute(database, counters) == [(1, 2)]
        assert counters.total_firings() == 1
        assert counters.probes == 1
