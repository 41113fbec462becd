"""Equivalence of the specialized join kernels and the generic interpreter.

The compiled kernel (`RulePlan._execute_compiled`) and the vectorized
batch kernel (`RulePlan._execute_vectorized`) are the seed evaluator's
specialized replacements; these tests pin both to the reference
implementation exactly: identical fact sets, firing counts and probe
counts, over the workload generator (hypothesis) and over hand-built
corner cases (constants, repeated variables, constraints, full scans).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Variable, parse_program
from repro.engine import (
    JOIN_KERNELS,
    EvalCounters,
    compile_plan,
    evaluate,
    join_kernel,
    join_kernel_enabled,
    set_join_kernel,
)
from repro.facts import Database
from repro.parallel import example3_scheme, run_parallel
from repro.workloads import make_workload, workload_kinds

edge_lists = st.lists(
    st.tuples(st.integers(1, 10), st.integers(1, 10)),
    min_size=0, max_size=30).map(lambda edges: sorted(set(edges)))


def _all_paths(program, database, method="seminaive"):
    """Evaluate under every kernel; returns {kernel: result}."""
    results = {}
    for kernel in JOIN_KERNELS:
        previous = set_join_kernel(kernel)
        try:
            results[kernel] = evaluate(program, database, method=method)
        finally:
            set_join_kernel(previous)
    return results


def _both_paths(program, database, method="seminaive"):
    results = _all_paths(program, database, method=method)
    return results["generic"], results


def _assert_equivalent(generic, results, predicates):
    for kernel, result in results.items():
        for predicate in predicates:
            assert (result.relation(predicate).as_set()
                    == generic.relation(predicate).as_set()), kernel
        assert (result.counters.total_firings()
                == generic.counters.total_firings()), kernel
        assert result.counters.probes == generic.counters.probes, kernel
        assert result.counters.iterations == generic.counters.iterations, kernel


class TestToggle:
    def test_set_join_kernel_returns_previous_name(self):
        original = join_kernel()
        assert set_join_kernel("generic") == original
        assert join_kernel() == "generic"
        assert join_kernel_enabled() is False
        assert set_join_kernel("vectorized") == "generic"
        assert join_kernel() == "vectorized"
        assert join_kernel_enabled() is True
        assert set_join_kernel(original) == "vectorized"
        assert join_kernel() == original

    def test_bool_arguments_coerce(self):
        # Back-compat: True/False map onto the compiled/generic kernels.
        original = set_join_kernel(False)
        try:
            assert join_kernel() == "generic"
            set_join_kernel(True)
            assert join_kernel() == "compiled"
        finally:
            set_join_kernel(original)

    def test_unknown_kernel_rejected(self):
        before = join_kernel()
        with pytest.raises(ValueError):
            set_join_kernel("simd")
        assert join_kernel() == before

    def test_per_call_override_beats_default(self):
        program = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        database = Database.from_facts({"par": [(1, 2), (2, 3)]})
        working = Database.from_facts({"par": [(1, 2), (2, 3)]})
        working.declare("anc", 2)
        plan = compile_plan(program.proper_rules()[0])
        forced_generic = set(plan.execute(working, kernel=False))
        forced_kernel = set(plan.execute(working, kernel=True))
        forced_vectorized = set(plan.execute(working, kernel="vectorized"))
        assert (forced_generic == forced_kernel == forced_vectorized
                == {(1, 2), (2, 3)})


class TestWorkloadEquivalence:
    def test_all_workload_kinds_seminaive(self):
        for kind in workload_kinds():
            workload = make_workload(kind, 48, seed=5)
            generic, compiled = _both_paths(workload.program,
                                            workload.database)
            _assert_equivalent(generic, compiled,
                               workload.program.derived_predicates)

    def test_naive_method(self):
        workload = make_workload("dag", 40, seed=1)
        generic, compiled = _both_paths(workload.program, workload.database,
                                        method="naive")
        _assert_equivalent(generic, compiled,
                           workload.program.derived_predicates)

    @given(edge_lists, st.sampled_from(["chain", "tree", "dag"]))
    @settings(max_examples=40, deadline=None)
    def test_random_edges_ancestor(self, edges, kind):
        workload = make_workload(kind, 12, seed=0)
        database = Database()
        database.declare("par", 2).update(edges)
        generic, compiled = _both_paths(workload.program, database)
        _assert_equivalent(generic, compiled,
                           workload.program.derived_predicates)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_same_generation(self, seed):
        workload = make_workload("same-generation", 32, seed=seed)
        generic, compiled = _both_paths(workload.program, workload.database)
        _assert_equivalent(generic, compiled,
                           workload.program.derived_predicates)


class TestCornerCases:
    def test_constants_in_body_and_head(self):
        program = parse_program("""
            p(X, 7) :- e(X, 3).
            q(X) :- p(X, Y).
        """)
        database = Database.from_facts(
            {"e": [(1, 3), (2, 3), (5, 4)]})
        generic, results = _both_paths(program, database)
        _assert_equivalent(generic, results, ["p", "q"])
        for result in results.values():
            assert result.relation("p").as_set() == {(1, 7), (2, 7)}

    def test_repeated_variable_within_atom(self):
        program = parse_program("""
            loop(X) :- e(X, X).
            r(X, Y) :- e(X, Y), e(Y, X).
        """)
        database = Database.from_facts(
            {"e": [(1, 1), (1, 2), (2, 1), (3, 4)]})
        generic, results = _both_paths(program, database)
        _assert_equivalent(generic, results, ["loop", "r"])
        for result in results.values():
            assert result.relation("loop").as_set() == {(1,)}
            assert result.relation("r").as_set() == {(1, 1), (1, 2), (2, 1)}

    def test_hash_constraints_parallel_rewrite(self):
        # The rewritten programs carry HashConstraints, exercising the
        # kernels' compiled constraint forms (positional in the compiled
        # kernel, column-wise in the vectorized); the simulated cluster
        # must agree with sequential evaluation under both paths.
        workload = make_workload("dag", 40, seed=7)
        parallel_program = example3_scheme(workload.program,
                                           tuple(range(4)))
        previous = set_join_kernel("generic")
        try:
            generic = run_parallel(parallel_program, workload.database)
        finally:
            set_join_kernel(previous)
        for kernel in ("compiled", "vectorized"):
            previous = set_join_kernel(kernel)
            try:
                specialized = run_parallel(parallel_program, workload.database)
            finally:
                set_join_kernel(previous)
            for predicate in parallel_program.derived:
                assert (specialized.relation(predicate).as_set()
                        == generic.relation(predicate).as_set()), kernel
            assert (specialized.metrics.total_firings()
                    == generic.metrics.total_firings()), kernel
            assert (specialized.metrics.total_sent()
                    == generic.metrics.total_sent()), kernel

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
            for kernel in JOIN_KERNELS:
                counters = EvalCounters()
                facts = sorted(plan.execute(database, counters, kernel=kernel))
                outcomes[kernel] = (facts, counters.total_firings(),
                                    counters.probes)
            assert outcomes["compiled"] == outcomes["generic"]
            assert outcomes["vectorized"] == outcomes["generic"]
            assert 0 < len(outcomes["generic"][0]) < 30

    def test_missing_relation_raises_same_error(self):
        from repro.errors import EvaluationError

        program = parse_program("p(X) :- q(X).", validate=False)
        plan = compile_plan(program.rules[0])
        empty = Database()
        for kernel in JOIN_KERNELS:
            with pytest.raises(EvaluationError, match="no relation"):
                list(plan.execute(empty, kernel=kernel))

    def test_counters_optional(self):
        program = parse_program("""
            anc(X, Y) :- par(X, Y).
        """, validate=False)
        database = Database.from_facts({"par": [(1, 2)]})
        plan = compile_plan(program.rules[0])
        for kernel in ("compiled", "vectorized"):
            assert list(plan.execute(database, kernel=kernel)) == [(1, 2)]
            counters = EvalCounters()
            assert (list(plan.execute(database, counters, kernel=kernel))
                    == [(1, 2)])
            assert counters.total_firings() == 1
            assert counters.probes == 1
