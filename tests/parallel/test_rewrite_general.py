"""Tests for the Section 7 general rewrite."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Variable, parse_program
from repro.engine import evaluate
from repro.errors import RewriteError
from repro.facts import Database
from repro.parallel import (
    HashDiscriminator,
    RuleSpec,
    auto_specs,
    rewrite_general,
    run_parallel,
)
from repro.parallel.naming import in_name, out_name
from repro.workloads import nonlinear_ancestor_program, same_generation_program

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")

# One base predicate read twice by the recursive rule, on different
# columns of the discriminating variable W.
REPEATED_BASE = """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, W), e(W, Y).
"""

# Same-generation with a second recursive rule: four base predicates
# that no choice of auto_specs can fragment.
SG_MULTI_BASE = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    sg(X, Y) :- left(X, U), sg(U, V), right(V, Y).
"""

_FRAGMENT_NAMES = (
    "import sys\n"
    "from repro.datalog import parse_program\n"
    "from repro.parallel import rewrite_general\n"
    "program = parse_program(sys.argv[1])\n"
    "print([f.local_name for f in rewrite_general(program, (0, 1)).fragments])\n"
)


class TestAutoSpecs:
    def test_recursive_rule_uses_recursive_atom_vars(self, nonlinear_ancestor):
        specs = auto_specs(nonlinear_ancestor, (0, 1))
        recursive_spec = specs[1]
        assert recursive_spec.sequence == (X, Z)

    def test_exit_rule_uses_head_vars(self, nonlinear_ancestor):
        specs = auto_specs(nonlinear_ancestor, (0, 1))
        assert specs[0].sequence == (X, Y)

    def test_shared_discriminator(self, nonlinear_ancestor):
        specs = auto_specs(nonlinear_ancestor, (0, 1))
        assert specs[0].discriminator is specs[1].discriminator


class TestRewriteGeneral:
    def test_example8_structure(self, nonlinear_ancestor):
        """The paper's Example 8: v(r1) = <Y>, v(r2) = <Z>, shared h."""
        h = HashDiscriminator((0, 1, 2))
        specs = {0: RuleSpec((Y,), h), 1: RuleSpec((Z,), h)}
        program = rewrite_general(nonlinear_ancestor, (0, 1, 2), specs)

        processor = program.program_for(1)
        # r1 has no derived body atom: it is an init rule.
        assert len(processor.init_rules) == 1
        assert len(processor.processing_rules) == 1
        processing = processor.processing_rules[0]
        assert processing.head.predicate == out_name("anc")
        assert [a.predicate for a in processing.body] == [
            in_name("anc"), in_name("anc")]
        # Two sending rules, one per recursive occurrence, routing on
        # position 2 (X, Z) and position 1 (Z, Y) respectively.
        routes = processor.routes
        assert len(routes) == 2
        assert sorted(route.positions for route in routes) == [(0,), (1,)]

    def test_example8_base_fragmented_by_y(self, nonlinear_ancestor):
        h = HashDiscriminator((0, 1))
        specs = {0: RuleSpec((Y,), h), 1: RuleSpec((Z,), h)}
        program = rewrite_general(nonlinear_ancestor, (0, 1), specs)
        assert program.fragmentation.requirements["par"] == "hash-partitioned"

    def test_auto_specs_round_trip_correctness(self, nonlinear_ancestor,
                                               dag_db):
        from repro.engine import evaluate
        program = rewrite_general(nonlinear_ancestor, (0, 1, 2))
        result = run_parallel(program, dag_db)
        expected = evaluate(nonlinear_ancestor, dag_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_multi_stratum_program(self, chain_db):
        from repro.engine import evaluate
        program_text = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            reach10(X) :- anc(X, 10).
        """)
        program = rewrite_general(program_text, (0, 1))
        result = run_parallel(program, chain_db)
        expected = evaluate(program_text, chain_db)
        for predicate in ("anc", "reach10"):
            assert (result.relation(predicate).as_set()
                    == expected.relation(predicate).as_set())

    def test_mutually_recursive_program(self):
        from repro.engine import evaluate
        from repro.facts import Database
        program_text = parse_program("""
            even(X) :- zero(X).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
        """)
        database = Database.from_facts({
            "zero": [(0,)],
            "succ": [(i, i + 1) for i in range(8)],
        })
        program = rewrite_general(program_text, (0, 1, 2))
        result = run_parallel(program, database)
        expected = evaluate(program_text, database)
        for predicate in ("even", "odd"):
            assert (result.relation(predicate).as_set()
                    == expected.relation(predicate).as_set())

    def test_same_generation(self, sg_program, sg_db):
        from repro.engine import evaluate
        program = rewrite_general(sg_program, (0, 1))
        result = run_parallel(program, sg_db)
        expected = evaluate(sg_program, sg_db)
        assert result.relation("sg").as_set() == expected.relation(
            "sg").as_set()

    def test_missing_spec_rejected(self, nonlinear_ancestor):
        h = HashDiscriminator((0,))
        with pytest.raises(RewriteError):
            rewrite_general(nonlinear_ancestor, (0,), {0: RuleSpec((Y,), h)})

    def test_unknown_rule_index_rejected(self, nonlinear_ancestor):
        h = HashDiscriminator((0,))
        specs = {0: RuleSpec((Y,), h), 1: RuleSpec((Z,), h),
                 7: RuleSpec((Y,), h)}
        with pytest.raises(RewriteError):
            rewrite_general(nonlinear_ancestor, (0,), specs)

    def test_sequence_variable_not_in_body_rejected(self, nonlinear_ancestor):
        h = HashDiscriminator((0,))
        specs = {0: RuleSpec((Variable("Q"),), h), 1: RuleSpec((Z,), h)}
        with pytest.raises(RewriteError):
            rewrite_general(nonlinear_ancestor, (0,), specs)

    def test_empty_sequence_pins_rule_to_one_processor(self, chain_db):
        from repro.engine import evaluate
        program_text = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        h = HashDiscriminator((0, 1))
        specs = {0: RuleSpec((), h), 1: RuleSpec((Z,), h)}
        program = rewrite_general(program_text, (0, 1), specs)
        result = run_parallel(program, chain_db)
        expected = evaluate(program_text, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())


class TestOccurrenceFragments:
    """Fragments are planned per body occurrence, in first-occurrence order."""

    def test_repeated_base_predicate_reads_its_own_fragment(self):
        # W sits in column 1 of e(Z, W) and column 0 of e(W, Y): each
        # occurrence needs the fragment cut on its own column.
        program = parse_program(REPEATED_BASE)
        database = Database.from_facts({"e": [
            (a, b) for a in range(12) for b in range(12)
            if (3 * a + 5 * b) % 7 == 1]})
        h = HashDiscriminator((0, 1, 2))
        specs = {0: RuleSpec((X, Y), h), 1: RuleSpec((W,), h)}
        parallel = rewrite_general(program, (0, 1, 2), specs)
        result = run_parallel(parallel, database)
        expected = evaluate(program, database)
        assert (result.relation("t").as_set()
                == expected.relation("t").as_set())

    def test_repeated_processor_ids_rejected(self, nonlinear_ancestor):
        with pytest.raises(RewriteError):
            rewrite_general(nonlinear_ancestor, (0, 0, 1))

    def test_fragment_order_independent_of_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        orders = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            orders.append(subprocess.run(
                [sys.executable, "-c", _FRAGMENT_NAMES, SG_MULTI_BASE],
                env=env, check=True, capture_output=True, text=True).stdout)
        assert orders[0] == orders[1]


@st.composite
def per_rule_choices(draw):
    """A program, a random sequence per rule and a salt for one shared h."""
    program = draw(st.sampled_from([
        nonlinear_ancestor_program, same_generation_program,
        functools.partial(parse_program, REPEATED_BASE)]))()
    sequences = []
    for rule in program.proper_rules():
        variables = sorted(set(rule.body_variables()), key=str)
        sequences.append(tuple(draw(st.lists(
            st.sampled_from(variables), unique=True, max_size=3))))
    return program, sequences, draw(st.integers(0, 1000))


class TestPerRuleSpecProperty:
    @given(per_rule_choices(),
           st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                    max_size=20),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_answer_and_firings_match_seminaive(self, choice, edges, count):
        program, sequences, salt = choice
        processors = tuple(range(count))
        h = HashDiscriminator(processors, salt=salt)
        specs = {index: RuleSpec(sequence, h)
                 for index, sequence in enumerate(sequences)}
        database = Database()
        for predicate in program.base_predicates:
            database.declare(predicate, 2).update(sorted(set(edges)))
        result = run_parallel(rewrite_general(program, processors, specs),
                              database)
        sequential = evaluate(program, database)
        for predicate in program.derived_predicates:
            assert (result.relation(predicate).as_set()
                    == sequential.relation(predicate).as_set())
        # Theorem 6: under one shared h no substitution fires twice.
        assert (result.metrics.total_firings()
                <= sequential.counters.total_firings())
