"""Tests for semi-naive evaluation and its delta-variant machinery."""

from repro.datalog import parse_program, parse_rule
from repro.engine import (
    DELTA_SUFFIX,
    PREV_SUFFIX,
    EvalCounters,
    RulePlan,
    delta_variants,
    evaluate,
    seminaive,
    seminaive_evaluate,
)
from repro.facts import Database

from ..reference_join import reference_execute


class TestDeltaVariants:
    def test_linear_rule_single_variant(self):
        rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        variants = delta_variants(rule, {"anc"})
        assert len(variants) == 1
        variant = variants[0]
        assert variant.delta_position == 1
        assert variant.rule.body[1].predicate == "anc" + DELTA_SUFFIX
        assert variant.rule.body[0].predicate == "par"

    def test_nonlinear_rule_two_variants(self):
        rule = parse_rule("anc(X, Y) :- anc(X, Z), anc(Z, Y).")
        variants = delta_variants(rule, {"anc"})
        assert len(variants) == 2
        first, second = variants
        # Variant 1: delta at position 0, later occurrence reads prev.
        assert first.rule.body[0].predicate == "anc" + DELTA_SUFFIX
        assert first.rule.body[1].predicate == "anc" + PREV_SUFFIX
        # Variant 2: delta at position 1, earlier occurrence reads full.
        assert second.rule.body[0].predicate == "anc"
        assert second.rule.body[1].predicate == "anc" + DELTA_SUFFIX

    def test_non_recursive_rule_yields_nothing(self):
        rule = parse_rule("anc(X, Y) :- par(X, Y).")
        assert delta_variants(rule, {"anc"}) == []

    def test_mutual_recursion_targets(self):
        rule = parse_rule("a(X) :- b(X), c(X).")
        variants = delta_variants(rule, {"b", "c"})
        assert len(variants) == 2


class TestSemiNaive:
    def test_chain_closure(self, ancestor, chain_db):
        output = seminaive_evaluate(ancestor, chain_db)
        assert len(output.relation("anc")) == 55

    def test_firings_equal_derivations_on_tree(self, ancestor, tree_db):
        counters = EvalCounters()
        output = seminaive_evaluate(ancestor, tree_db, counters)
        # On a tree every anc fact has exactly one derivation, and
        # semi-naive enumerates each exactly once.
        assert counters.total_firings() == len(output.relation("anc"))

    def test_nonlinear_exactly_once_per_derivation_pair(self, chain_db,
                                                        nonlinear_ancestor):
        linear = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        expected = seminaive_evaluate(linear, chain_db).relation("anc").as_set()
        got = seminaive_evaluate(nonlinear_ancestor,
                                 chain_db).relation("anc").as_set()
        assert got == expected

    def test_input_database_not_mutated(self, ancestor, chain_db):
        before = chain_db.relation("par").as_set()
        seminaive_evaluate(ancestor, chain_db)
        assert chain_db.relation("par").as_set() == before
        assert chain_db.get("anc") is None

    def test_program_facts_seed_evaluation(self):
        program = parse_program("""
            par(1, 2).
            par(2, 3).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        output = seminaive_evaluate(program, Database())
        assert output.relation("anc").as_set() == {(1, 2), (2, 3), (1, 3)}

    def test_facts_for_derived_predicate(self):
        program = parse_program("""
            anc(7, 8).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        """)
        database = Database.from_facts({"par": [(6, 7)]})
        output = seminaive_evaluate(program, database)
        assert (6, 8) in output.relation("anc")

    def test_multi_stratum_program(self, chain_db):
        program = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            reach10(X) :- anc(X, 10).
            two_hop_reach(X, Y) :- reach10(X), anc(X, Y).
        """)
        output = seminaive_evaluate(program, chain_db)
        assert len(output.relation("reach10")) == 9
        assert output.relation("two_hop_reach")

    def test_mutual_recursion(self):
        program = parse_program("""
            even(X) :- zero(X).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
        """)
        database = Database.from_facts({
            "zero": [(0,)],
            "succ": [(i, i + 1) for i in range(6)],
        })
        output = seminaive_evaluate(program, database)
        assert output.relation("even").as_set() == {(0,), (2,), (4,), (6,)}
        assert output.relation("odd").as_set() == {(1,), (3,), (5,)}

    def test_cyclic_data_terminates(self):
        program = parse_program("""
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
        """)
        database = Database.from_facts({
            "edge": [(1, 2), (2, 3), (3, 1)],
        })
        output = seminaive_evaluate(program, database)
        assert len(output.relation("tc")) == 9  # complete digraph

    def test_iterations_counted(self, ancestor, chain_db):
        counters = EvalCounters()
        seminaive_evaluate(ancestor, chain_db, counters)
        assert counters.iterations == 10


class TestPrevElision:
    """A ``#prev`` relation is kept only where some delta variant reads
    it: never for a linear rule, always for a second recursive
    occurrence.  Either way every counter equals the one the reference
    interpreter (``tests/reference_join.py``) counts."""

    @staticmethod
    def _run(program, database, monkeypatch):
        """Evaluate; return (counters, answer sets, ``#prev`` sizes)."""
        held = {}
        inner = seminaive._evaluate_stratum

        def spy(stratum, working, *rest):
            inner(stratum, working, *rest)
            held.update({relation.name: len(relation) for relation in working
                         if relation.name.endswith(PREV_SUFFIX)})
        monkeypatch.setattr(seminaive, "_evaluate_stratum", spy)
        counters = EvalCounters()
        output = seminaive_evaluate(program, database, counters)
        answers = {predicate: output.relation(predicate).as_set()
                   for predicate in program.derived_predicates}
        return counters.as_dict(), answers, held

    def _reference(self, program, database, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(RulePlan, "execute", reference_execute)
            return self._run(program, database, patch)[:2]

    def test_prev_predicates_reads_the_variants(self):
        linear = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        nonlinear = parse_rule("anc(X, Y) :- anc(X, Z), anc(Z, Y).")
        assert seminaive.prev_predicates(
            v.rule for v in delta_variants(linear, {"anc"})) == set()
        assert seminaive.prev_predicates(
            v.rule for v in delta_variants(nonlinear, {"anc"})) == {"anc"}

    def test_linear_program_keeps_no_prev(self, ancestor, dag_db,
                                          monkeypatch):
        counters, answers, held = self._run(ancestor, dag_db, monkeypatch)
        assert sum(held.values()) == 0
        assert (counters, answers) == self._reference(ancestor, dag_db,
                                                      monkeypatch)

    def test_nonlinear_program_still_fills_prev(self, nonlinear_ancestor,
                                                dag_db, monkeypatch):
        counters, answers, held = self._run(nonlinear_ancestor, dag_db,
                                            monkeypatch)
        # At the fixpoint prev has caught up with everything but the
        # last (empty) delta: it is the whole relation.
        assert held == {"anc" + PREV_SUFFIX: len(answers["anc"])}
        assert (counters, answers) == self._reference(
            nonlinear_ancestor, dag_db, monkeypatch)

    def test_mutual_recursion_keeps_only_the_prev_it_reads(self, monkeypatch):
        program = parse_program("""
            a(X, Y) :- e(X, Y).
            a(X, Y) :- a(X, Z), b(Z, Y).
            b(X, Y) :- e(X, Y).
            b(X, Y) :- e(X, Z), a(Z, Y).
        """)
        database = Database.from_facts(
            {"e": [(i, i + 1) for i in range(8)] + [(2, 5), (0, 4)]})
        counters, answers, held = self._run(program, database, monkeypatch)
        # Only ``a(X,Z), b(Z,Y)`` has a second recursive occurrence.
        assert set(held) == {"b" + PREV_SUFFIX}
        assert (counters, answers) == self._reference(program, database,
                                                      monkeypatch)
