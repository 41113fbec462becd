"""Tests for naive evaluation and the evaluator facade."""

import pytest

from repro.datalog import parse_program
from repro.engine import EvalCounters, evaluate, naive_evaluate
from repro.errors import EvaluationError
from repro.facts import Database


class TestNaive:
    def test_matches_seminaive(self, ancestor, dag_db):
        naive = naive_evaluate(ancestor, dag_db)
        semi = evaluate(ancestor, dag_db).output
        assert naive.same_contents(semi, ["anc"])

    def test_more_redundant_than_seminaive(self, ancestor, chain_db):
        naive_counters = EvalCounters()
        semi_counters = EvalCounters()
        naive_evaluate(ancestor, chain_db, naive_counters)
        evaluate(ancestor, chain_db, counters=semi_counters)
        assert naive_counters.total_firings() > semi_counters.total_firings()

    def test_input_not_mutated(self, ancestor, chain_db):
        before = chain_db.relation("par").as_set()
        naive_evaluate(ancestor, chain_db)
        assert chain_db.relation("par").as_set() == before


class TestEvaluator:
    def test_method_selection(self, ancestor, chain_db):
        assert evaluate(ancestor, chain_db, method="naive").method == "naive"
        assert evaluate(ancestor, chain_db).method == "seminaive"

    def test_unknown_method(self, ancestor, chain_db):
        with pytest.raises(EvaluationError):
            evaluate(ancestor, chain_db, method="magic")

    def test_result_accessors(self, ancestor, chain_db):
        result = evaluate(ancestor, chain_db)
        assert len(result.relation("anc")) == 55
        assert result.total_firings() == result.counters.total_firings()

    def test_external_counters(self, ancestor, chain_db):
        counters = EvalCounters()
        result = evaluate(ancestor, chain_db, counters=counters)
        assert result.counters is counters

    def test_empty_database(self, ancestor):
        result = evaluate(ancestor, Database())
        assert len(result.relation("anc")) == 0

    def test_same_generation(self, sg_program, sg_db):
        result = evaluate(sg_program, sg_db)
        naive = evaluate(sg_program, sg_db, method="naive")
        assert result.output.same_contents(naive.output, ["sg"])
        assert len(result.relation("sg")) > 0


class TestCounters:
    def test_merge(self):
        left = EvalCounters()
        left.record_firing("r1", 3)
        left.record_probe(5)
        left.iterations = 2
        right = EvalCounters()
        right.record_firing("r1", 1)
        right.record_firing("r2", 2)
        right.iterations = 4
        merged = left.merged_with(right)
        assert merged.firings["r1"] == 4
        assert merged.total_firings() == 6
        assert merged.probes == 5
        assert merged.iterations == 4

    def test_sum(self):
        counters = []
        for count in (1, 2, 3):
            item = EvalCounters()
            item.record_firing("r", count)
            counters.append(item)
        assert EvalCounters.sum(counters).total_firings() == 6

    def test_as_dict(self):
        counters = EvalCounters()
        counters.record_firing("r")
        snapshot = counters.as_dict()
        assert snapshot["total_firings"] == 1
        assert snapshot["firings"] == {"r": 1}
