"""Deltas are batches (:class:`repro.facts.FactBatch`).

The one semi-naive loop (``DeltaLoop``), which the sequential engine
and each processor run, reads a round's delta as the list of fresh
facts its round close kept.  Each edge case a batch meets is checked
here against naive evaluation, through ``seminaive_evaluate`` and
through ``run_parallel`` (and, for the facts a derived predicate starts
with, ``run_multiprocessing``).  The checkpoint restore
(``import_state``) is checked in ``tests/parallel/test_processor.py``.
"""

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.engine import EvalCounters, evaluate, seminaive_evaluate
from repro.facts import Database, FactBatch
from repro.parallel import rewrite_general, run_parallel
from repro.parallel.mp import run_multiprocessing
from repro.workloads import nonlinear_ancestor_program, random_dag_edges

# The last rule's delta atom carries a constant, so step 0 of its
# variant looks the batch up instead of scanning it.
CONSTANT_DELTA = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    anc(0, Y) :- anc(5, Y).
"""
# Nothing but the first delta, which the program facts seed, derives
# anc(100, Y) or anc(101, Y).
PROGRAM_FACTS = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), par(Z, Y).
    anc(100, 1).
    anc(101, 3).
"""


@pytest.fixture
def dag():
    return Database.from_facts({"par": random_dag_edges(30, seed=3)})


@pytest.fixture
def batch_lookups(monkeypatch):
    """The ``(name, positions)`` of every index asked of a batch."""
    calls = []
    index_on = FactBatch.index_on

    def spy(batch, positions):
        calls.append((batch.name, tuple(positions)))
        return index_on(batch, positions)

    monkeypatch.setattr(FactBatch, "index_on", spy)
    return calls


def _naive(program, database):
    return evaluate(program, database,
                    method="naive").relation("anc").as_set()


def _sequential(program, database):
    return seminaive_evaluate(program, database).relation("anc").as_set()


def _parallel(program, database):
    return run_parallel(rewrite_general(program, (0, 1)),
                        database).relation("anc").as_set()


@pytest.mark.parametrize("run", [_sequential, _parallel],
                         ids=["sequential", "parallel"])
class TestBatchDeltas:
    def test_constant_in_the_delta_atom(self, run, dag, batch_lookups):
        program = parse_program(CONSTANT_DELTA)
        assert run(program, dag) == _naive(program, dag)
        assert {positions for name, positions in batch_lookups
                if name.endswith("#delta")} == {(0,)}

    def test_nonlinear_prev_catches_up_from_batches(self, run, dag):
        program = nonlinear_ancestor_program()
        assert run(program, dag) == _naive(program, dag)


def test_program_facts_seed_the_first_delta(dag):
    """A derived predicate's start facts — program facts, or an input
    relation of its name — seed the first delta: sequentially, and in
    the parallel executors through the one processor that seeds them
    into its ``t_out`` (``ParallelProgram.local_database``).  Seeding
    counts no firing, so ``Q_1`` still fires what ``L`` fires."""
    program = parse_program(PROGRAM_FACTS)
    answer = _sequential(program, dag)
    assert answer == _naive(program, dag)
    assert {x for x, y in answer if y not in (1, 3)} >= {100, 101}

    rules = Program(program.proper_rules())
    as_input = Database.from_facts({"par": list(dag.relation("par")),
                                    "anc": [(100, 1), (101, 3)]})
    assert _sequential(rules, as_input) == answer
    for executor in (run_parallel, run_multiprocessing):
        for n in (1, 2):
            for source, database in ((program, dag), (rules, as_input)):
                result = executor(rewrite_general(source, tuple(range(n))),
                                  database)
                case = (executor.__name__, n, source is program)
                assert result.relation("anc").as_set() == answer, case

    counters = EvalCounters()
    seminaive_evaluate(program, dag, counters)
    q1 = run_parallel(rewrite_general(program, (0,)), dag).counters[0]
    assert q1.total_firings() == counters.total_firings()
