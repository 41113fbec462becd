"""Naive bottom-up evaluation.

Re-evaluates every rule against the whole database until a fixpoint is
reached.  Exponentially more redundant than semi-naive evaluation, it
serves as the ground-truth oracle in tests (both strategies must agree
on the least model) and as the redundancy yardstick in benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..datalog.program import Program
from ..facts.database import Database
from ..facts.relation import Fact
from ..obs.tracer import Tracer, ensure_tracer
from .counters import EvalCounters
from .planner import compile_plan

__all__ = ["naive_evaluate"]


def naive_evaluate(program: Program, database: Database,
                   counters: Optional[EvalCounters] = None,
                   reorder: bool = True,
                   tracer: Optional[Tracer] = None) -> Database:
    """Evaluate ``program`` over ``database`` by naive iteration.

    Args:
        program: a validated Datalog program.
        database: the extensional input; never mutated.
        counters: optional counters accumulating firings/probes/rounds.
        reorder: allow the planner's greedy atom reordering.
        tracer: optional :class:`~repro.obs.Tracer` receiving
            ``rule_fired`` and round-boundary events.

    Returns:
        A database holding a relation for every derived predicate, plus
        references to the input base relations.
    """
    counters = counters if counters is not None else EvalCounters()
    tracer = ensure_tracer(tracer)
    tracing = tracer.enabled
    working = Database()
    derived = set(program.derived_predicates)

    for relation in database:
        if relation.name in derived:
            working.attach(relation.copy())
        else:
            working.attach(relation)
    for predicate in program.predicates:
        working.declare(predicate, program.arity_of(predicate))
    for atom in program.facts():
        working.add_fact(atom.predicate, atom.to_fact())

    plans = [compile_plan(rule, reorder=reorder)
             for rule in program.proper_rules()]

    changed = True
    while changed:
        changed = False
        counters.iterations += 1
        if tracing:
            tracer.round_start(counters.iterations)
        produced: List[Tuple[str, Fact]] = []
        for plan in plans:
            head = plan.rule.head.predicate
            for fact in plan.execute(working, counters):
                if tracing:
                    tracer.rule_fired(None, plan.label, fact)
                produced.append((head, fact))
        # Close the round with one batch-dedup insert per head predicate
        # (first-occurrence order preserved; see Relation.add_new_many).
        by_head: dict = {}
        for head, fact in produced:
            bucket = by_head.get(head)
            if bucket is None:
                bucket = by_head[head] = []
            bucket.append(fact)
        new_this_round = 0
        for head, facts in by_head.items():
            fresh = working.relation(head).add_new_many(facts)
            if fresh:
                changed = True
                new_this_round += len(fresh)
        if tracing:
            tracer.round_end(counters.iterations,
                             produced=len(produced), new=new_this_round)

    result = Database()
    for predicate in derived:
        result.attach(working.relation(predicate))
    for relation in database:
        if relation.name not in derived:
            result.attach(relation)
    return result
