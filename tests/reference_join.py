"""The test oracle for :meth:`repro.engine.plan.RulePlan.execute`.

A recursive, term-by-term nested-loops interpreter over the same plan:
one probe per partial binding arriving at a step, one firing per ground
substitution, constraints asked through the
:class:`~repro.datalog.rule.Constraint` protocol on boxed bindings.  It
shares nothing with the batch join but the plan, so the two agreeing on
the head batch (as a multiset), the probes and the firings is the join's
equivalence contract.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.datalog.substitution import Substitution
from repro.datalog.term import Constant, Variable
from repro.engine import EvalCounters, RulePlan
from repro.errors import EvaluationError
from repro.facts import Database
from repro.facts.relation import Fact


def reference_execute(plan: RulePlan, database: Database,
                      counters: Optional[EvalCounters] = None) -> List[Fact]:
    """Return one head tuple per successful ground substitution."""
    empty_binding = Substitution.empty()
    for constraint in plan.pre_constraints:
        if not constraint.satisfied(empty_binding):
            return []

    relations = []
    for step in plan.steps:
        relation = database.get(step.atom.predicate)
        if relation is None:
            raise EvaluationError(
                f"no relation for predicate {step.atom.predicate!r} "
                f"needed by rule {plan.label}")
        relations.append(relation)

    head_terms = plan.rule.head.terms
    binding: Dict[Variable, object] = {}

    def instantiate_head() -> Fact:
        return tuple(term.value if isinstance(term, Constant)
                     else binding[term] for term in head_terms)

    def descend(step_index: int) -> Iterator[Fact]:
        if step_index == len(plan.steps):
            if counters is not None:
                counters.record_firing(plan.label)
            yield instantiate_head()
            return
        step = plan.steps[step_index]
        relation = relations[step_index]
        key = tuple(
            term.value if isinstance(term, Constant) else binding[term]
            for term in (step.atom.terms[p] for p in step.key_positions))
        if counters is not None:
            counters.record_probe()
        if step.key_positions:
            candidates = relation.lookup(step.key_positions, key)
        else:
            candidates = relation.facts()
        for fact in candidates:
            newly_bound: List[Variable] = []
            matches = True
            for position, term in enumerate(step.atom.terms):
                value = fact[position]
                if isinstance(term, Constant):
                    if term.value != value:
                        matches = False
                        break
                    continue
                if term in binding:
                    if binding[term] != value:
                        matches = False
                        break
                    continue
                binding[term] = value
                newly_bound.append(term)
            if matches and all(
                    constraint.satisfied(Substitution(
                        {v: Constant(binding[v])
                         for v in constraint.variables}))
                    for constraint in step.constraints):
                yield from descend(step_index + 1)
            for variable in newly_bound:
                del binding[variable]

    return list(descend(0))
