"""Semi-naive bottom-up evaluation.

The basic step of semi-naive evaluation substitutes rule variables by
constants such that every body atom holds in the extensional or the
partially computed intensional database (paper, Section 3), while only
considering substitutions that use at least one *new* tuple.  For a rule
with recursive body occurrences at positions ``p1 < ... < pm`` we
generate one *delta variant* per occurrence: variant ``l`` reads the
full relation at positions before ``pl``, the delta at ``pl`` and the
previous relation at positions after ``pl``.  Each new derivation is
then enumerated exactly once — at the largest position that uses a new
tuple.

A delta is not a relation but a batch
(:class:`~repro.facts.batch.FactBatch`): the list of fresh facts the
last round close returned.  Every variant pins its delta atom first, so
the join only scans it — it indexes it only for a delta atom that
carries a constant — and ``#prev`` catches up from it.

The delta-variant generator is public because the parallel processors
(Sections 3, 6 and 7 of the paper) reuse it over their ``t_in``
relations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..datalog.atom import Atom
from ..datalog.program import Program
from ..datalog.rule import Rule
from ..facts.batch import FactBatch
from ..facts.database import Database
from ..facts.relation import Fact, Relation
from ..obs.tracer import Tracer, ensure_tracer
from .collector import collect_young
from .counters import EvalCounters
from .plan import RulePlan
from .planner import compile_plan
from .stratify import Stratum, build_strata

__all__ = [
    "DELTA_SUFFIX",
    "PREV_SUFFIX",
    "DeltaVariant",
    "delta_variants",
    "prev_predicates",
    "seminaive_evaluate",
]

DELTA_SUFFIX = "#delta"
PREV_SUFFIX = "#prev"


class DeltaVariant:
    """One delta variant of a recursive rule.

    Attributes:
        rule: the rewritten rule (body atoms renamed to delta/prev).
        delta_position: index of the delta atom within the body.
    """

    __slots__ = ("rule", "delta_position")

    def __init__(self, rule: Rule, delta_position: int) -> None:
        self.rule = rule
        self.delta_position = delta_position

    def __repr__(self) -> str:
        return f"DeltaVariant({self.rule}, delta at {self.delta_position})"


def delta_variants(rule: Rule, target_predicates: Set[str],
                   delta_suffix: str = DELTA_SUFFIX,
                   prev_suffix: str = PREV_SUFFIX) -> List[DeltaVariant]:
    """Return the semi-naive delta variants of ``rule``.

    Args:
        rule: a rule whose body mentions at least one target predicate.
        target_predicates: the recursive predicates of the current
            stratum (or the ``_in`` predicates of a parallel processor).
        delta_suffix: appended to a predicate name to name its delta.
        prev_suffix: appended to a predicate name to name its previous
            (pre-round) relation.

    Returns:
        One variant per occurrence of a target predicate in the body.
        For non-recursive rules (no occurrence) the list is empty.
    """
    occurrences = [i for i, atom in enumerate(rule.body)
                   if atom.predicate in target_predicates]
    variants: List[DeltaVariant] = []
    for delta_at in occurrences:
        body: List[Atom] = []
        for index, atom in enumerate(rule.body):
            if index == delta_at:
                body.append(atom.with_predicate(atom.predicate + delta_suffix))
            elif (atom.predicate in target_predicates and index > delta_at):
                body.append(atom.with_predicate(atom.predicate + prev_suffix))
            else:
                body.append(atom)
        variants.append(DeltaVariant(rule.with_body(body), delta_at))
    return variants


def prev_predicates(variant_rules: Iterable[Rule],
                    prev_suffix: str = PREV_SUFFIX) -> Set[str]:
    """The target predicates whose previous relation some variant reads.

    :func:`delta_variants` names a ``#prev`` relation only for a second
    recursive occurrence in one body, so a linear rule reads none — and
    a relation nothing reads need not be kept, let alone indexed.
    """
    return {atom.predicate[:-len(prev_suffix)]
            for rule in variant_rules for atom in rule.body
            if atom.predicate.endswith(prev_suffix)}


def _run_plans(plans: Sequence[RulePlan], working: Database,
               counters: EvalCounters, tracer: Tracer) -> Dict[str, List[Fact]]:
    """Execute ``plans``; return the produced batch per head predicate.

    Each plan hands back its whole batch; batches of one head are
    concatenated, never re-walked fact by fact.
    """
    tracing = tracer.enabled
    by_head: Dict[str, List[Fact]] = {}
    for plan in plans:
        facts = plan.execute(working, counters)
        if not facts:
            continue
        if tracing:
            for fact in facts:
                tracer.rule_fired(None, plan.label, fact)
        head = plan.rule.head.predicate
        if head in by_head:
            by_head[head].extend(facts)
        else:
            by_head[head] = facts
    return by_head


def _evaluate_stratum(stratum: Stratum, working: Database,
                      counters: EvalCounters, reorder: bool,
                      tracer: Tracer) -> None:
    """Run semi-naive iteration for one stratum, updating ``working``."""
    predicates = stratum.predicates
    tracing = tracer.enabled

    variants = [(rule, variant) for rule in stratum.recursive_rules()
                for variant in delta_variants(rule, set(predicates))]

    # Relations for the stratum's predicates already exist in `working`
    # (declared by the caller); create a prev companion where some
    # variant reads one.  The deltas are batches, attached each round.
    prevs: Dict[str, Relation] = {}
    for predicate in prev_predicates(variant.rule for _, variant in variants):
        prevs[predicate] = working.declare(
            predicate + PREV_SUFFIX, working.relation(predicate).arity)
        prevs[predicate].clear()
    deltas: Dict[str, FactBatch] = {}

    def set_deltas(fresh_of: Dict[str, List[Fact]]) -> None:
        """Attach each predicate's next delta: its fresh facts, if any."""
        for predicate in predicates:
            deltas[predicate] = FactBatch(
                predicate + DELTA_SUFFIX, working.relation(predicate).arity,
                fresh_of.get(predicate, ()))
            working.attach(deltas[predicate])

    def close_round(produced: Dict[str, List[Fact]]) -> Dict[str, List[Fact]]:
        """Dedup each head's batch into its relation; return the fresh
        facts per head (first-occurrence order, see
        Relation.add_new_many)."""
        fresh_of: Dict[str, List[Fact]] = {}
        for head, facts in produced.items():
            fresh = working.relation(head).add_new_many(facts)
            if fresh:
                counters.record_new(head, len(fresh))
                fresh_of[head] = fresh
        return fresh_of

    # Exit rules run once.  Each round boundary collects the young
    # generation once the round's produced batch is dropped, so the
    # collection untracks the kept facts while they are in cache and
    # walks no duplicate (repro.engine.collector).
    exit_plans = [compile_plan(rule, reorder=reorder)
                  for rule in stratum.exit_rules()]
    close_round(_run_plans(exit_plans, working, counters, tracer))
    collect_young()
    if not stratum.recursive:
        return

    # The first deltas are everything the stratum's predicates hold:
    # the exit rules' facts and any program facts.
    set_deltas({predicate: list(working.relation(predicate))
                for predicate in predicates})
    variant_plans = [
        compile_plan(variant.rule, label=str(rule), reorder=reorder,
                     pinned_first=variant.delta_position)
        for rule, variant in variants]

    while any(deltas.values()):
        counters.iterations += 1
        if tracing:
            tracer.round_start(counters.iterations)
        produced = _run_plans(variant_plans, working, counters, tracer)
        # Close the round: prev catches up with full, and the genuinely
        # new facts become the next deltas.
        for predicate, prev in prevs.items():
            prev.update(deltas[predicate].facts())
        fresh_of = close_round(produced)
        set_deltas(fresh_of)
        if tracing:
            tracer.round_end(counters.iterations,
                             produced=sum(map(len, produced.values())),
                             new=sum(map(len, fresh_of.values())))
        del produced
        collect_young()


def seminaive_evaluate(program: Program, database: Database,
                       counters: Optional[EvalCounters] = None,
                       reorder: bool = True,
                       tracer: Optional[Tracer] = None) -> Database:
    """Evaluate ``program`` over ``database`` by stratified semi-naive iteration.

    Args:
        program: a validated Datalog program.
        database: the extensional input; never mutated.
        counters: optional counters accumulating firings/probes/rounds.
        reorder: allow the planner's greedy atom reordering.
        tracer: optional :class:`~repro.obs.Tracer` receiving
            ``rule_fired`` and round-boundary events.

    Returns:
        A database holding a relation for every derived predicate (the
        least model restricted to derived predicates), plus references
        to the input base relations.
    """
    counters = counters if counters is not None else EvalCounters()
    tracer = ensure_tracer(tracer)
    if tracer.enabled:
        tracer.current_round = 0
    working = Database()
    derived = set(program.derived_predicates)

    # Attach base relations by reference (they are only read); derived
    # relations start from the program's fact rules.
    for relation in database:
        if relation.name in derived:
            working.attach(relation.copy())
        else:
            working.attach(relation)
    for predicate in program.predicates:
        working.declare(predicate, program.arity_of(predicate))
    for atom in program.facts():
        working.add_fact(atom.predicate, atom.to_fact())

    for stratum in build_strata(program):
        _evaluate_stratum(stratum, working, counters, reorder, tracer)

    result = Database()
    for predicate in derived:
        result.attach(working.relation(predicate))
    for relation in database:
        if relation.name not in derived:
            result.attach(relation)
    return result
