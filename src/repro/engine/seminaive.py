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

One semi-naive loop serves every evaluator: :class:`DeltaLoop` owns
the full, delta and ``#prev`` relations and the variant plans, and
:func:`run_plans` runs them.  The sequential engine feeds the loop its
own round output; each parallel processor (Sections 3, 6 and 7 of the
paper) feeds it the facts it receives over its ``t_in`` relations, so
``Q_i`` and ``L`` run the same round.
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
    "DeltaLoop",
    "DeltaVariant",
    "delta_variants",
    "prev_predicates",
    "run_plans",
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


def delta_variants(rule: Rule,
                   target_predicates: Set[str]) -> List[DeltaVariant]:
    """Return the semi-naive delta variants of ``rule``.

    Args:
        rule: a rule whose body mentions at least one target predicate.
        target_predicates: the recursive predicates of the current
            stratum (or the ``_in`` predicates of a parallel processor).

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
                body.append(atom.with_predicate(atom.predicate + DELTA_SUFFIX))
            elif (atom.predicate in target_predicates and index > delta_at):
                body.append(atom.with_predicate(atom.predicate + PREV_SUFFIX))
            else:
                body.append(atom)
        variants.append(DeltaVariant(rule.with_body(body), delta_at))
    return variants


def prev_predicates(variant_rules: Iterable[Rule]) -> Set[str]:
    """The target predicates whose previous relation some variant reads.

    :func:`delta_variants` names a ``#prev`` relation only for a second
    recursive occurrence in one body, so a linear rule reads none — and
    a relation nothing reads need not be kept, let alone indexed.
    """
    return {atom.predicate[:-len(PREV_SUFFIX)]
            for rule in variant_rules for atom in rule.body
            if atom.predicate.endswith(PREV_SUFFIX)}


class DeltaLoop:
    """The semi-naive state of ``rules`` over their target relations.

    Per target (a stratum's recursive predicates, or a processor's
    ``t_in`` relations, all already in ``working``) it holds the full
    relation (:attr:`full`), the delta batch and, only where some
    variant reads one, the ``#prev`` relation (:attr:`prevs`); and it
    holds the delta-variant :attr:`plans`.  A round runs the plans
    (:func:`run_plans`), adds the facts the round brings to the full
    relations and hands the fresh ones to :meth:`advance`.  Where those
    facts come from is the caller's: the sequential engine feeds back
    its own output, a processor its receive stage.
    """

    def __init__(self, working: Database, targets: Iterable[str],
                 rules: Iterable[Rule], reorder: bool = True) -> None:
        self._working = working
        self.full: Dict[str, Relation] = {
            name: working.relation(name) for name in targets}
        self.plans: List[RulePlan] = [
            compile_plan(variant.rule, label=str(rule), reorder=reorder,
                         pinned_first=variant.delta_position)
            for rule in rules
            for variant in delta_variants(rule, set(self.full))]
        self.prevs: Dict[str, Relation] = {}  # none to catch up yet
        self._deltas: Dict[str, FactBatch] = {}
        self.advance({})  # the empty first deltas
        # A prev relation exists only where some variant reads it: for a
        # linear rule it would be a full, indexed, never-read copy.
        self.prevs = {
            name: working.declare(name + PREV_SUFFIX, self.full[name].arity)
            for name in prev_predicates(plan.rule for plan in self.plans)}

    def advance(self, fresh_of: Dict[str, List[Fact]]) -> None:
        """Close a round: each prev catches up with its last delta, and
        each target's fresh facts (none if absent) become its next."""
        for name, prev in self.prevs.items():
            prev.update(self._deltas[name].facts())
        for name, full in self.full.items():
            delta = FactBatch(name + DELTA_SUFFIX, full.arity,
                              fresh_of.get(name, ()))
            self._deltas[name] = delta
            self._working.attach(delta)

    def pending(self) -> bool:
        """True iff some delta holds a fact: the next round has work."""
        return any(self._deltas.values())


def run_plans(plans: Sequence[RulePlan], working: Database,
              counters: EvalCounters, tracer: Tracer,
              tag: Optional[str] = None) -> Dict[str, List[Fact]]:
    """Execute ``plans``; return the produced batch per head predicate.

    Each plan hands back its whole batch; batches of one head are
    concatenated, never re-walked fact by fact.  ``tag`` names the
    processor in ``rule_fired`` events (``None``: sequential).
    """
    tracing = tracer.enabled
    by_head: Dict[str, List[Fact]] = {}
    for plan in plans:
        facts = plan.execute(working, counters)
        if not facts:
            continue
        if tracing:
            for fact in facts:
                tracer.rule_fired(tag, plan.label, fact)
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
    tracing = tracer.enabled

    def close_round(produced: Dict[str, List[Fact]]) -> Dict[str, List[Fact]]:
        """Dedup each head's batch into its relation; return the fresh
        facts per head (first-occurrence order, see
        Relation.add_new_many)."""
        fresh_of: Dict[str, List[Fact]] = {}
        for head, facts in produced.items():
            fresh = working.relation(head).add_new_many(facts)
            if fresh:
                fresh_of[head] = fresh
        return fresh_of

    # Exit rules run once.  Each round boundary collects the young
    # generation once the round's produced batch is dropped, so the
    # collection untracks the kept facts while they are in cache and
    # walks no duplicate (repro.engine.collector).
    exit_plans = [compile_plan(rule, reorder=reorder)
                  for rule in stratum.exit_rules()]
    close_round(run_plans(exit_plans, working, counters, tracer))
    collect_young()
    if not stratum.recursive:
        return

    # The first deltas are everything the stratum's predicates hold:
    # the exit rules' facts and any program facts.
    loop = DeltaLoop(working, stratum.predicates, stratum.recursive_rules(),
                     reorder=reorder)
    loop.advance({predicate: list(working.relation(predicate))
                  for predicate in stratum.predicates})

    while loop.pending():
        counters.iterations += 1
        if tracing:
            tracer.round_start(counters.iterations)
        produced = run_plans(loop.plans, working, counters, tracer)
        # Close the round: the genuinely new facts become the next
        # deltas, and prev catches up with full.
        fresh_of = close_round(produced)
        loop.advance(fresh_of)
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
