"""The parallelisation rewrite (paper, Sections 3, 6 and 7).

Every rule ``r_k`` of the source program gets its own discriminating
sequence ``v(r_k)`` and discriminating function ``h_k`` (Section 7).
The program ``T_i`` executed at processor ``i`` consists of

* *processing* rules ``A_out^i :- B_in^i, ..., C_in^i, h_k(v(r_k)) = i``
  (derived body atoms read the local ``_in`` relations, base atoms read
  their fragment when every variable of ``v(r_k)`` occurs in the atom);
* *sending* rules ``C_ij :- C_out^i, h_k(v(r_k)) = j`` for every derived
  atom ``C`` in the body of ``r_k`` — evaluable point-to-point when all
  of ``v(r_k)`` occurs in ``C``, a broadcast otherwise;
* *receiving* and *final pooling* rules.

Section 3's ``Q_i`` is this construction on a linear sirup's two rules:
``(v(e), h')`` on the exit rule and ``(v(r), h)`` on the recursive rule.
Section 6's ``R_i`` gives the recursive rule a per-processor family
``{h_i}`` instead (see :class:`RuleSpec`).  The spec builders for both
live in :mod:`.schemes` (``rewrite_linear_sirup``,
``rewrite_linear_family``).

Theorems 1, 4 and 5 (correctness) and Theorems 2 and 6
(non-redundancy) are tested against this construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..datalog.atom import Atom
from ..datalog.program import Program
from ..datalog.rule import Rule
from ..datalog.term import Variable
from ..errors import RewriteError
from ..facts.fragments import FragmentationPlan
from .constraints import HashConstraint
from .discriminating import (
    Discriminator,
    DiscriminatorFamily,
    HashDiscriminator,
    PartitionDiscriminator,
)
from .naming import channel_name, fragment_name, in_name, out_name
from .plans import ARBITRARY, HASH, SHARED, FragmentSpec, ParallelProgram, ProcessorProgram
from .routing import Route, route_positions

__all__ = ["RuleSpec", "auto_specs", "rewrite_general"]

ProcessorId = Hashable


@dataclass(frozen=True)
class RuleSpec:
    """Discriminating choice for one rule.

    Attributes:
        sequence: the discriminating sequence ``v(r_k)``; every variable
            must occur in the rule body.  May be empty, in which case
            the rule fires at the single processor ``h(())``.
        discriminator: the discriminating function ``h_k``, or a
            per-processor family ``{h_i}`` (Section 6).  Under a family
            the rule carries no constraint, processor ``i`` routes the
            rule's derived inputs by ``h_i``, and the rule's base atoms
            are shared.
    """

    sequence: Tuple[Variable, ...]
    discriminator: Union[Discriminator, DiscriminatorFamily]

    def member(self, processor: ProcessorId) -> Discriminator:
        """The function processor ``processor`` routes this rule's inputs by."""
        if isinstance(self.discriminator, DiscriminatorFamily):
            return self.discriminator.member(processor)
        return self.discriminator

    def constraints(self, processor: ProcessorId) -> Tuple[HashConstraint, ...]:
        """The rule's conjunct ``h(v) = processor``; none under a family."""
        if isinstance(self.discriminator, DiscriminatorFamily):
            return ()
        return (HashConstraint(self.discriminator, self.sequence, processor),)


def auto_specs(program: Program, processors: Sequence[ProcessorId],
               salt: int = 0) -> Dict[int, RuleSpec]:
    """A sensible default choice of per-rule specs.

    For each proper rule: discriminate on the variables of the first
    derived body atom (the recursive input whose tuples are routed) or,
    for non-recursive rules, on the head variables; use one shared hash
    discriminator throughout, which keeps the whole rewriting
    non-redundant (Theorem 6).
    """
    processors = tuple(processors)
    shared_h = HashDiscriminator(processors, salt=salt)
    derived = set(program.derived_predicates)
    specs: Dict[int, RuleSpec] = {}
    for index, rule in enumerate(program.proper_rules()):
        derived_atoms = [a for a in rule.body if a.predicate in derived]
        if derived_atoms:
            sequence = derived_atoms[0].variables()
        else:
            body_vars = set(rule.body_variables())
            sequence = tuple(v for v in rule.head_variables() if v in body_vars)
        specs[index] = RuleSpec(sequence=tuple(sequence), discriminator=shared_h)
    return specs


def rewrite_general(program: Program, processors: Sequence[ProcessorId],
                    specs: Optional[Mapping[int, RuleSpec]] = None,
                    scheme: str = "section7") -> ParallelProgram:
    """Rewrite an arbitrary Datalog program for parallel execution.

    Args:
        program: any validated Datalog program (non-linear and multi-rule
            programs included).
        processors: the processor ids ``P``.
        specs: per-rule (index into ``program.proper_rules()``) choice of
            discriminating sequence and function; defaults to
            :func:`auto_specs`.
        scheme: label used in reports.

    Raises:
        RewriteError: on an empty or repeated processor set, or an
            invalid spec (unknown rule index or sequence variable not in
            the rule body).
    """
    processors = tuple(processors)
    if not processors:
        raise RewriteError("processor set must be non-empty")
    if len(set(processors)) != len(processors):
        raise RewriteError("processor ids must be distinct")
    rules = program.proper_rules()
    if specs is None:
        specs = auto_specs(program, processors)
    for index in specs:
        if not 0 <= index < len(rules):
            raise RewriteError(f"spec for unknown rule index {index}")
    for index, rule in enumerate(rules):
        if index not in specs:
            raise RewriteError(f"missing spec for rule {index}: {rule}")
        body_vars = set(rule.body_variables())
        for variable in specs[index].sequence:
            if variable not in body_vars:
                raise RewriteError(
                    f"discriminating variable {variable} of rule {index} "
                    f"does not occur in the body of: {rule}")

    derived = tuple(program.derived_predicates)
    derived_set = set(derived)
    arities = {pred: program.arity_of(pred) for pred in derived}
    fragments, fragmentation, local_names = _plan_fragments(
        rules, specs, derived_set)

    in_names = {pred: in_name(pred) for pred in derived}
    out_names = {pred: out_name(pred) for pred in derived}
    programs: Dict[ProcessorId, ProcessorProgram] = {}
    for proc in processors:
        init_rules: List[Rule] = []
        processing_rules: List[Rule] = []
        routes: List[Route] = []
        for index, rule in enumerate(rules):
            spec = specs[index]
            h_i = spec.member(proc)
            body: List[Atom] = []
            has_in = False
            for position, atom in enumerate(rule.body):
                if atom.predicate in derived_set:
                    body.append(atom.with_predicate(in_names[atom.predicate]))
                    routes.append(Route(
                        predicate=atom.predicate,
                        pattern=atom,
                        positions=route_positions(spec.sequence, atom),
                        discriminator=h_i))
                    has_in = True
                else:
                    body.append(atom.with_predicate(local_names[index, position]))
            rewritten = Rule(
                rule.head.with_predicate(out_names[rule.head.predicate]),
                body, spec.constraints(proc))
            (processing_rules if has_in else init_rules).append(rewritten)
        programs[proc] = ProcessorProgram(
            processor=proc,
            init_rules=tuple(init_rules),
            processing_rules=tuple(processing_rules),
            routes=tuple(routes),
            in_names=in_names,
            out_names=out_names,
            arities=arities,
        )

    union = _build_union(program, processors, rules, specs, derived, arities)

    return ParallelProgram(
        source=program,
        scheme=scheme,
        processors=processors,
        programs=programs,
        fragments=fragments,
        fragmentation=fragmentation,
        union=union,
        derived=derived,
    )


def _plan_fragments(rules: Tuple[Rule, ...], specs: Mapping[int, RuleSpec],
                    derived: Set[str]
                    ) -> Tuple[Tuple[FragmentSpec, ...], FragmentationPlan,
                               Dict[Tuple[int, int], str]]:
    """Base-relation availability, planned per body occurrence.

    An occurrence whose rule's sequence lies wholly inside the atom
    needs only the fragment ``b^i :- b, h(v) = i`` (Section 3); an
    empty sequence, a family spec or a sequence variable missing from
    the atom needs the whole relation.  Occurrences selecting the same
    positions with the same function read one fragment (Example 2's
    exit and recursive ``par``).  Shared wins: a predicate with any
    whole-relation occurrence is read whole everywhere, since the full
    copy subsumes every fragment of it.  Fragments and requirements keep
    first-occurrence order.

    Returns the fragments, the summary plan, and the local name each
    base occurrence reads, keyed by ``(rule index, body position)``.
    """
    fragments: List[FragmentSpec] = []
    by_key: Dict[Tuple, FragmentSpec] = {}
    planned: Dict[Tuple[int, int], FragmentSpec] = {}
    kinds: Dict[str, List[str]] = {}
    occurrence = 0
    for index, rule in enumerate(rules):
        spec = specs[index]
        family = isinstance(spec.discriminator, DiscriminatorFamily)
        for position, atom in enumerate(rule.body):
            if atom.predicate in derived:
                continue
            positions = (route_positions(spec.sequence, atom)
                         if spec.sequence and not family else None)
            if positions is None:
                key: Tuple = (atom.predicate,)
                kind = SHARED
            else:
                kind = (ARBITRARY
                        if isinstance(spec.discriminator, PartitionDiscriminator)
                        else HASH)
                key = (atom.predicate, positions, id(spec.discriminator), kind)
            fragment = by_key.get(key)
            if fragment is None:
                fragment = by_key[key] = (
                    FragmentSpec(atom.predicate, atom.arity, atom.predicate)
                    if kind == SHARED else
                    FragmentSpec(atom.predicate, atom.arity,
                                 fragment_name(atom.predicate, occurrence),
                                 kind, positions, spec.discriminator))
                fragments.append(fragment)
            planned[index, position] = fragment
            kinds.setdefault(atom.predicate, []).append(kind)
            occurrence += 1

    shared = {pred for pred, seen in kinds.items() if SHARED in seen}
    local_names = {site: (fragment.predicate if fragment.predicate in shared
                          else fragment.local_name)
                   for site, fragment in planned.items()}
    requirements: Dict[str, str] = {}
    notes: Dict[str, str] = {}
    for pred, seen in kinds.items():
        if pred in shared:
            requirements[pred] = "shared"
            if any(kind != SHARED for kind in seen):
                notes[pred] = "some occurrences are fragmentable, others not"
        else:
            requirements[pred] = ("arbitrary-partition" if ARBITRARY in seen
                                  else "hash-partitioned")
    kept = tuple(fragment for fragment in fragments
                 if fragment.kind == SHARED or fragment.predicate not in shared)
    return (kept, FragmentationPlan(requirements=requirements, notes=notes),
            local_names)


def _fresh_variables(count: int, avoid: Set[str]) -> Tuple[Variable, ...]:
    """Return ``count`` variables named ``W1, W2, ...`` avoiding ``avoid``."""
    fresh: List[Variable] = []
    counter = 1
    while len(fresh) < count:
        name = f"W{counter}"
        counter += 1
        if name not in avoid:
            fresh.append(Variable(name))
    return tuple(fresh)


def _build_union(program: Program, processors: Tuple[ProcessorId, ...],
                 rules: Tuple[Rule, ...], specs: Mapping[int, RuleSpec],
                 derived: Tuple[str, ...],
                 arities: Mapping[str, int]) -> Program:
    """The literal union ``∪_i T_i`` as one Datalog program.

    Its least model restricted to the source predicates must equal the
    source program's (Theorems 1, 4 and 5).  A derived predicate's
    program facts go into the first processor's ``t_out``, as in
    :meth:`~.plans.ParallelProgram.local_database`, so the sending rules
    route them; base facts stay as they are.
    """
    derived_set = set(derived)
    avoid = {v.name for rule in rules for v in rule.variables()}
    pool_vars = {pred: _fresh_variables(arities[pred], avoid)
                 for pred in derived}
    union_rules: List[Rule] = [
        Rule(head.with_predicate(out_name(head.predicate, processors[0]))
             if head.predicate in derived_set else head)
        for head in program.facts()]

    for i in processors:
        for index, rule in enumerate(rules):
            spec = specs[index]
            h_i = spec.member(i)
            # Processing: A_out^i :- B_in^i, ..., C_in^i [, h(v(r)) = i].
            body = [a.with_predicate(in_name(a.predicate, i))
                    if a.predicate in derived_set else a
                    for a in rule.body]
            union_rules.append(Rule(
                rule.head.with_predicate(out_name(rule.head.predicate, i)),
                body, spec.constraints(i)))
            # Sending: C_ij :- C_out^i, h_i(v(r)) = j per derived atom C.
            # When some variable of v(r) is missing from C the condition
            # is not evaluable at the sender and everything is sent.
            for atom in rule.body:
                if atom.predicate not in derived_set:
                    continue
                sendable = route_positions(spec.sequence, atom) is not None
                for j in processors:
                    constraints = ((HashConstraint(h_i, spec.sequence, j),)
                                   if sendable else ())
                    union_rules.append(Rule(
                        atom.with_predicate(channel_name(atom.predicate, i, j)),
                        (atom.with_predicate(out_name(atom.predicate, i)),),
                        constraints))
        for pred in derived:
            pool = pool_vars[pred]
            # Receiving: t_in^i(W) :- t_ji(W).
            for j in processors:
                union_rules.append(Rule(
                    Atom(in_name(pred, i), pool),
                    (Atom(channel_name(pred, j, i), pool),)))
            # Final pooling: t(W) :- t_out^i(W).
            union_rules.append(Rule(
                Atom(pred, pool),
                (Atom(out_name(pred, i), pool),)))
    return Program(union_rules)
