"""Static analysis of Datalog programs.

Provides the predicate dependency graph, recursion detection, and the
recognition of *linear sirups* — programs with one linear recursive rule
and one non-recursive exit rule — which Sections 3 through 6 of the
paper restrict their schemes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..errors import NotASirupError
from .atom import Atom
from .program import Program
from .rule import Rule
from .term import Variable

__all__ = [
    "recursive_predicates",
    "is_recursive_rule",
    "recursion_components",
    "LinearSirup",
    "as_linear_sirup",
    "is_linear_sirup",
]

# Successor lists of the predicate dependency graph, nodes and edges in
# first-mention order (insertion-ordered dicts standing in for sets).
_Successors = Dict[str, Dict[str, None]]


def _successors(program: Program) -> _Successors:
    """The dependency graph as plain adjacency dicts.

    There is an edge ``q -> p`` when predicate ``q`` occurs in the body
    of a rule whose head predicate is ``p`` (i.e. ``q`` *derives* ``p``,
    paper Section 2).  The graph has a handful of nodes; components,
    their order and reachability are all computed on this form.
    """
    graph: _Successors = {predicate: {} for predicate in program.predicates}
    for rule in program.proper_rules():
        head = rule.head.predicate
        for atom in rule.body:
            graph.setdefault(atom.predicate, {})[head] = None
            graph.setdefault(head, {})
    return graph


def _strongly_connected(graph: _Successors) -> List[FrozenSet[str]]:
    """Tarjan's algorithm, iteratively (no recursion limit to hit).

    Components come out in reverse topological order: each one after
    every component it can reach.
    """
    preorder: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    found: Set[str] = set()
    pending: List[str] = []     # finished nodes whose component is open
    components: List[FrozenSet[str]] = []
    unvisited = {node: iter(targets) for node, targets in graph.items()}
    for source in graph:
        if source in found:
            continue
        stack = [source]
        while stack:
            node = stack[-1]
            if node not in preorder:
                preorder[node] = len(preorder) + 1
            for successor in unvisited[node]:
                if successor not in preorder:
                    stack.append(successor)
                    break
            else:
                low = preorder[node]
                for successor in graph[node]:
                    if successor in found:
                        continue
                    if preorder[successor] > preorder[node]:
                        low = min(low, lowlink[successor])
                    else:
                        low = min(low, preorder[successor])
                lowlink[node] = low
                stack.pop()
                if low != preorder[node]:
                    pending.append(node)
                    continue
                component = {node}
                while pending and preorder[pending[-1]] > preorder[node]:
                    component.add(pending.pop())
                found |= component
                components.append(frozenset(component))
    return components


def recursive_predicates(program: Program) -> FrozenSet[str]:
    """Return the predicates that transitively derive themselves."""
    graph = _successors(program)
    recursive: Set[str] = set()
    for component in _strongly_connected(graph):
        if len(component) > 1:
            recursive |= component
        else:
            (node,) = component
            if node in graph[node]:
                recursive.add(node)
    return frozenset(recursive)


def is_recursive_rule(rule: Rule, program: Program) -> bool:
    """True iff the head predicate transitively derives a body predicate.

    This is the paper's definition of a recursive rule (Section 2).
    """
    if not rule.body:
        return False
    graph = _successors(program)
    head = rule.head.predicate
    reachable = {head}
    frontier = [head]
    while frontier:
        for successor in graph.get(frontier.pop(), ()):
            if successor not in reachable:
                reachable.add(successor)
                frontier.append(successor)
    return any(atom.predicate in reachable for atom in rule.body)


def recursion_components(program: Program) -> List[FrozenSet[str]]:
    """Return the SCCs of the dependency graph in topological order.

    Evaluating the program one component at a time, in this order, is
    the standard stratification of semi-naive evaluation for programs
    with several derived predicates.  Among the valid orders this is
    the one Kahn's algorithm yields generation by generation over the
    condensation, components numbered as Tarjan emits them.
    """
    graph = _successors(program)
    components = _strongly_connected(graph)
    owner = {node: number for number, component in enumerate(components)
             for node in component}
    successors: List[Dict[int, None]] = [{} for _ in components]
    indegree = [0] * len(components)
    for node, targets in graph.items():
        for target in targets:
            source, sink = owner[node], owner[target]
            if source != sink and sink not in successors[source]:
                successors[source][sink] = None
                indegree[sink] += 1
    ordered: List[FrozenSet[str]] = []
    ready = [number for number, degree in enumerate(indegree) if not degree]
    while ready:
        generation, ready = ready, []
        for number in generation:
            ordered.append(components[number])
            for sink in successors[number]:
                indegree[sink] -= 1
                if not indegree[sink]:
                    ready.append(sink)
    return ordered


@dataclass(frozen=True)
class LinearSirup:
    """The canonical decomposition of a linear sirup (paper, Section 2).

    Attributes:
        program: the original two-rule program.
        predicate: the derived predicate symbol ``t``.
        exit_rule: the non-recursive rule ``t(Z̄) :- s(Z̄)``.
        recursive_rule: the rule ``t(X̄) :- t(Ȳ), b1, ..., bk``.
        head_vars: ``X̄`` — the argument terms of the recursive head.
        body_vars: ``Ȳ`` — the argument terms of the recursive body atom.
        exit_vars: ``Z̄`` — the argument terms of the exit head.
        base_atoms: ``b1 ... bk`` in body order.
        recursive_atom: the unique ``t``-atom in the recursive body.
    """

    program: Program
    predicate: str
    exit_rule: Rule
    recursive_rule: Rule
    head_vars: Tuple[Variable, ...]
    body_vars: Tuple[Variable, ...]
    exit_vars: Tuple[Variable, ...]
    base_atoms: Tuple[Atom, ...]
    recursive_atom: Atom

    @property
    def base_predicates(self) -> Tuple[str, ...]:
        """Base predicate symbols of the program, in first-use order."""
        return self.program.base_predicates

    @property
    def arity(self) -> int:
        """Arity of the derived predicate."""
        return self.recursive_rule.head.arity


def _all_variables(atom: Atom) -> Tuple[Variable, ...]:
    """Arguments of ``atom`` as variables, or raise if any is a constant."""
    variables = []
    for term in atom.terms:
        if not isinstance(term, Variable):
            raise NotASirupError(
                f"sirup decomposition requires variable arguments, found {term}"
                f" in {atom}")
        variables.append(term)
    return tuple(variables)


def as_linear_sirup(program: Program) -> LinearSirup:
    """Decompose ``program`` as a linear sirup.

    Raises:
        NotASirupError: if the program is not a linear sirup: it must
            have exactly two rules with the same head predicate — one
            whose body contains no derived predicate (the exit rule) and
            one whose body contains exactly one occurrence of the head
            predicate (the recursive rule).
    """
    rules = program.proper_rules()
    if len(rules) != 2 or len(program.rules) != 2:
        raise NotASirupError(
            f"a linear sirup has exactly two rules, found {len(program.rules)}")
    first, second = rules
    if first.head.predicate != second.head.predicate:
        raise NotASirupError("both rules of a sirup must define the same predicate")
    predicate = first.head.predicate

    def occurrences(rule: Rule) -> int:
        return sum(1 for atom in rule.body if atom.predicate == predicate)

    if occurrences(first) == 0 and occurrences(second) == 1:
        exit_rule, recursive_rule = first, second
    elif occurrences(second) == 0 and occurrences(first) == 1:
        exit_rule, recursive_rule = second, first
    else:
        raise NotASirupError(
            "a linear sirup needs one exit rule and one rule with a single "
            f"recursive {predicate}-atom")

    derived = set(program.derived_predicates)
    for atom in exit_rule.body + recursive_rule.body:
        if atom.predicate in derived and atom.predicate != predicate:
            raise NotASirupError(
                f"sirup bodies may only use base predicates and {predicate}")

    (recursive_atom,) = recursive_rule.body_atoms_of(predicate)
    base_atoms = tuple(a for a in recursive_rule.body if a is not recursive_atom)
    return LinearSirup(
        program=program,
        predicate=predicate,
        exit_rule=exit_rule,
        recursive_rule=recursive_rule,
        head_vars=_all_variables(recursive_rule.head),
        body_vars=_all_variables(recursive_atom),
        exit_vars=_all_variables(exit_rule.head),
        base_atoms=base_atoms,
        recursive_atom=recursive_atom,
    )


def is_linear_sirup(program: Program) -> bool:
    """Return True iff ``program`` decomposes as a linear sirup."""
    try:
        as_linear_sirup(program)
    except NotASirupError:
        return False
    return True
