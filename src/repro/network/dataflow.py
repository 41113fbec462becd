"""Dataflow graphs of linear recursive rules (paper, Definition 2).

For a recursive rule with head ``t(X1, ..., Xm)`` and recursive body
atom ``t(Y1, ..., Ym)``, the dataflow graph has an edge ``i -> j``
whenever ``Yi = Xj`` — the value at attribute position ``i`` of the
consumed tuple reappears at position ``j`` of the produced tuple.
Positions are **1-based**, as in the paper's Figures 1 and 2.

Theorem 3: if the dataflow graph contains a cycle, there is a choice of
discriminating sequence and function for which the parallel execution
requires no communication.  The construction: take the positions along
a cycle; the produced tuple's values at those positions are a cyclic
shift of the consumed tuple's, so any *shift-invariant* discriminating
function (e.g. a symmetric sum) is preserved from input to output and
every tuple self-routes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..datalog.analysis import LinearSirup, as_linear_sirup
from ..datalog.program import Program
from ..datalog.rule import Rule
from ..datalog.term import Variable
from ..errors import NotASirupError

__all__ = [
    "dataflow_edges",
    "find_dataflow_cycle",
    "zero_communication_positions",
    "format_dataflow",
]

# Successor lists of a dataflow graph: nodes in first-mention order,
# each node's successors in the order their edges were found.
_Successors = Dict[int, List[int]]


def _head_body_atoms(rule_or_sirup: Union[Rule, LinearSirup, Program]):
    """Extract (head vars, recursive body atom vars) from the input."""
    if isinstance(rule_or_sirup, Program):
        rule_or_sirup = as_linear_sirup(rule_or_sirup)
    if isinstance(rule_or_sirup, LinearSirup):
        return rule_or_sirup.head_vars, rule_or_sirup.body_vars
    rule = rule_or_sirup
    predicate = rule.head.predicate
    recursive = [a for a in rule.body if a.predicate == predicate]
    if len(recursive) != 1:
        raise NotASirupError(
            "dataflow graphs are defined for rules with exactly one "
            f"recursive atom; {rule} has {len(recursive)}")
    head_vars = []
    body_vars = []
    for term in rule.head.terms:
        if not isinstance(term, Variable):
            raise NotASirupError(f"non-variable argument {term} in {rule.head}")
        head_vars.append(term)
    for term in recursive[0].terms:
        if not isinstance(term, Variable):
            raise NotASirupError(f"non-variable argument {term} in {recursive[0]}")
        body_vars.append(term)
    return tuple(head_vars), tuple(body_vars)


def _dataflow_successors(rule_or_sirup: Union[Rule, LinearSirup, Program]
                         ) -> _Successors:
    """Build the dataflow graph (1-based positions) of a linear rule.

    Args:
        rule_or_sirup: the recursive rule, a sirup decomposition, or a
            two-rule sirup program.

    Raises:
        NotASirupError: if the rule does not have exactly one recursive
            atom or has non-variable arguments.
    """
    head_vars, body_vars = _head_body_atoms(rule_or_sirup)
    graph: _Successors = {}
    for i, y_var in enumerate(body_vars, start=1):
        for j, x_var in enumerate(head_vars, start=1):
            if y_var == x_var:
                graph.setdefault(i, []).append(j)
                graph.setdefault(j, [])
    return graph


def _find_cycle(graph: _Successors) -> Optional[Tuple[int, ...]]:
    """The first cycle a depth-first walk meets, or None.

    Start nodes are tried in node order and successors in edge order;
    the cycle runs from the node the closing edge re-enters.
    """
    done = set()
    for start in graph:
        if start in done:
            continue
        path = [start]
        successors = [iter(graph[start])]
        while path:
            successor = next(successors[-1], None)
            if successor is None:
                done.add(path.pop())
                successors.pop()
            elif successor in path:
                return tuple(path[path.index(successor):])
            elif successor not in done:
                path.append(successor)
                successors.append(iter(graph[successor]))
    return None


def dataflow_edges(rule_or_sirup: Union[Rule, LinearSirup, Program]
                   ) -> Tuple[Tuple[int, int], ...]:
    """The edge set of the dataflow graph, sorted (for figure checks)."""
    graph = _dataflow_successors(rule_or_sirup)
    return tuple(sorted((i, j) for i, targets in graph.items()
                        for j in targets))


def find_dataflow_cycle(rule_or_sirup: Union[Rule, LinearSirup, Program]
                        ) -> Optional[Tuple[int, ...]]:
    """Return the positions along one dataflow cycle, or None.

    The returned tuple ``(p1, ..., pk)`` satisfies ``Y_{p1} = X_{p2}``,
    ..., ``Y_{pk} = X_{p1}`` (1-based).  A self-loop yields a 1-tuple.
    """
    return _find_cycle(_dataflow_successors(rule_or_sirup))


def zero_communication_positions(program: Union[Program, LinearSirup]
                                 ) -> Optional[Tuple[int, ...]]:
    """Theorem 3: positions yielding a communication-free choice.

    Returns 1-based attribute positions ``(p1, ..., pk)`` along a
    dataflow cycle such that choosing ``v(r) = (Y_{p1}, ..., Y_{pk})``,
    ``v(e)`` the exit-head variables at the same positions, and a
    shift-invariant ``h = h'`` makes every tuple self-route.  None when
    the dataflow graph is acyclic.
    """
    return find_dataflow_cycle(program)


def format_dataflow(rule_or_sirup: Union[Rule, LinearSirup, Program]) -> str:
    """Render a dataflow graph like the paper's figures (``1 -> 2 -> 3``).

    Chains are rendered inline; anything else falls back to an edge list.
    """
    graph = _dataflow_successors(rule_or_sirup)
    edges = sorted((i, j) for i, targets in graph.items() for j in targets)
    if not edges:
        return "(empty)"
    # A simple path: every degree at most 1, one start, no cycle.
    heads = [j for _, j in edges]
    starts = [node for node, targets in graph.items()
              if node not in heads and len(targets) == 1]
    if (len(starts) == 1 and len(set(heads)) == len(heads)
            and all(len(targets) <= 1 for targets in graph.values())
            and _find_cycle(graph) is None):
        chain = [starts[0]]
        while graph[chain[-1]]:
            chain.append(graph[chain[-1]][0])
        return " -> ".join(str(node) for node in chain)
    return ", ".join(f"{i} -> {j}" for i, j in edges)
