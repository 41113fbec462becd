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

from typing import TYPE_CHECKING, Optional, Tuple, Union

from ..datalog.analysis import LinearSirup, as_linear_sirup
from ..datalog.program import Program
from ..datalog.rule import Rule
from ..datalog.term import Variable
from ..errors import NotASirupError

# networkx is imported where a graph is built, not at module top: the
# schemes import this module, and evaluating a program must not pay for
# a graph library it never calls.
if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "dataflow_graph",
    "dataflow_edges",
    "find_dataflow_cycle",
    "zero_communication_positions",
    "format_dataflow",
]


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


def dataflow_graph(rule_or_sirup: Union[Rule, LinearSirup, Program]) -> "nx.DiGraph":
    """Build the dataflow graph (1-based positions) of a linear rule.

    Args:
        rule_or_sirup: the recursive rule, a sirup decomposition, or a
            two-rule sirup program.

    Raises:
        NotASirupError: if the rule does not have exactly one recursive
            atom or has non-variable arguments.
    """
    import networkx as nx

    head_vars, body_vars = _head_body_atoms(rule_or_sirup)
    graph = nx.DiGraph()
    for i, y_var in enumerate(body_vars, start=1):
        for j, x_var in enumerate(head_vars, start=1):
            if y_var == x_var:
                graph.add_edge(i, j)
    return graph


def dataflow_edges(rule_or_sirup: Union[Rule, LinearSirup, Program]
                   ) -> Tuple[Tuple[int, int], ...]:
    """The edge set of the dataflow graph, sorted (for figure checks)."""
    return tuple(sorted(dataflow_graph(rule_or_sirup).edges()))


def find_dataflow_cycle(rule_or_sirup: Union[Rule, LinearSirup, Program]
                        ) -> Optional[Tuple[int, ...]]:
    """Return the positions along one dataflow cycle, or None.

    The returned tuple ``(p1, ..., pk)`` satisfies ``Y_{p1} = X_{p2}``,
    ..., ``Y_{pk} = X_{p1}`` (1-based).  A self-loop yields a 1-tuple.
    """
    import networkx as nx

    graph = dataflow_graph(rule_or_sirup)
    try:
        edges = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None
    return tuple(source for source, _target in edges)


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
    import networkx as nx

    graph = dataflow_graph(rule_or_sirup)
    edges = sorted(graph.edges())
    if not edges:
        return "(empty)"
    # Try to render a simple path.
    out_degrees = dict(graph.out_degree())
    in_degrees = dict(graph.in_degree())
    starts = [n for n in graph.nodes()
              if in_degrees.get(n, 0) == 0 and out_degrees.get(n, 0) == 1]
    if (len(starts) == 1 and nx.is_directed_acyclic_graph(graph)
            and all(d <= 1 for d in out_degrees.values())
            and all(d <= 1 for d in in_degrees.values())):
        chain = [starts[0]]
        while True:
            successors = list(graph.successors(chain[-1]))
            if not successors:
                break
            chain.append(successors[0])
        return " -> ".join(str(node) for node in chain)
    return ", ".join(f"{i} -> {j}" for i, j in edges)
