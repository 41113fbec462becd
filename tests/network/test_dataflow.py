"""Tests for dataflow graphs (Definition 2, Figures 1 and 2, Theorem 3)."""

import networkx as nx
import pytest

from repro.datalog import Atom, Rule, Variable, parse_program, parse_rule
from repro.errors import NotASirupError
from repro.network import (
    dataflow_edges,
    find_dataflow_cycle,
    format_dataflow,
    zero_communication_positions,
)
from repro.workloads import chain3_program, reverse_chain_program


class TestDataflowGraph:
    def test_figure1_chain(self, chain3):
        """Example 4: p(U,V,W) :- p(V,W,Z), q(U,Z) gives 1 -> 2 -> 3."""
        assert dataflow_edges(chain3) == ((1, 2), (2, 3))
        assert format_dataflow(chain3) == "1 -> 2 -> 3"

    def test_figure2_ancestor_self_loop(self, ancestor):
        """Example 5: the ancestor rule's graph is the self-loop 2 -> 2."""
        assert dataflow_edges(ancestor) == ((2, 2),)

    def test_left_linear_self_loop_at_one(self):
        assert dataflow_edges(reverse_chain_program()) == ((1, 1),)

    def test_accepts_bare_rule(self):
        rule = parse_rule("p(U, V, W) :- p(V, W, Z), q(U, Z).")
        assert dataflow_edges(rule) == ((1, 2), (2, 3))

    def test_repeated_variable_multiple_edges(self):
        rule = parse_rule("p(X, X) :- p(Y, X), q(Y).")
        # X at body position 2 feeds head positions 1 and 2.
        assert dataflow_edges(rule) == ((2, 1), (2, 2))

    def test_no_shared_variables_empty_graph(self):
        rule = parse_rule("p(X) :- p(Y), q(Y, X).")
        assert dataflow_edges(rule) == ()
        assert format_dataflow(rule) == "(empty)"

    def test_rejects_nonlinear_rule(self):
        rule = parse_rule("p(X, Y) :- p(X, Z), p(Z, Y).")
        with pytest.raises(NotASirupError):
            dataflow_edges(rule)

    def test_rejects_constant_arguments(self):
        rule = parse_rule("p(X, 1) :- p(X, Y), q(Y).")
        with pytest.raises(NotASirupError):
            dataflow_edges(rule)


class TestCycles:
    def test_ancestor_cycle(self, ancestor):
        assert find_dataflow_cycle(ancestor) == (2,)
        assert zero_communication_positions(ancestor) == (2,)

    def test_chain3_acyclic(self, chain3):
        assert find_dataflow_cycle(chain3) is None
        assert zero_communication_positions(chain3) is None

    def test_swap_rule_two_cycle(self):
        program = parse_program("""
            p(X, Y) :- q(X, Y).
            p(X, Y) :- p(Y, X), r(X).
        """)
        cycle = find_dataflow_cycle(program)
        assert cycle is not None
        assert sorted(cycle) == [1, 2]

    def test_rotation_rule_three_cycle(self):
        program = parse_program("""
            p(X, Y, Z) :- q(X, Y, Z).
            p(X, Y, Z) :- p(Y, Z, X), r(X).
        """)
        cycle = find_dataflow_cycle(program)
        assert cycle is not None
        assert sorted(cycle) == [1, 2, 3]


def _variable_patterns(size):
    """Every equality pattern of ``size`` variables, as restricted
    growth strings: variable ``k`` is new exactly when it is one past
    the largest so far."""
    patterns = [()]
    for _ in range(size):
        patterns = [pattern + (variable,) for pattern in patterns
                    for variable in range(max(pattern, default=-1) + 2)]
    return patterns


def _networkx_oracle(rule):
    """Cycle and rendering computed by networkx on the same graph."""
    head = rule.head.terms
    (body,) = [atom.terms for atom in rule.body
               if atom.predicate == rule.head.predicate]
    graph = nx.DiGraph()
    for i, y_var in enumerate(body, start=1):
        for j, x_var in enumerate(head, start=1):
            if y_var == x_var:
                graph.add_edge(i, j)
    try:
        cycle = tuple(source for source, _ in nx.find_cycle(graph))
    except nx.NetworkXNoCycle:
        cycle = None
    edges = sorted(graph.edges())
    if not edges:
        return cycle, "(empty)"
    starts = [node for node in graph.nodes()
              if graph.in_degree(node) == 0 and graph.out_degree(node) == 1]
    if (len(starts) == 1 and nx.is_directed_acyclic_graph(graph)
            and max(degree for _, degree in graph.out_degree()) <= 1
            and max(degree for _, degree in graph.in_degree()) <= 1):
        path = nx.dfs_preorder_nodes(graph, starts[0])
        return cycle, " -> ".join(str(node) for node in path)
    return cycle, ", ".join(f"{i} -> {j}" for i, j in edges)


class TestAgainstNetworkx:
    """The cycle search and the rendering need no graph library;
    networkx stays the oracle.  Which cycle is found matters: the
    example1 scheme routes on its positions."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_variable_pattern(self, arity):
        for pattern in _variable_patterns(2 * arity):
            names = [Variable(f"V{k}") for k in pattern]
            head = Atom("p", tuple(names[:arity]))
            body = Atom("p", tuple(names[arity:]))
            rule = Rule(head, (body, Atom("q", tuple(names))))
            assert (find_dataflow_cycle(rule), format_dataflow(rule)) \
                == _networkx_oracle(rule), pattern
