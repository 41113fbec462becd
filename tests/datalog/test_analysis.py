"""Tests for program analysis: dependencies, recursion, sirup detection."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    as_linear_sirup,
    is_linear_sirup,
    is_recursive_rule,
    parse_program,
    recursion_components,
    recursive_predicates,
)
from repro.errors import NotASirupError


def _dependency_graph(program):
    """The predicate dependency graph as a networkx oracle: an edge
    ``q -> p`` when ``q`` occurs in the body of a rule with head ``p``
    (paper, Section 2).  Nodes and edges are added in first-mention
    order, the order the engine walks its own graph in."""
    graph = nx.DiGraph()
    graph.add_nodes_from(program.predicates)
    for rule in program.proper_rules():
        for atom in rule.body:
            graph.add_edge(atom.predicate, rule.head.predicate)
    return graph


class TestDependencyGraph:
    def test_edges_point_from_body_to_head(self, ancestor):
        # par derives anc, not the other way round: par's component
        # comes first, and anc's self-loop makes it recursive.
        assert recursion_components(ancestor) == [
            frozenset({"par"}), frozenset({"anc"})]
        assert recursive_predicates(ancestor) == frozenset({"anc"})

    def test_recursive_predicates_self_loop(self, ancestor):
        assert recursive_predicates(ancestor) == frozenset({"anc"})

    def test_mutual_recursion(self):
        program = parse_program("""
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(X).
        """)
        assert recursive_predicates(program) == frozenset({"even", "odd"})

    def test_non_recursive_program(self):
        program = parse_program("grandpar(X, Y) :- par(X, Z), par(Z, Y).")
        assert recursive_predicates(program) == frozenset()

    def test_recursion_components_topological(self):
        program = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            famous(X) :- anc(X, Y), celebrity(Y).
        """)
        components = recursion_components(program)
        anc_index = next(i for i, c in enumerate(components) if "anc" in c)
        famous_index = next(i for i, c in enumerate(components)
                            if "famous" in c)
        assert anc_index < famous_index


@st.composite
def _predicate_graph_program(draw):
    """A program whose dependency graph is an arbitrary small digraph:
    unary predicates ``p0..pn``, one rule per drawn (body, head) pair,
    in drawn order (the order components are found in depends on it)."""
    count = draw(st.integers(min_value=1, max_value=7))
    names = st.integers(min_value=0, max_value=count - 1).map("p{}".format)
    rules = draw(st.lists(
        st.tuples(names, st.lists(names, min_size=1, max_size=3)),
        min_size=1, max_size=12))
    return parse_program("\n".join(
        f"{head}(X) :- " + ", ".join(f"{body}(X)" for body in bodies) + "."
        for head, bodies in rules))


class TestAgainstNetworkx:
    """The engine computes components and their order itself, so that
    importing it never imports networkx; networkx stays the oracle.
    The *order* is pinned too: strata evaluate in it."""

    @settings(max_examples=200, deadline=None)
    @given(program=_predicate_graph_program())
    def test_components_order_and_recursion_match(self, program):
        graph = _dependency_graph(program)
        condensation = nx.condensation(graph)
        assert recursion_components(program) == [
            frozenset(condensation.nodes[node]["members"])
            for node in nx.topological_sort(condensation)]
        assert recursive_predicates(program) == frozenset(
            node for component in nx.strongly_connected_components(graph)
            for node in component
            if len(component) > 1 or graph.has_edge(node, node))
        for rule in program.proper_rules():
            head = rule.head.predicate
            reachable = nx.descendants(graph, head) | {head}
            assert is_recursive_rule(rule, program) == any(
                atom.predicate in reachable for atom in rule.body)

    @settings(max_examples=100, deadline=None)
    @given(program=_predicate_graph_program())
    def test_strata_follow_the_component_order(self, program):
        from repro.engine import build_strata

        graph = _dependency_graph(program)
        condensation = nx.condensation(graph)
        heads = {rule.head.predicate for rule in program.proper_rules()}
        expected = [members for members in (
            frozenset(condensation.nodes[node]["members"])
            for node in nx.topological_sort(condensation))
            if members & heads]
        assert [s.predicates for s in build_strata(program)] == expected


class TestRecursiveRule:
    def test_direct_recursion(self, ancestor):
        assert not is_recursive_rule(ancestor.rules[0], ancestor)
        assert is_recursive_rule(ancestor.rules[1], ancestor)

    def test_transitive_recursion(self):
        program = parse_program("""
            a(X) :- b(X).
            b(X) :- c(X).
            c(X) :- a(X).
        """)
        assert all(is_recursive_rule(rule, program) for rule in program)


class TestLinearSirup:
    def test_ancestor_decomposition(self, ancestor):
        sirup = as_linear_sirup(ancestor)
        assert sirup.predicate == "anc"
        assert [v.name for v in sirup.head_vars] == ["X", "Y"]
        assert [v.name for v in sirup.body_vars] == ["Z", "Y"]
        assert [v.name for v in sirup.exit_vars] == ["X", "Y"]
        assert len(sirup.base_atoms) == 1
        assert sirup.base_atoms[0].predicate == "par"
        assert sirup.arity == 2

    def test_rule_order_does_not_matter(self):
        program = parse_program("""
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            anc(X, Y) :- par(X, Y).
        """)
        sirup = as_linear_sirup(program)
        assert sirup.exit_rule is program.rules[1]

    def test_is_linear_sirup(self, ancestor, nonlinear_ancestor):
        assert is_linear_sirup(ancestor)
        assert not is_linear_sirup(nonlinear_ancestor)

    def test_nonlinear_rejected(self, nonlinear_ancestor):
        with pytest.raises(NotASirupError):
            as_linear_sirup(nonlinear_ancestor)

    def test_wrong_rule_count_rejected(self):
        with pytest.raises(NotASirupError):
            as_linear_sirup(parse_program("p(X) :- q(X)."))

    def test_two_exit_rules_rejected(self):
        with pytest.raises(NotASirupError):
            as_linear_sirup(parse_program("""
                p(X) :- q(X).
                p(X) :- r(X).
            """))

    def test_different_heads_rejected(self):
        with pytest.raises(NotASirupError):
            as_linear_sirup(parse_program("""
                p(X) :- q(X).
                r(X) :- s(X), r(X).
            """))

    def test_constant_in_head_rejected(self):
        with pytest.raises(NotASirupError):
            as_linear_sirup(parse_program("""
                p(X, 1) :- q(X).
                p(X, Y) :- q(X), p(X, Y).
            """))

    def test_same_generation_is_sirup(self, sg_program):
        sirup = as_linear_sirup(sg_program)
        assert sirup.predicate == "sg"
        assert len(sirup.base_atoms) == 2
