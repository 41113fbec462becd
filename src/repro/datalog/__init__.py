"""The Datalog language layer: terms, atoms, rules, programs and analysis."""

from .analysis import (
    LinearSirup,
    as_linear_sirup,
    is_linear_sirup,
    is_recursive_rule,
    recursion_components,
    recursive_predicates,
)
from .atom import Atom
from .parser import parse_atom, parse_program, parse_rule, tokenize
from .printer import format_atom, format_program, format_rule, format_term
from .program import Program
from .rule import Constraint, Rule
from .substitution import Substitution
from .term import Constant, Term, Variable, is_constant, is_variable

__all__ = [
    "Atom",
    "Constant",
    "Constraint",
    "LinearSirup",
    "Program",
    "Rule",
    "Substitution",
    "Term",
    "Variable",
    "as_linear_sirup",
    "format_atom",
    "format_program",
    "format_rule",
    "format_term",
    "is_constant",
    "is_linear_sirup",
    "is_recursive_rule",
    "is_variable",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "recursion_components",
    "recursive_predicates",
    "tokenize",
]
