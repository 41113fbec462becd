"""Network derivation by solving linear systems (paper, Example 7).

When the discriminating functions are *linear* over ``g``-values,
``h(a1, ..., am) = c1·g(a1) + ... + cm·g(am)``, the edges of the
minimal network graph are exactly the pairs ``(u, v)`` appearing in
solutions of the system

    consumer:  Σ  c_k · x_{σ(k)} = v
    producer:  Σ  c_k · x_{π(k)} = u

subject to ``x ∈ {0..g_range-1}^n`` — the paper's equations (4)/(5).
This module constructs the system symbolically (so benchmarks can print
it exactly as the paper does) and solves it by enumerating the cube.
It must agree with the generic enumeration of
:mod:`repro.network.derivation`; the test suite cross-checks the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

from ..datalog.analysis import LinearSirup, as_linear_sirup
from ..datalog.program import Program
from ..datalog.term import Variable
from ..errors import NetworkDerivationError
from .derivation import build_scenarios
from .netgraph import NetworkGraph

__all__ = ["LinearSystem", "build_linear_system", "solve_linear_network"]


@dataclass(frozen=True)
class LinearSystem:
    """One producer/consumer scenario as a pair of coefficient rows.

    Attributes:
        symbols: number of unknowns ``x_1 .. x_n`` (1-based in renderings).
        consumer_row: coefficients of the consumer equation (= ``v``).
        producer_row: coefficients of the producer equation (= ``u``).
        equalities: symbol pairs forced equal.
        label: ``"exit"`` or ``"recursive"``.
        modulus: optional modulus folding both equations.
    """

    symbols: int
    consumer_row: Tuple[int, ...]
    producer_row: Tuple[int, ...]
    equalities: Tuple[Tuple[int, int], ...]
    label: str
    modulus: Optional[int]

    def render(self) -> str:
        """Render the system like the paper's equations (4) and (5)."""

        def render_row(row: Sequence[int], rhs: str) -> str:
            terms = []
            for index, coefficient in enumerate(row):
                if coefficient == 0:
                    continue
                name = f"x{index + 1}"
                if not terms:
                    prefix = "" if coefficient > 0 else "-"
                else:
                    prefix = " + " if coefficient > 0 else " - "
                magnitude = abs(coefficient)
                term = name if magnitude == 1 else f"{magnitude}*{name}"
                terms.append(prefix + term)
            left = "".join(terms) if terms else "0"
            if self.modulus is not None:
                left = f"({left}) mod {self.modulus}"
            return f"{left} = {rhs}"

        lines = [render_row(self.consumer_row, "v"),
                 render_row(self.producer_row, "u")]
        for a, b in self.equalities:
            lines.append(f"x{a + 1} = x{b + 1}")
        return "\n".join(lines)

    def solve(self, g_range: int = 2) -> Set[Tuple[int, int]]:
        """Enumerate ``x ∈ {0..g_range-1}^n``; collect edges ``(u, v)``."""
        if self.symbols == 0:
            return {(0, 0)}
        edges: Set[Tuple[int, int]] = set()
        for x in itertools.product(range(g_range), repeat=self.symbols):
            if any(x[a] != x[b] for a, b in self.equalities):
                continue
            producer = sum(c * value for c, value in zip(self.producer_row, x))
            consumer = sum(c * value for c, value in zip(self.consumer_row, x))
            if self.modulus is not None:
                producer %= self.modulus
                consumer %= self.modulus
            edges.add((producer, consumer))
        return edges


def _row_from_symbols(symbols: Sequence[int], coefficients: Sequence[int],
                      width: int) -> Tuple[int, ...]:
    row = [0] * width
    for symbol, coefficient in zip(symbols, coefficients):
        row[symbol] += coefficient
    return tuple(row)


def build_linear_system(program: Union[Program, LinearSirup],
                        v_r: Sequence[Variable], v_e: Sequence[Variable],
                        coefficients: Sequence[int],
                        exit_coefficients: Optional[Sequence[int]] = None,
                        modulus: Optional[int] = None) -> List[LinearSystem]:
    """Build the linear systems (one per producer scenario) of a sirup.

    Args:
        program: the linear sirup.
        v_r: discriminating sequence of the recursive rule.
        v_e: discriminating sequence of the exit rule.
        coefficients: the linear form of ``h`` over ``v_r``.
        exit_coefficients: the linear form of ``h'`` over ``v_e``
            (default: ``coefficients``).
        modulus: optional modulus of both forms.

    Raises:
        NetworkDerivationError: on mismatched coefficient lengths.
    """
    sirup = (program if isinstance(program, LinearSirup)
             else as_linear_sirup(program))
    exit_coefficients = (tuple(exit_coefficients)
                         if exit_coefficients is not None
                         else tuple(coefficients))
    coefficients = tuple(coefficients)
    if len(coefficients) != len(tuple(v_r)):
        raise NetworkDerivationError(
            f"{len(coefficients)} coefficients for {len(tuple(v_r))} "
            "v(r) variables")
    if len(exit_coefficients) != len(tuple(v_e)):
        raise NetworkDerivationError(
            f"{len(exit_coefficients)} exit coefficients for "
            f"{len(tuple(v_e))} v(e) variables")

    systems: List[LinearSystem] = []
    for scenario in build_scenarios(sirup, v_r, v_e):
        producer_coeffs = (exit_coefficients if scenario.label == "exit"
                           else coefficients)
        systems.append(LinearSystem(
            symbols=scenario.symbols,
            consumer_row=_row_from_symbols(scenario.consumer_symbols,
                                           coefficients, scenario.symbols),
            producer_row=_row_from_symbols(scenario.producer_symbols,
                                           producer_coeffs, scenario.symbols),
            equalities=scenario.equalities,
            label=scenario.label,
            modulus=modulus,
        ))
    return systems


def solve_linear_network(program: Union[Program, LinearSirup],
                         v_r: Sequence[Variable], v_e: Sequence[Variable],
                         coefficients: Sequence[int],
                         exit_coefficients: Optional[Sequence[int]] = None,
                         g_range: int = 2,
                         modulus: Optional[int] = None) -> NetworkGraph:
    """Derive the minimal network graph by solving the linear systems.

    The processor set is the exact range of the linear form over
    ``{0..g_range-1}`` inputs (paper: ``{-1, 0, 1, 2}`` for Example 7).
    """
    systems = build_linear_system(program, v_r, v_e, coefficients,
                                  exit_coefficients, modulus)
    coefficients = tuple(coefficients)
    reachable = {0}
    for coefficient in coefficients:
        reachable = {value + coefficient * b
                     for value in reachable for b in range(g_range)}
    if modulus is not None:
        reachable = {value % modulus for value in reachable}

    graph = NetworkGraph(sorted(reachable))
    for system in systems:
        for source, target in system.solve(g_range):
            if source in reachable and target in reachable:
                graph.add_edge(source, target)
    return graph
