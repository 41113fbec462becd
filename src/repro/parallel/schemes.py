"""Linear-sirup spec builders and named schemes (paper, Sections 3, 4 and 6).

:func:`rewrite_linear_sirup` (Section 3's ``Q_i``) and
:func:`rewrite_linear_family` (Section 6's ``R_i``) map a linear
sirup's exit rule to ``RuleSpec(v(e), h')`` and its recursive rule to
``RuleSpec(v(r), h)`` or ``RuleSpec(v(r), {h_i})``, and hand both to
the one rewrite, :func:`~.rewrite_general.rewrite_general`.

The named schemes instantiate them with the specific discriminating
choices the paper analyses on the ancestor program — generalised, where
the paper's construction generalises, to arbitrary linear sirups:

* :func:`example1_scheme` — Wolfson–Silberschatz [19]: discriminate on
  the positions of a dataflow-graph cycle (Theorem 3); zero
  communication, base relations shared.
* :func:`example2_scheme` — Valduriez–Khoshafian [16]: an arbitrary
  horizontal partition of the base relation defines ``h``; works on any
  fragmentation, broadcasts every output tuple.
* :func:`example3_scheme` — the paper's new middle point: discriminate
  on one attribute position whose variable also occurs in a base atom;
  point-to-point communication, disjoint base fragments.
* :func:`hash_scheme` — the generic Section 3 choice ``v(r) = Ȳ``.
* :func:`wolfson_scheme` / :func:`tradeoff_scheme` — the Section 6
  family: each processor keeps a fraction of its output local,
  trading redundancy for communication.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Union

from ..datalog.analysis import LinearSirup, as_linear_sirup
from ..datalog.program import Program
from ..datalog.term import Variable
from ..errors import RewriteError
from ..facts.database import Database
from ..facts.fragments import ArbitraryFragmentation
from ..network.dataflow import zero_communication_positions
from .discriminating import (
    Discriminator,
    DiscriminatorFamily,
    HashDiscriminator,
    LocalRetentionFamily,
    ModuloDiscriminator,
    PartitionDiscriminator,
)
from .plans import ParallelProgram
from .rewrite_general import RuleSpec, rewrite_general

__all__ = [
    "rewrite_linear_sirup",
    "rewrite_linear_family",
    "position_scheme",
    "example1_scheme",
    "example2_scheme",
    "example3_scheme",
    "hash_scheme",
    "wolfson_scheme",
    "tradeoff_scheme",
]

ProcessorId = Hashable


def _coerce(program: Union[Program, LinearSirup]) -> LinearSirup:
    if isinstance(program, LinearSirup):
        return program
    return as_linear_sirup(program)


def _rewrite_sirup(sirup: LinearSirup, processors: Sequence[ProcessorId],
                   exit_spec: RuleSpec, recursive_spec: RuleSpec,
                   scheme: str) -> ParallelProgram:
    specs = {index: exit_spec if rule is sirup.exit_rule else recursive_spec
             for index, rule in enumerate(sirup.program.proper_rules())}
    return rewrite_general(sirup.program, processors, specs, scheme=scheme)


def rewrite_linear_sirup(program: Union[Program, LinearSirup],
                         processors: Sequence[ProcessorId],
                         v_r: Sequence[Variable], v_e: Sequence[Variable],
                         h: Discriminator,
                         h_prime: Optional[Discriminator] = None,
                         scheme: str = "section3") -> ParallelProgram:
    """Rewrite a linear sirup with a shared discriminating function.

    This is the non-redundant scheme of Section 3 (Theorems 1 and 2):
    all processors use the same ``h``, the processing rule carries the
    constraint ``h(v(r)) = i``, and base atoms containing all of
    ``v(r)`` (or ``v(e)``) are fragmented.

    Args:
        program: the linear sirup (program or decomposition).
        processors: the processor ids ``P``.
        v_r: discriminating sequence for the recursive rule.
        v_e: discriminating sequence for the exit rule.
        h: discriminating function for the recursive rule.
        h_prime: discriminating function for the exit rule (default: ``h``).
        scheme: label used in reports.
    """
    return _rewrite_sirup(
        _coerce(program), processors,
        RuleSpec(tuple(v_e), h_prime if h_prime is not None else h),
        RuleSpec(tuple(v_r), h), scheme)


def rewrite_linear_family(program: Union[Program, LinearSirup],
                          processors: Sequence[ProcessorId],
                          v_e: Sequence[Variable],
                          family: DiscriminatorFamily,
                          h_prime: Discriminator,
                          v_r: Optional[Sequence[Variable]] = None,
                          scheme: str = "section6") -> ParallelProgram:
    """Rewrite a linear sirup with per-processor functions ``h_i``.

    This is the trade-off scheme of Section 6 (Theorem 4): processing is
    unconstrained (a processor works on everything it receives or
    retains), the recursive rule's base relations are shared, and every
    variable of ``v(r)`` must occur in ``Ȳ`` so routing is always
    point-to-point.

    Args:
        program: the linear sirup (program or decomposition).
        processors: the processor ids ``P``.
        v_e: discriminating sequence for the exit rule.
        family: the per-processor family ``{h_i}``.
        h_prime: discriminating function for the exit rule.
        v_r: discriminating sequence for the recursive rule; defaults to
            the variables of the recursive body atom ``Ȳ``.
        scheme: label used in reports.
    """
    sirup = _coerce(program)
    if v_r is None:
        v_r = sirup.recursive_atom.variables()
    body_atom_vars = set(sirup.recursive_atom.variables())
    for variable in v_r:
        if variable not in body_atom_vars:
            raise RewriteError(
                "Section 6 requires every variable of v(r) to appear in "
                f"the recursive atom; {variable} does not")
    return _rewrite_sirup(sirup, processors, RuleSpec(tuple(v_e), h_prime),
                          RuleSpec(tuple(v_r), family), scheme)


def position_scheme(program: Union[Program, LinearSirup],
                    processors: Sequence[ProcessorId],
                    positions: Sequence[int],
                    h: Optional[Discriminator] = None,
                    scheme: str = "position") -> ParallelProgram:
    """Discriminate on a set of attribute positions of the recursive atom.

    ``v(r)`` is the recursive-atom variables at ``positions`` (1-based,
    matching the paper's figures) and ``v(e)`` the exit-head variables
    at the same positions — which makes every *initialization* tuple
    self-route, since the sending rule reads exactly those positions of
    the produced tuple.

    Args:
        program: the linear sirup.
        processors: processor ids.
        positions: 1-based attribute positions of the derived predicate.
        h: discriminating function (default: a symmetric modulo-sum,
            which is also what Theorem 3's construction needs).
        scheme: label used in reports.
    """
    sirup = _coerce(program)
    for position in positions:
        if not 1 <= position <= sirup.arity:
            raise RewriteError(
                f"position {position} out of range 1..{sirup.arity}")
    v_r = tuple(sirup.body_vars[p - 1] for p in positions)
    v_e = tuple(sirup.exit_vars[p - 1] for p in positions)
    discriminator = h if h is not None else ModuloDiscriminator(processors)
    return rewrite_linear_sirup(sirup, processors, v_r, v_e, discriminator,
                                scheme=scheme)


def example1_scheme(program: Union[Program, LinearSirup],
                    processors: Sequence[ProcessorId],
                    h: Optional[Discriminator] = None) -> ParallelProgram:
    """Example 1 / Theorem 3: the zero-communication choice.

    Discriminates on the positions of a dataflow-graph cycle with a
    shift-invariant (symmetric) function, so every produced tuple hashes
    to its producer and no channel is ever used during recursion.

    Raises:
        RewriteError: if the dataflow graph is acyclic (no such choice
            exists; use :func:`example3_scheme` instead).
    """
    sirup = _coerce(program)
    positions = zero_communication_positions(sirup)
    if positions is None:
        raise RewriteError(
            "the dataflow graph has no cycle: no zero-communication "
            "discriminating choice exists (Theorem 3 does not apply)")
    return position_scheme(sirup, processors, positions, h=h,
                           scheme="example1/wolfson-silberschatz")


def example3_scheme(program: Union[Program, LinearSirup],
                    processors: Sequence[ProcessorId],
                    position: Optional[int] = None,
                    h: Optional[Discriminator] = None) -> ParallelProgram:
    """Example 3: point-to-point communication, disjoint base fragments.

    Discriminates on a single attribute position of the recursive atom
    whose variable also occurs in a base atom, so the base relation is
    fragmented for the recursion and every output tuple travels to
    exactly one processor.

    Args:
        program: the linear sirup.
        processors: processor ids.
        position: 1-based attribute position; default: the first
            position whose variable occurs in a base atom.
        h: discriminating function (default: hash).

    Raises:
        RewriteError: when no suitable position exists.
    """
    sirup = _coerce(program)
    if position is None:
        base_vars = {v for atom in sirup.base_atoms for v in atom.variables()}
        for candidate, variable in enumerate(sirup.body_vars, start=1):
            if variable in base_vars:
                position = candidate
                break
        else:
            raise RewriteError(
                "no recursive-atom variable occurs in a base atom; "
                "Example 3's construction does not apply")
    discriminator = h if h is not None else HashDiscriminator(tuple(processors))
    return position_scheme(sirup, processors, (position,), h=discriminator,
                           scheme="example3/fragment-and-forward")


def example2_scheme(program: Union[Program, LinearSirup],
                    processors: Sequence[ProcessorId],
                    database: Database,
                    partition: Optional[ArbitraryFragmentation] = None
                    ) -> ParallelProgram:
    """Example 2 (Valduriez–Khoshafian): partition-defined discrimination.

    The base relation of the recursive rule is horizontally partitioned
    (arbitrarily — round-robin by default) and ``h(ā) = i`` iff ``ā``
    lies in processor ``i``'s fragment.  ``v(r)`` is the base atom's
    variable sequence, which always contains a variable missing from
    ``Ȳ`` in interesting programs, so the sending rules broadcast.

    Args:
        program: the linear sirup.  The recursive rule must contain
            exactly one base atom with distinct variables, and the exit
            rule must use the same base predicate.
        processors: processor ids.
        database: the input — the partition is defined over its facts.
        partition: an explicit fragmentation; default round-robin.

    Raises:
        RewriteError: when the sirup does not have the required shape.
    """
    sirup = _coerce(program)
    processors = tuple(processors)
    if len(sirup.base_atoms) != 1:
        raise RewriteError(
            "Example 2 needs exactly one base atom in the recursive rule")
    (base_atom,) = sirup.base_atoms
    variables = base_atom.variables()
    if len(variables) != base_atom.arity:
        raise RewriteError(
            "Example 2 needs distinct variables in the base atom")
    exit_atoms = [a for a in sirup.exit_rule.body
                  if a.predicate == base_atom.predicate]
    if not exit_atoms:
        raise RewriteError(
            "Example 2 needs the exit rule to use the recursive rule's "
            f"base predicate {base_atom.predicate}")
    exit_atom = exit_atoms[0]
    exit_variables = exit_atom.variables()
    if len(exit_variables) != exit_atom.arity:
        raise RewriteError(
            "Example 2 needs distinct variables in the exit base atom")

    relation = database.get(base_atom.predicate)
    if relation is None:
        raise RewriteError(
            f"database has no relation {base_atom.predicate!r} to partition")
    if partition is None:
        partition = ArbitraryFragmentation.round_robin(relation, processors)
    h = PartitionDiscriminator(partition, processors)
    return rewrite_linear_sirup(
        sirup, processors, v_r=variables, v_e=exit_variables, h=h,
        scheme="example2/valduriez-khoshafian")


def hash_scheme(program: Union[Program, LinearSirup],
                processors: Sequence[ProcessorId],
                salt: int = 0) -> ParallelProgram:
    """The generic Section 3 choice: ``v(r) = Ȳ``, ``v(e) = Z̄``, hash ``h``.

    Non-redundant and always point-to-point (every ``v(r)`` variable
    trivially occurs in ``Ȳ``), but fragments base atoms only when they
    happen to contain all of ``Ȳ``.
    """
    sirup = _coerce(program)
    h = HashDiscriminator(tuple(processors), salt=salt)
    return rewrite_linear_sirup(
        sirup, processors,
        v_r=sirup.recursive_atom.variables(),
        v_e=sirup.exit_rule.head.variables(),
        h=h, scheme="section3/hash")


def wolfson_scheme(program: Union[Program, LinearSirup],
                   processors: Sequence[ProcessorId],
                   salt: int = 0) -> ParallelProgram:
    """Wolfson's communication-free scheme [18] (Section 6, property 1).

    Every processor uses ``h_i ≡ i``: nothing is ever transmitted, the
    exit tuples are hash-partitioned by ``h'``, every processor runs the
    unrestricted recursion on its share, and base relations are shared.
    Redundant in general — the same tuple may be generated (and
    processed) at several processors.
    """
    sirup = _coerce(program)
    base = HashDiscriminator(tuple(processors), salt=salt)
    family = LocalRetentionFamily(base, keep_fraction=1.0, salt=salt)
    return rewrite_linear_family(
        sirup, processors,
        v_e=sirup.exit_rule.head.variables(),
        family=family, h_prime=base,
        scheme="section6/wolfson-no-communication")


def tradeoff_scheme(program: Union[Program, LinearSirup],
                    processors: Sequence[ProcessorId],
                    keep_fraction: float, salt: int = 0) -> ParallelProgram:
    """The Section 6 spectrum point with local retention ``keep_fraction``.

    ``keep_fraction = 0`` is the non-redundant scheme (every ``h_i``
    equals the base hash — the rewriting collapses to Section 3's,
    paper property 2); ``keep_fraction = 1`` is Wolfson's
    communication-free scheme (property 1); intermediate values trade
    communication for redundancy.
    """
    sirup = _coerce(program)
    base = HashDiscriminator(tuple(processors), salt=salt)
    family = LocalRetentionFamily(base, keep_fraction=keep_fraction, salt=salt)
    return rewrite_linear_family(
        sirup, processors,
        v_e=sirup.exit_rule.head.variables(),
        family=family, h_prime=base,
        scheme=f"section6/keep{keep_fraction:.2f}")
