"""Data structures describing a rewritten (parallelised) program.

The rewrite (:func:`~.rewrite_general.rewrite_general`, which covers
Sections 3, 6 and 7 of the paper) turns a source program into a
:class:`ParallelProgram`:

* one :class:`ProcessorProgram` per processor — its initialisation and
  processing rules (referencing local ``t_in``/``t_out`` relation names
  and base fragments) plus the sender-resolved :class:`~.routing.Route`
  objects realising the *sending* rules;
* a list of :class:`FragmentSpec` stating, per base predicate, whether
  each processor needs the whole relation (shared/replicated) or only a
  fragment — the storage trade-off the paper's examples revolve around;
* the *union program* ``∪ Q_i``: a literal Datalog transliteration of
  the paper's rewriting whose sequential least model must coincide with
  the source program's (Theorems 1, 4 and 5) — used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional, Tuple

from ..datalog.program import Program
from ..datalog.rule import Rule
from ..errors import RewriteError
from ..facts.database import Database
from ..facts.fragments import SHARED, FragmentationPlan
from ..facts.relation import Relation
from .discriminating import Discriminator
from .routing import Route, RouterTable

__all__ = ["FragmentSpec", "ProcessorProgram", "ParallelProgram"]

ProcessorId = Hashable

# FragmentSpec kinds besides SHARED (a full copy everywhere).
HASH = "hash"
ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class FragmentSpec:
    """How one base predicate is made available to the processors.

    Attributes:
        predicate: the base predicate symbol.
        arity: the predicate's arity.
        local_name: relation name the processor rules use for it.
        kind: ``shared`` (full copy everywhere), ``hash`` (tuple kept by
            processor ``discriminator(values at positions)``) or
            ``arbitrary`` (an explicit partition drives the split; the
            discriminator is partition-defined, Example 2).
        positions: argument positions feeding the discriminator
            (``hash``/``arbitrary`` only).
        discriminator: the assigning function (``hash``/``arbitrary``).
    """

    predicate: str
    arity: int
    local_name: str
    kind: str = SHARED
    positions: Optional[Tuple[int, ...]] = None
    discriminator: Optional[Discriminator] = None

    def local_fragment(self, relation: Relation,
                       processor: ProcessorId) -> Relation:
        """Materialise this processor's fragment of ``relation``."""
        fragment = Relation(self.local_name, relation.arity)
        if self.kind == SHARED:
            fragment.update(relation)
            return fragment
        assert self.positions is not None and self.discriminator is not None
        for fact in relation:
            values = tuple(fact[p] for p in self.positions)
            try:
                owner = self.discriminator(values)
            except Exception:  # partition-defined h: unknown tuple
                continue
            if owner == processor:
                fragment.add(fact)
        return fragment


@dataclass
class ProcessorProgram:
    """The program ``Q_i`` executed by one processor, in operational form.

    Attributes:
        processor: this processor's id.
        init_rules: rules with no ``_in`` body atom; evaluated once at
            start-up (the paper's *initialization* step).  Heads use the
            local ``t_out`` names.
        processing_rules: rules with ``_in`` body atoms; evaluated by
            semi-naive iteration over the ``_in`` deltas (the paper's
            *processing* step).
        routes: sender-resolved sending rules: each new ``t_out`` tuple
            is forwarded to the targets of every route of its predicate.
        in_names: derived predicate → local ``t_in`` relation name.
        out_names: derived predicate → local ``t_out`` relation name.
        arities: derived predicate → arity.
    """

    processor: ProcessorId
    init_rules: Tuple[Rule, ...]
    processing_rules: Tuple[Rule, ...]
    routes: Tuple[Route, ...]
    in_names: Mapping[str, str]
    out_names: Mapping[str, str]
    arities: Mapping[str, int] = field(default_factory=dict)

    def routes_for(self, predicate: str) -> Tuple[Route, ...]:
        """The routes applying to tuples of ``predicate``."""
        return tuple(r for r in self.routes if r.predicate == predicate)

    def router_table(self) -> RouterTable:
        """The compiled batch router over this program's routes.

        Compiled once per program instance and cached; the cache is a
        plain ``__dict__`` entry so ``dataclasses.replace`` and field
        mutation in tests build fresh tables, and it is dropped on
        pickling (an unpickled program recompiles from its routes).
        """
        cached = self.__dict__.get("_router_table")
        if cached is not None and cached[0] == self.routes:
            return cached[1]
        table = RouterTable(self.routes)
        self.__dict__["_router_table"] = (self.routes, table)
        return table

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_router_table", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)


@dataclass
class ParallelProgram:
    """A source program rewritten for a set of processors.

    Attributes:
        source: the original Datalog program ``L`` (or ``M``).
        scheme: a short human-readable scheme label for reports.
        processors: the processor set ``P``.
        programs: per-processor operational programs.
        fragments: base-relation availability specs.
        fragmentation: the summary plan (storage requirement per base
            predicate) used in reports.
        union: the literal union program ``∪_i Q_i`` of the paper, whose
            sequential least model equals the source's (Theorems 1/4/5).
        derived: the derived predicates of the source program.
        pooled_names: derived predicate → predicate holding the pooled
            answer within the union program (normally the original name).
    """

    source: Program
    scheme: str
    processors: Tuple[ProcessorId, ...]
    programs: Dict[ProcessorId, ProcessorProgram]
    fragments: Tuple[FragmentSpec, ...]
    fragmentation: FragmentationPlan
    union: Program
    derived: Tuple[str, ...]

    def program_for(self, processor: ProcessorId) -> ProcessorProgram:
        """Return the operational program of ``processor``.

        Raises:
            RewriteError: for an unknown processor id.
        """
        try:
            return self.programs[processor]
        except KeyError:
            raise RewriteError(f"unknown processor {processor!r}") from None

    def local_database(self, processor: ProcessorId,
                       database: Database) -> Database:
        """Build the local database of ``processor`` from the global input.

        Every fragment spec contributes one relation under its local
        name; base predicates without facts in ``database`` come up
        empty rather than failing, so partial inputs remain runnable.

        The facts a derived predicate starts with — its program facts
        and any input relation of its name — are seeded into the
        ``t_out`` of the first processor only, which emits them with its
        initialization output so the sending rules route them like any
        derived fact
        (:meth:`.processor.ProcessorRuntime.initialize_batches`).
        """
        local = Database()
        for spec in self.fragments:
            source = database.get(spec.predicate)
            if source is None:
                local.attach(Relation(spec.local_name, spec.arity))
                continue
            local.attach(spec.local_fragment(source, processor))
        if processor == self.processors[0]:
            program = self.programs[processor]
            for pred, oname in program.out_names.items():
                seeds = local.declare(oname, program.arities[pred])
                seeds.update(database.get(pred) or ())
                seeds.update(atom.to_fact() for atom in self.source.facts()
                             if atom.predicate == pred)
        return local

    def replication_factor(self, database: Database) -> float:
        """Total stored base tuples across processors / input base tuples.

        1.0 means perfectly partitioned storage; N means everything is
        replicated at all N processors (Example 1's requirement).
        """
        stored = 0
        original = 0
        counted: set = set()
        for spec in self.fragments:
            source = database.get(spec.predicate)
            if source is None:
                continue
            if spec.predicate not in counted:
                counted.add(spec.predicate)
                original += len(source)
            for processor in self.processors:
                stored += len(spec.local_fragment(source, processor))
        if original == 0:
            return 1.0
        return stored / original
