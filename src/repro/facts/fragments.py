"""Fragmentation policies for base relations.

The paper's schemes differ in what they require of the base data:

* Example 1 (Wolfson–Silberschatz) needs every base relation *shared*
  (or replicated) by all processors;
* Example 2 (Valduriez–Khoshafian) works on an *arbitrary* horizontal
  partition — the partition itself defines the discriminating function;
* Example 3 and the general scheme use *hash partitions*: processor
  ``i`` holds the fragment ``{t : h(v(r) positions of t) = i}``.

A policy maps a relation to per-processor fragments and reports its
kind, so rewriters can emit a :class:`FragmentationPlan` stating the
storage requirement each scheme imposes (a first-class result of the
paper's trade-off analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Mapping, Sequence, Tuple

from .relation import Fact, Relation

__all__ = [
    "SHARED",
    "FragmentationPolicy",
    "SharedFragmentation",
    "HashFragmentation",
    "ArbitraryFragmentation",
    "FragmentationPlan",
]

ProcessorId = Hashable

SHARED = "shared"
HASH_PARTITIONED = "hash-partitioned"
ARBITRARY = "arbitrary-partition"


class FragmentationPolicy:
    """Base class for fragmentation policies."""

    kind: str = "abstract"

    def fragment(self, relation: Relation,
                 processors: Sequence[ProcessorId]) -> Dict[ProcessorId, Relation]:
        """Return ``{processor: fragment relation}``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable summary for reports."""
        return self.kind


class SharedFragmentation(FragmentationPolicy):
    """Every processor accesses the whole relation (shared/replicated)."""

    kind = SHARED

    def fragment(self, relation: Relation,
                 processors: Sequence[ProcessorId]) -> Dict[ProcessorId, Relation]:
        return {proc: relation.copy() for proc in processors}


class HashFragmentation(FragmentationPolicy):
    """Disjoint fragments assigned by a function of selected positions.

    Args:
        positions: argument positions whose values feed ``assign``.
        assign: maps the projected value tuple to a processor id.
    """

    kind = HASH_PARTITIONED

    def __init__(self, positions: Sequence[int],
                 assign: Callable[[Tuple[object, ...]], ProcessorId]) -> None:
        self.positions = tuple(positions)
        self.assign = assign

    def owner(self, fact: Fact) -> ProcessorId:
        """Return the processor owning ``fact``."""
        return self.assign(tuple(fact[p] for p in self.positions))

    def fragment(self, relation: Relation,
                 processors: Sequence[ProcessorId]) -> Dict[ProcessorId, Relation]:
        fragments = {proc: Relation(relation.name, relation.arity)
                     for proc in processors}
        known = set(processors)
        for fact in relation:
            owner = self.owner(fact)
            if owner not in known:
                raise ValueError(
                    f"assign() produced unknown processor {owner!r} for {fact!r}")
            fragments[owner].add(fact)
        return fragments

    def describe(self) -> str:
        return f"{self.kind} on positions {self.positions}"


class ArbitraryFragmentation(FragmentationPolicy):
    """An explicit, caller-provided horizontal partition.

    This is Example 2's setting: the partition is arbitrary, and the
    discriminating function is *defined by* it (``h(a, b) = i`` iff
    ``(a, b) ∈ par^i``).

    Args:
        assignment: maps each fact to its owning processor.  Facts not
            in the mapping raise at fragmentation time.
    """

    kind = ARBITRARY

    def __init__(self, assignment: Mapping[Fact, ProcessorId]) -> None:
        self.assignment = dict(assignment)

    @classmethod
    def round_robin(cls, relation: Relation,
                    processors: Sequence[ProcessorId]) -> "ArbitraryFragmentation":
        """Deterministically split ``relation`` round-robin (sorted order)."""
        assignment: Dict[Fact, ProcessorId] = {}
        ordered = sorted(relation, key=repr)
        for position, fact in enumerate(ordered):
            assignment[fact] = processors[position % len(processors)]
        return cls(assignment)

    def owner(self, fact: Fact) -> ProcessorId:
        """Return the processor owning ``fact``.

        Raises:
            KeyError: if the fact was never assigned.
        """
        return self.assignment[fact]

    def fragment(self, relation: Relation,
                 processors: Sequence[ProcessorId]) -> Dict[ProcessorId, Relation]:
        fragments = {proc: Relation(relation.name, relation.arity)
                     for proc in processors}
        for fact in relation:
            fragments[self.owner(fact)].add(fact)
        return fragments


@dataclass(frozen=True)
class FragmentationPlan:
    """Per-base-relation storage requirements of a rewritten program.

    Attributes:
        requirements: ``{predicate: kind}`` where kind is ``shared``,
            ``hash-partitioned`` or ``arbitrary-partition``.
        notes: optional human-readable remarks per predicate.
    """

    requirements: Mapping[str, str]
    notes: Mapping[str, str] = field(default_factory=dict)

    def shared_predicates(self) -> Tuple[str, ...]:
        """Return predicates that must be shared/replicated, sorted."""
        return tuple(sorted(
            name for name, kind in self.requirements.items() if kind == SHARED))

    def partitioned_predicates(self) -> Tuple[str, ...]:
        """Return predicates that may be partitioned, sorted."""
        return tuple(sorted(
            name for name, kind in self.requirements.items() if kind != SHARED))

    def describe(self) -> str:
        """Render the plan as one line per predicate."""
        lines = []
        for name in sorted(self.requirements):
            line = f"{name}: {self.requirements[name]}"
            note = self.notes.get(name)
            if note:
                line += f" ({note})"
            lines.append(line)
        return "\n".join(lines)
