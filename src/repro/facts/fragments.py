"""Fragmentation of base relations: partitions and storage plans.

The paper's schemes differ in what they require of the base data:

* Example 1 (Wolfson–Silberschatz) needs every base relation *shared*
  (or replicated) by all processors;
* Example 2 (Valduriez–Khoshafian) works on an *arbitrary* horizontal
  partition — the partition itself defines the discriminating function;
* Example 3 and the general scheme use *hash partitions*: processor
  ``i`` holds the fragment ``{t : h(v(r) positions of t) = i}``.

Rewriters state the requirement each scheme imposes as a
:class:`FragmentationPlan` (a first-class result of the paper's
trade-off analysis); an :class:`ArbitraryFragmentation` is the explicit
partition of Example 2.  The split itself is
:meth:`repro.parallel.plans.FragmentSpec.local_fragment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Sequence, Tuple

from .relation import Fact, Relation

__all__ = [
    "ARBITRARY_PARTITION",
    "HASH_PARTITIONED",
    "SHARED",
    "ArbitraryFragmentation",
    "FragmentationPlan",
]

ProcessorId = Hashable

# The storage requirements a FragmentationPlan states.
SHARED = "shared"
HASH_PARTITIONED = "hash-partitioned"
ARBITRARY_PARTITION = "arbitrary-partition"


class ArbitraryFragmentation:
    """An explicit, caller-provided horizontal partition.

    This is Example 2's setting: the partition is arbitrary, and the
    discriminating function is *defined by* it (``h(a, b) = i`` iff
    ``(a, b) ∈ par^i``).

    Args:
        assignment: maps each fact to its owning processor.
    """

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


@dataclass(frozen=True)
class FragmentationPlan:
    """Per-base-relation storage requirements of a rewritten program.

    Attributes:
        requirements: ``{predicate: kind}`` where kind is
            :data:`SHARED`, :data:`HASH_PARTITIONED` or
            :data:`ARBITRARY_PARTITION`.
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
