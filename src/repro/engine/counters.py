"""Counters for firings, probes and rounds.

The paper's redundancy results (Definition 1, Theorems 2 and 6) are
statements about the *number of successful ground substitutions* —
"firings" — so the engine counts every head instantiation it produces,
before deduplication.  Probe counts (index lookups) additionally feed
the simulator's work model.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable

__all__ = ["EvalCounters"]


class EvalCounters:
    """Mutable counters collected during an evaluation.

    Attributes:
        firings: per rule label, the number of successful ground
            substitutions (head tuples produced, duplicates included).
        probes: number of index lookups performed.
        iterations: number of semi-naive rounds executed.
    """

    __slots__ = ("firings", "probes", "iterations")

    def __init__(self) -> None:
        self.firings: Counter = Counter()
        self.probes: int = 0
        self.iterations: int = 0

    def record_firing(self, rule_label: str, count: int = 1) -> None:
        """Record ``count`` successful ground substitutions of a rule."""
        self.firings[rule_label] += count

    def record_probe(self, count: int = 1) -> None:
        """Record ``count`` index lookups."""
        self.probes += count

    def total_firings(self) -> int:
        """Total firings across all rules."""
        return sum(self.firings.values())

    def merged_with(self, other: "EvalCounters") -> "EvalCounters":
        """Return a new counter combining self and ``other``."""
        merged = EvalCounters()
        merged.firings = self.firings + other.firings
        merged.probes = self.probes + other.probes
        merged.iterations = max(self.iterations, other.iterations)
        return merged

    @staticmethod
    def sum(counters: Iterable["EvalCounters"]) -> "EvalCounters":
        """Combine many counters (iterations: maximum)."""
        total = EvalCounters()
        for counter in counters:
            total = total.merged_with(counter)
        return total

    def as_dict(self) -> Dict[str, object]:
        """Return a plain-dict snapshot (for reports and serialisation)."""
        return {
            "firings": dict(self.firings),
            "probes": self.probes,
            "iterations": self.iterations,
            "total_firings": self.total_firings(),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "EvalCounters":
        """Rebuild counters from an :meth:`as_dict` snapshot.

        Used by checkpoint restore: a worker resumed from a checkpoint
        does not re-derive its checkpointed facts, so its predecessor's
        counters must carry over for the cluster total (and hence the
        firings-identical-to-sequential property) to hold.
        """
        counters = EvalCounters()
        counters.firings = Counter(payload.get("firings", {}))
        counters.probes = int(payload.get("probes", 0))
        counters.iterations = int(payload.get("iterations", 0))
        return counters

    def __repr__(self) -> str:
        return (f"EvalCounters(firings={self.total_firings()}, "
                f"probes={self.probes}, "
                f"iterations={self.iterations})")
