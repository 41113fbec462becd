"""Network graphs over processor sets (paper, Definition 3).

A network graph states which ordered pairs of processors are permitted
to communicate during a parallel execution.  Section 5 derives, at
compile time, the *minimal* network graph of a linear sirup — edges
exist only where some input database would actually cause
communication.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Tuple

__all__ = ["NetworkGraph"]

ProcessorId = Hashable
Edge = Tuple[ProcessorId, ProcessorId]


class NetworkGraph:
    """A directed graph over a fixed processor set."""

    def __init__(self, processors: Iterable[ProcessorId],
                 edges: Iterable[Edge] = ()) -> None:
        # Successors per processor; insertion-ordered dicts stand in for
        # sets so every rendering is deterministic.
        self._successors: Dict[ProcessorId, Dict[ProcessorId, None]] = {
            processor: {} for processor in processors}
        for source, target in edges:
            self.add_edge(source, target)

    @property
    def processors(self) -> Tuple[ProcessorId, ...]:
        """The processor set, sorted by representation."""
        return tuple(sorted(self._successors, key=repr))

    def add_edge(self, source: ProcessorId, target: ProcessorId) -> None:
        """Permit communication from ``source`` to ``target``."""
        if (source not in self._successors
                or target not in self._successors):
            raise ValueError(f"edge ({source!r}, {target!r}) leaves the "
                             "processor set")
        self._successors[source][target] = None

    def has_edge(self, source: ProcessorId, target: ProcessorId) -> bool:
        """True iff communication from ``source`` to ``target`` is permitted."""
        return target in self._successors.get(source, ())

    def edges(self, include_self: bool = True) -> FrozenSet[Edge]:
        """The permitted edges, optionally without self-loops.

        Self-loops model a processor retaining tuples for itself, which
        costs no communication; most reports exclude them.
        """
        return frozenset(
            (s, t) for s, targets in self._successors.items()
            for t in targets if include_self or s != t)

    def degree_summary(self) -> Tuple[int, int]:
        """(number of remote edges, complete-graph remote edge count)."""
        n = len(self._successors)
        return len(self.edges(include_self=False)), n * (n - 1)

    def is_subset_of(self, other: "NetworkGraph") -> bool:
        """True iff every remote edge here is permitted in ``other``."""
        return self.edges(include_self=False) <= other.edges(include_self=False)

    def covers(self, used_edges: Iterable[Edge]) -> bool:
        """True iff every (remote) used edge is a permitted edge."""
        permitted = self.edges(include_self=False)
        return all(edge in permitted
                   for edge in used_edges if edge[0] != edge[1])

    def to_ascii(self) -> str:
        """Render one line per node: ``node -> successors``."""
        lines = []
        for node in self.processors:
            successors = sorted(self._successors[node], key=repr)
            remote = [s for s in successors if s != node]
            arrow = ", ".join(repr(s) for s in remote) if remote else "(none)"
            lines.append(f"{node!r} -> {arrow}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NetworkGraph)
                and set(self._successors) == set(other._successors)
                and self.edges() == other.edges())

    def __repr__(self) -> str:
        remote, complete = self.degree_summary()
        return (f"NetworkGraph({len(self._successors)} processors, "
                f"{remote}/{complete} remote edges)")
