"""Tuple routing: operational form of the paper's *sending* rules.

The sending rule ``t_ij(Ȳ) :- t_out^i(Ȳ), h(v(r)) = j`` forwards an
output tuple to the processor whose processing rule might fire on it.
Two regimes exist (paper, Examples 2 and 3):

* every variable of ``v(r)`` occurs in the recursive atom ``t(Ȳ)`` —
  the sender evaluates ``h`` and the tuple goes to exactly one target;
* some variable of ``v(r)`` is missing from ``Ȳ`` (Example 2's ``X``) —
  the condition is not evaluable at the sender, so the tuple must be
  sent to *every* processor (broadcast).  This costs communication but
  is neither incorrect nor redundant: the receiver's processing
  constraint still admits each firing at exactly one site.

:class:`Route` states the sending rule per fact (:meth:`Route.targets`);
:class:`RouterTable` is its batch form, precompiled per route, and the
only one the processor runtime calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..datalog.atom import Atom
from ..datalog.term import Constant, Variable
from ..errors import RoutingError
from ..facts.relation import Fact
from .discriminating import Discriminator

__all__ = [
    "BROADCAST",
    "Route",
    "RouterTable",
    "route_positions",
]

ProcessorId = Hashable

class _Broadcast:
    """Sentinel: the tuple must be sent to every processor."""

    def __repr__(self) -> str:
        return "BROADCAST"


BROADCAST = _Broadcast()


def route_positions(sequence: Sequence[Variable],
                    pattern: Atom) -> Optional[Tuple[int, ...]]:
    """Positions of the sequence variables within ``pattern``.

    Returns None when some sequence variable does not occur in the
    pattern, i.e. when the sender cannot evaluate ``h`` and must
    broadcast.
    """
    positions = []
    for variable in sequence:
        for index, term in enumerate(pattern.terms):
            if term == variable:
                positions.append(index)
                break
        else:
            return None
    return tuple(positions)


@dataclass(frozen=True)
class Route:
    """Routing for one recursive occurrence of a derived predicate.

    Attributes:
        predicate: the derived predicate whose tuples are routed.
        pattern: the body-atom occurrence the tuples will be matched
            against at the receiver (determines evaluability of ``h``).
        positions: pattern positions feeding ``h``; None means the
            sender must broadcast.
        discriminator: the (sender-resolved) discriminating function.
    """

    predicate: str
    pattern: Atom
    positions: Optional[Tuple[int, ...]]
    discriminator: Discriminator

    def matches_pattern(self, fact: Fact) -> bool:
        """True iff ``fact`` is unifiable with the occurrence pattern.

        Constants in the pattern must agree with the fact and repeated
        variables must carry equal values; otherwise the receiving rule
        could never fire on this tuple and nothing needs to be sent.
        """
        seen = {}
        for term, value in zip(self.pattern.terms, fact):
            if isinstance(term, Constant):
                if term.value != value:
                    return False
            else:
                if term in seen and seen[term] != value:
                    return False
                seen[term] = value
        return True

    def targets(self, fact: Fact) -> Tuple[ProcessorId, ...]:
        """Processor ids this tuple must reach for this occurrence.

        Returns the full processor set on broadcast, the empty tuple
        when the tuple cannot match the occurrence pattern or belongs to
        no fragment of a partition-defined discriminator.
        """
        if len(fact) != self.pattern.arity or not self.matches_pattern(fact):
            return ()
        if self.positions is None:
            return self.discriminator.processors
        values = tuple(fact[p] for p in self.positions)
        try:
            return (self.discriminator(values),)
        except RoutingError:
            return ()

    def is_broadcast(self) -> bool:
        """True iff this route always broadcasts."""
        return self.positions is None


class _CompiledRoute:
    """One route, precompiled for batch dispatch.

    ``Route.targets`` re-derives everything per fact: it zips the
    pattern terms, isinstance-checks each for ``Constant``, rebuilds the
    repeated-variable map and re-reads ``positions``.  All of that is a
    property of the *route*, not the fact, so it is hoisted here into
    flat tuples once per route:

    * ``const_checks`` — ``(position, value)`` pairs the fact must equal;
    * ``same_checks`` — ``(position, first_position)`` pairs for repeated
      pattern variables;
    * ``positions`` / ``discriminator`` — the hash dispatch, or
      ``broadcast`` with the full processor tuple.
    """

    __slots__ = ("arity", "broadcast", "const_checks", "discriminator",
                 "positions", "processors", "same_checks", "unchecked")

    def __init__(self, route: Route) -> None:
        pattern = route.pattern
        self.arity = pattern.arity
        const_checks: List[Tuple[int, object]] = []
        same_checks: List[Tuple[int, int]] = []
        first_position: Dict[object, int] = {}
        for index, term in enumerate(pattern.terms):
            if isinstance(term, Constant):
                const_checks.append((index, term.value))
            elif term in first_position:
                same_checks.append((index, first_position[term]))
            else:
                first_position[term] = index
        self.const_checks = tuple(const_checks)
        self.same_checks = tuple(same_checks)
        self.unchecked = not const_checks and not same_checks
        self.positions = route.positions
        self.discriminator = route.discriminator
        self.processors = route.discriminator.processors
        self.broadcast = route.positions is None

    def targets_of(self, facts: Sequence[Fact]) -> List[Optional[ProcessorId]]:
        """One target per fact (None: no fragment), decided column-wise."""
        if not self.positions:
            # An empty sequence: ``h(())`` is one target for every fact
            # (and no column would say how many facts there are).
            try:
                return [self.discriminator(())] * len(facts)
            except RoutingError:
                return [None] * len(facts)
        return self.discriminator.map_columns(
            [list(map(itemgetter(position), facts))
             for position in self.positions])

    def matches(self, fact: Fact) -> bool:
        if len(fact) != self.arity:
            return False
        for position, value in self.const_checks:
            if fact[position] != value:
                return False
        for position, first in self.same_checks:
            if fact[position] != fact[first]:
                return False
        return True


Buckets = Dict[ProcessorId, List[Fact]]


class RouterTable:
    """Batch partitioner over one processor's routes.

    ``partition`` takes every fact a step emitted for one predicate and
    splits the whole list into per-target buffers in a single pass, and
    ``split`` also returns the facts no route takes (the processor
    runtime keeps those in its part of the answer).  Targets keep
    first-seen order and each bucket keeps emission order, so
    downstream accounting (metrics, sent-logs, traces) sees the same
    tuples it always did, just grouped.

    Each route dispatches through its :class:`_CompiledRoute`, and the
    result equals aggregating per-fact :meth:`Route.targets` calls: a
    ``(buckets, broadcast_count)`` pair, where ``broadcast_count`` is
    the number of (fact, broadcast route) matches — the quantity
    ``ParallelMetrics.broadcast_tuples`` has always counted.
    """

    __slots__ = ("_compiled", "_routes")

    def __init__(self, routes: Sequence[Route]) -> None:
        grouped: Dict[str, List[Route]] = {}
        for route in routes:
            grouped.setdefault(route.predicate, []).append(route)
        self._routes: Dict[str, Tuple[Route, ...]] = {
            predicate: tuple(group) for predicate, group in grouped.items()}
        self._compiled: Dict[str, Tuple[_CompiledRoute, ...]] = {
            predicate: tuple(_CompiledRoute(route) for route in group)
            for predicate, group in self._routes.items()}

    def routes_for(self, predicate: str) -> Tuple[Route, ...]:
        return self._routes.get(predicate, ())

    def single_target(self, predicate: str) -> bool:
        """True iff a fact of ``predicate`` goes to at most one processor:
        no route, or one point-to-point route."""
        compiled = self._compiled.get(predicate, ())
        return len(compiled) == 0 or (len(compiled) == 1
                                      and not compiled[0].broadcast)

    def sole_target(self, predicate: str) -> Optional[ProcessorId]:
        """The processor every fact of ``predicate`` goes to, when that
        is known without looking at a fact: one point-to-point route
        with no pattern checks, whose total discriminator ranges over
        one processor (any scheme at ``n = 1``).  None otherwise."""
        compiled = self._compiled.get(predicate, ())
        if len(compiled) == 1:
            kernel = compiled[0]
            if (not kernel.broadcast and kernel.unchecked
                    and kernel.discriminator.total
                    and len(kernel.processors) == 1):
                return kernel.processors[0]
        return None

    def partition(self, predicate: str,
                  facts: Sequence[Fact]) -> Tuple[Buckets, int]:
        """Split ``facts`` of ``predicate`` into per-target buffers.

        Returns ``(buckets, broadcast_count)``; facts matching no route
        (or no fragment of a partition-defined discriminator) simply
        appear in no bucket.  A fact matched by several routes is
        deduplicated across targets exactly as the per-fact path did.
        """
        buckets, broadcasts, _unrouted = self.split(predicate, facts)
        return buckets, broadcasts

    def split(self, predicate: str,
              facts: Sequence[Fact]) -> Tuple[Buckets, int, List[Fact]]:
        """:meth:`partition`, plus the facts that no route takes, in
        order: ``(buckets, broadcast_count, unrouted)``."""
        compiled = self._compiled.get(predicate)
        if not compiled:
            return {}, 0, list(facts)
        buckets: Buckets = {}
        unrouted: List[Fact] = []
        broadcasts = 0
        # Routes of one predicate share its arity; a fact of another
        # length matches none of them.
        arity = compiled[0].arity
        if set(map(len, facts)) - {arity}:
            facts = [fact for fact in facts if len(fact) == arity]
        if len(compiled) == 1:
            kernel = compiled[0]
            if kernel.broadcast:
                # Broadcast fast path: every matching fact goes to the
                # full processor set.
                if kernel.unchecked:
                    matching = facts
                else:
                    matching = []
                    for fact in facts:
                        (matching if kernel.matches(fact)
                         else unrouted).append(fact)
                if not kernel.processors:
                    unrouted.extend(matching)
                elif matching:
                    broadcasts = len(matching)
                    for target in kernel.processors:
                        buckets[target] = list(matching)
                return buckets, broadcasts, unrouted
            if kernel.unchecked:
                # Point-to-point fast path: no pattern constraints (the
                # common hash-partitioned case, e.g. Example 3).  The
                # discriminating columns are gathered in one pass each
                # and mapped to targets as a whole batch
                # (``Discriminator.map_columns``), then the facts are
                # dealt into buckets by zipping fact against target —
                # one pass over flat arrays instead of per-fact method
                # dispatch.
                for fact, target in zip(facts, kernel.targets_of(facts)):
                    if target is None:
                        unrouted.append(fact)
                        continue
                    bucket = buckets.get(target)
                    if bucket is None:
                        buckets[target] = [fact]
                    else:
                        bucket.append(fact)
                return buckets, 0, unrouted
        # General form: several routes, or one with pattern checks.
        # Each route still decides the whole batch column-wise — a
        # match mask where the pattern has checks, one target column
        # per point-to-point route — and only the merge walks the
        # facts, deduplicating targets across routes.
        decided = []
        for kernel in compiled:
            mask = (None if kernel.unchecked
                    else [kernel.matches(fact) for fact in facts])
            if kernel.broadcast:
                decided.append((kernel.processors, mask))
            else:
                targets = kernel.targets_of(facts)
                if mask is not None:
                    targets = [target if keep else None
                               for target, keep in zip(targets, mask)]
                decided.append((None, targets))
        for row, fact in enumerate(facts):
            seen = set()
            for processors, column in decided:
                if processors is None:
                    target = column[row]
                    if target is not None and target not in seen:
                        seen.add(target)
                        buckets.setdefault(target, []).append(fact)
                elif column is None or column[row]:
                    if processors:
                        broadcasts += 1
                    for target in processors:
                        if target not in seen:
                            seen.add(target)
                            buckets.setdefault(target, []).append(fact)
            if not seen:
                unrouted.append(fact)
        return buckets, broadcasts, unrouted
