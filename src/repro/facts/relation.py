"""Relations: named sets of fixed-arity tuples with optional hash indexes.

A :class:`Relation` is the storage unit of both the extensional database
(base predicates) and the partially computed intensional database during
bottom-up evaluation.  Tuples are plain Python tuples of hashable
values.  Hash indexes on argument-position subsets are built lazily and
maintained incrementally on insertion, which is what makes the
semi-naive join loops of the engine fast enough for benchmark-scale
workloads.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from .index import HashIndex

__all__ = ["Relation", "Fact"]

Fact = Tuple[object, ...]

# Containers :meth:`Relation.update` may scan twice (type and arity
# check, then insert) — an iterator can be read only once.
_SIZED = (list, tuple, set, frozenset)
_TUPLE = {tuple}


class Relation:
    """A mutable set of same-arity tuples.

    Args:
        name: predicate symbol this relation stores facts for.
        arity: number of argument positions; every tuple must match it.
        facts: optional initial tuples.
    """

    __slots__ = ("name", "arity", "_facts", "_indexes")

    def __init__(self, name: str, arity: int,
                 facts: Optional[Iterable[Sequence[object]]] = None) -> None:
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        self._facts: Set[Fact] = set()
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}
        if facts is not None:
            self.update(facts)

    def add(self, fact: Sequence[object]) -> bool:
        """Insert ``fact``; return True iff it was not already present."""
        tup = tuple(fact)
        if len(tup) != self.arity:
            raise ValueError(
                f"relation {self.name}/{self.arity} cannot store {tup!r}")
        if tup in self._facts:
            return False
        self._facts.add(tup)
        for index in self._indexes.values():
            index.add(tup)
        return True

    def update(self, facts: Iterable[Sequence[object]]) -> int:
        """Insert many facts; return the number of genuinely new ones.

        Bulk path: new facts are determined with one set difference and
        handed to each index's :meth:`~repro.facts.index.HashIndex.add_many`,
        so index keys are derived once per fact instead of once per
        fact per :meth:`add` call.  A relation of this arity (what the
        executors' pooling passes) is a set union with no per-fact scan,
        and another arity raises :class:`ValueError` before the relation
        changes.  When ``facts`` is a list, tuple or set of plain tuples
        of this arity — what the engines pass — the insert is a single
        C-level ``set.update`` (no ``fresh`` set at all without
        indexes); anything else takes the per-fact loop, which converts
        each fact and raises :class:`ValueError` on a wrong arity before
        the relation changes.
        """
        arity = self.arity
        present = self._facts
        if type(facts) is Relation:
            # Pooling passes whole relations.  A relation only holds
            # tuples of its arity, so there is nothing to scan: the
            # insert is a set union over the stored hashes.
            if facts.arity != arity:
                raise ValueError(
                    f"relation {self.name}/{arity} cannot store the facts "
                    f"of {facts.name}/{facts.arity}")
            facts = facts._facts
            if not self._indexes:
                before = len(present)
                present |= facts
                return len(present) - before
            fresh = facts - present
            present |= fresh
            for index in self._indexes.values():
                index.add_many(fresh)
            return len(fresh)
        if (type(facts) in _SIZED and set(map(type, facts)) <= _TUPLE
                and set(map(len, facts)) <= {arity}):
            if not self._indexes:
                before = len(present)
                present.update(facts)
                return len(present) - before
            fresh = set(facts)
            fresh -= present
            present |= fresh
            for index in self._indexes.values():
                index.add_many(fresh)
            return len(fresh)
        incoming: Set[Fact] = set()
        for fact in facts:
            tup = tuple(fact)
            if len(tup) != arity:
                raise ValueError(
                    f"relation {self.name}/{self.arity} cannot store {tup!r}")
            incoming.add(tup)
        fresh = incoming - present
        if not fresh:
            return 0
        present |= fresh
        for index in self._indexes.values():
            index.add_many(fresh)
        return len(fresh)

    def add_new_many(self, facts: Iterable[Sequence[object]]) -> "list[Fact]":
        """Insert many facts; return the genuinely new ones, in order.

        Batch-dedup primitive for the engines' round-close loops: the
        returned list preserves first-occurrence order of the input (so
        delta batches and emission buffers see facts in the same order
        a per-fact :meth:`add` loop would produce) and duplicates
        within the batch collapse to their first occurrence.  A fact
        that cannot be stored (wrong arity, unhashable) raises, and the
        relation is left as it was before the call.
        """
        arity = self.arity
        present = self._facts
        fresh: list = []
        try:
            for fact in facts:
                tup = tuple(fact)
                if len(tup) != arity:
                    raise ValueError(f"relation {self.name}/{self.arity} "
                                     f"cannot store {tup!r}")
                if tup in present:
                    continue
                present.add(tup)
                fresh.append(tup)
        except BaseException:
            # The indexes have not seen this call's facts yet.
            present.difference_update(fresh)
            raise
        if fresh:
            for index in self._indexes.values():
                index.add_many(fresh)
        return fresh

    def discard(self, fact: Sequence[object]) -> bool:
        """Remove ``fact`` if present; return True iff it was present."""
        tup = tuple(fact)
        if tup not in self._facts:
            return False
        self._facts.discard(tup)
        for index in self._indexes.values():
            index.discard(tup)
        return True

    def index_on(self, positions: Sequence[int]) -> HashIndex:
        """Return (building lazily) the hash index on ``positions``."""
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            index = HashIndex(key)
            for fact in self._facts:
                index.add(fact)
            self._indexes[key] = index
        return index

    def lookup(self, positions: Sequence[int],
               values: Sequence[object]) -> Iterable[Fact]:
        """Return the facts whose ``positions`` hold ``values``."""
        return self.index_on(positions).lookup(tuple(values))

    def facts(self) -> FrozenSetView:
        """Return a read-only view of the fact set."""
        return FrozenSetView(self._facts)

    def as_set(self) -> Set[Fact]:
        """Return a copy of the fact set."""
        return set(self._facts)

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Return a shallow copy (facts copied, indexes not)."""
        clone = Relation(name if name is not None else self.name, self.arity)
        clone._facts = set(self._facts)
        return clone

    def clear(self) -> None:
        """Remove every fact and drop all indexes."""
        self._facts.clear()
        self._indexes.clear()

    def __contains__(self, fact: Sequence[object]) -> bool:
        return tuple(fact) in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __bool__(self) -> bool:
        return bool(self._facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.name != other.name or self.arity != other.arity:
            return False
        if len(self._facts) != len(other._facts):
            return False
        theirs = other._facts
        return all(fact in theirs for fact in self._facts)

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, size={len(self)})"


class FrozenSetView:
    """A read-only view over a set of facts."""

    __slots__ = ("_facts",)

    def __init__(self, facts: Set[Fact]) -> None:
        self._facts = facts

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)
