"""Fact batches: one round's fresh facts, read as a relation.

A semi-naive delta is only ever scanned: every delta variant pins its
delta atom first (``compile_plan(..., pinned_first=...)``), so the join
reads it once, as the step-0 input.  It needs no set and no membership
test, so it is the list of fresh facts that
:meth:`~repro.facts.relation.Relation.add_new_many` already returns,
kept as it is (distinct facts, first-occurrence order).  Gilray et al.
(PAPERS.md): a delta is a batch.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .index import HashIndex
from .relation import Fact

__all__ = ["FactBatch"]


class FactBatch:
    """A read-only batch of distinct same-arity facts under a name.

    It stands in a :class:`~repro.facts.database.Database` where a join
    plan reads a relation: :meth:`facts` and ``len`` for a scan, and
    :meth:`index_on` for a delta atom that carries a constant.

    Args:
        name: the name it is read under (a ``#delta`` predicate).
        arity: number of argument positions of every fact.
        facts: the facts, distinct; the batch takes the sequence as it
            is, and nobody may change it afterwards.
    """

    __slots__ = ("name", "arity", "_facts", "_indexes")

    def __init__(self, name: str, arity: int,
                 facts: Sequence[Fact] = ()) -> None:
        self.name = name
        self.arity = arity
        self._facts = facts
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}

    def facts(self) -> Sequence[Fact]:
        """The facts, in the order they were given."""
        return self._facts

    def index_on(self, positions: Sequence[int]) -> HashIndex:
        """Return the hash index on ``positions``, built on first use."""
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            index = HashIndex(key)
            index.add_many(self._facts)
            self._indexes[key] = index
        return index

    def __len__(self) -> int:
        return len(self._facts)
