"""Hash indexes over argument-position subsets of a relation.

Buckets are insertion-ordered dicts keyed by fact, so membership tests,
:meth:`HashIndex.discard` and bucket pruning are O(1) instead of the
O(bucket) ``list.remove`` a list-backed bucket would need, and
``len(index)`` is a maintained counter instead of an O(buckets) sum.
Iteration over a bucket yields facts in insertion order, which keeps
index scans deterministic for equal insertion sequences.

Keys are derived by one precomputed :func:`operator.itemgetter` per
index, so a bulk insert (:meth:`HashIndex.add_many`) extracts every key
at C speed, and a bulk probe (:meth:`HashIndex.lookup_many`) resolves a
whole column of keys in one ``map``.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["HashIndex"]

Fact = Tuple[object, ...]
_EMPTY: Tuple[Fact, ...] = ()
_MISSING = object()
# Containers add_many may read twice (keys, then facts).
_REREADABLE = (list, tuple, set, frozenset, dict)


def _empty_key(fact: Fact) -> Tuple[()]:
    """The key of every fact under an index on no positions."""
    return ()


class HashIndex:
    """Maps a key — the values at ``positions`` — to the facts holding it."""

    __slots__ = ("positions", "_buckets", "_size", "_getter", "_unary")

    def __init__(self, positions: Sequence[int]) -> None:
        self.positions: Tuple[int, ...] = tuple(positions)
        self._buckets: Dict[Tuple[object, ...], Dict[Fact, None]] = {}
        self._size = 0
        # itemgetter returns a bare value for one position and a tuple
        # for several; a one-position key is wrapped into a 1-tuple.
        self._getter = (itemgetter(*self.positions) if self.positions
                        else _empty_key)
        self._unary = len(self.positions) == 1

    def key_of(self, fact: Fact) -> Tuple[object, ...]:
        """Extract the index key of ``fact``."""
        key = self._getter(fact)
        return (key,) if self._unary else key

    def keys_of(self, facts: Iterable[Fact]) -> Iterator[Tuple[object, ...]]:
        """The index key of every fact in ``facts``, in order (C speed)."""
        keys = map(self._getter, facts)
        return zip(keys) if self._unary else keys

    def add(self, fact: Fact) -> None:
        """Index ``fact``; adding an already-indexed fact is a no-op."""
        key = self.key_of(fact)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {fact: None}
        elif fact in bucket:
            return
        else:
            bucket[fact] = None
        self._size += 1

    def add_many(self, facts: Iterable[Fact]) -> None:
        """Index many facts at once (duplicates are no-ops, as in :meth:`add`).

        The bulk path exists so per-round delta ingestion derives every
        index key in one C-level pass (:meth:`keys_of`) and pays one
        Python iteration per fact only for the bucket insert.
        """
        if not isinstance(facts, _REREADABLE):
            facts = list(facts)
        buckets = self._buckets
        count = 0
        for key, fact in zip(self.keys_of(facts), facts):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {fact: None}
            elif fact in bucket:
                continue
            else:
                bucket[fact] = None
            count += 1
        self._size += count

    def discard(self, fact: Fact) -> None:
        """Remove ``fact`` from its bucket if present."""
        key = self.key_of(fact)
        bucket = self._buckets.get(key)
        if bucket is None or bucket.pop(fact, _MISSING) is _MISSING:
            return
        self._size -= 1
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: Tuple[object, ...]) -> Iterable[Fact]:
        """Return the facts whose indexed positions equal ``key``."""
        return self._buckets.get(key, _EMPTY)

    def lookup_many(self, keys: Iterable[Tuple[object, ...]]
                    ) -> List[Iterable[Fact]]:
        """Return one bucket per key of ``keys``, in order.

        The bulk form of :meth:`lookup` — one C-level ``map`` over the
        keys; a key nothing is indexed under gets an empty bucket.  The
        buckets are live views: read them before the index next changes.
        """
        return list(map(self._buckets.get, keys, repeat(_EMPTY)))

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"HashIndex(positions={self.positions}, buckets={len(self._buckets)})"
