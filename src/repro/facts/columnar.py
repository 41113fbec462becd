"""Columnar relation storage: interned-id attribute columns over a row dict.

:class:`ColumnarRelation` is a drop-in :class:`~repro.facts.relation.Relation`
with a different storage layout, selectable via
``set_fact_backend("columnar")`` / ``REPRO_FACT_BACKEND=columnar`` (see
:mod:`repro.facts.backend`).  The design is hybrid:

* The **row store** is an insertion-ordered dict of value tuples — the
  canonical fact set.  Membership, iteration, add/discard and all the
  per-fact Relation API run against it directly, so single-fact
  operations cost the same as the tuple backend and the equivalence
  argument (docs/DATA_PLANE.md) is by construction: both backends hold
  the same value tuples.
* The **columns** are flat ``array('q')`` buffers of interned constant
  ids (:mod:`repro.facts.interning`), one per attribute position, plus
  a parallel raw-value column cache (:meth:`ColumnarRelation.
  value_columns`) serving the batch join's full-scan seed.
  Both are *caches* over the row store, materialised lazily on first
  batch access — engine paths that never touch them pay nothing beyond
  the dict insert.  Additive mutations (:meth:`~ColumnarRelation.add`,
  :meth:`~ColumnarRelation.update`, :meth:`~ColumnarRelation.
  add_new_many`) **append to** materialised columns instead of
  invalidating them, so a growing relation (a transitive closure
  accumulating across rounds) keeps its batch layout warm at O(new
  facts) per round; only removals (:meth:`~ColumnarRelation.discard`,
  :meth:`~ColumnarRelation.clear`) invalidate wholesale.

:class:`ColumnarIndex` extends :class:`~repro.facts.index.HashIndex`
with per-bucket **gathered key columns**: ``bucket_column(key, pos)``
returns the position-``pos`` values of every fact in the bucket as one
flat list, cached until the bucket next changes.  The batch join's
step-0 seed (:mod:`repro.engine.plan`) is built on these gathers:
probing a static relation (e.g. ``edge`` in a transitive closure)
re-uses the same gathered column across every round instead of
re-walking fact tuples.

numpy, when importable, is used only as an optional export format
(:meth:`ColumnarRelation.column_array`); the stdlib ``array`` module is
the baseline layout and all hot paths work without numpy.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .index import HashIndex
from .interning import global_interner
from .relation import Fact, Relation

__all__ = ["ColumnarIndex", "ColumnarRelation"]

_EMPTY_COLUMN: Tuple[object, ...] = ()


class ColumnarIndex(HashIndex):
    """HashIndex with cached per-bucket column gathers.

    The bucket structure (insertion-ordered dict of facts per key) is
    inherited unchanged, so lookup semantics and iteration order match
    :class:`HashIndex` exactly.  On top of it, :meth:`bucket_column`
    memoises the flat list of position-``p`` values for a bucket; any
    mutation of that bucket drops its cached gathers.
    """

    __slots__ = ("_gathers",)

    def __init__(self, positions: Sequence[int]) -> None:
        super().__init__(positions)
        # key -> {position -> gathered value list}
        self._gathers: Dict[Tuple[object, ...], Dict[int, List[object]]] = {}

    def add(self, fact: Fact) -> None:
        if self._gathers:
            self._gathers.pop(self.key_of(fact), None)
        super().add(fact)

    def add_many(self, facts: Iterable[Fact]) -> None:
        if self._gathers:
            facts = list(facts)
            pop = self._gathers.pop
            for key in set(self.keys_of(facts)):
                pop(key, None)
        super().add_many(facts)

    def discard(self, fact: Fact) -> None:
        if self._gathers:
            self._gathers.pop(self.key_of(fact), None)
        super().discard(fact)

    def bucket_column(self, key: Tuple[object, ...],
                      position: int) -> Sequence[object]:
        """Return the ``position`` values of every fact under ``key``.

        The gather is cached per (key, position) until the bucket is
        next mutated; order matches bucket iteration order (insertion
        order), so ``zip(bucket_column(k, p1), bucket_column(k, p2))``
        walks the bucket's facts positionally.
        """
        per_bucket = self._gathers.get(key)
        if per_bucket is None:
            per_bucket = self._gathers[key] = {}
        column = per_bucket.get(position)
        if column is None:
            bucket = self._buckets.get(key)
            if bucket is None:
                return _EMPTY_COLUMN
            column = per_bucket[position] = [fact[position] for fact in bucket]
        return column


class ColumnarRelation(Relation):
    """Relation whose batch layout is interned-id columns.

    Observable behaviour is identical to :class:`Relation` (the
    backend-equivalence property tests in ``tests/facts`` and
    ``tests/engine`` pin this); the differences are the storage layout
    and the extra batch accessors (:meth:`columns`,
    :meth:`column_array`) plus :class:`ColumnarIndex` indexes.
    """

    __slots__ = ("_columns", "_value_columns")

    def __init__(self, name: str, arity: int,
                 facts: Optional[Iterable[Sequence[object]]] = None) -> None:
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        # Insertion-ordered row store; values are ignored (dict-as-set).
        self._facts: Dict[Fact, None] = {}
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}
        self._columns: Optional[List[array]] = None
        self._value_columns: Optional[List[List[object]]] = None
        if facts is not None:
            self.update(facts)

    # -- mutation (additions append to materialised columns; removals
    # -- invalidate them) ---------------------------------------------

    def _append_rows(self, fresh: Iterable[Fact]) -> None:
        """Extend materialised column caches with new row-store rows.

        Keeping the caches warm costs O(fresh) here versus an O(all
        facts) rebuild on the next batch access — the difference
        between O(new) and O(total) per semi-naive round for a growing
        relation.  No-op while the caches are cold.
        """
        cols = self._columns
        if cols is not None:
            intern = global_interner().intern
            for fact in fresh:
                for col, value in zip(cols, fact):
                    col.append(intern(value))
        vcols = self._value_columns
        if vcols is not None:
            for fact in fresh:
                for col, value in zip(vcols, fact):
                    col.append(value)

    def add(self, fact: Sequence[object]) -> bool:
        tup = tuple(fact)
        if len(tup) != self.arity:
            raise ValueError(
                f"relation {self.name}/{self.arity} cannot store {tup!r}")
        if tup in self._facts:
            return False
        self._facts[tup] = None
        if self._columns is not None or self._value_columns is not None:
            self._append_rows((tup,))
        for index in self._indexes.values():
            index.add(tup)
        return True

    def update(self, facts: Iterable[Sequence[object]]) -> int:
        arity = self.arity
        present = self._facts
        fresh: Dict[Fact, None] = {}
        for fact in facts:
            tup = tuple(fact)
            if len(tup) != arity:
                raise ValueError(
                    f"relation {self.name}/{self.arity} cannot store {tup!r}")
            if tup not in present:
                fresh[tup] = None
        if not fresh:
            return 0
        present.update(fresh)
        self._append_rows(fresh)
        for index in self._indexes.values():
            index.add_many(fresh)
        return len(fresh)

    def add_new_many(self, facts: Iterable[Sequence[object]]) -> List[Fact]:
        arity = self.arity
        present = self._facts
        fresh: List[Fact] = []
        for fact in facts:
            tup = tuple(fact)
            if len(tup) != arity:
                raise ValueError(
                    f"relation {self.name}/{self.arity} cannot store {tup!r}")
            if tup in present:
                continue
            present[tup] = None
            fresh.append(tup)
        if fresh:
            self._append_rows(fresh)
            for index in self._indexes.values():
                index.add_many(fresh)
        return fresh

    def discard(self, fact: Sequence[object]) -> bool:
        tup = tuple(fact)
        if tup not in self._facts:
            return False
        del self._facts[tup]
        self._columns = None
        self._value_columns = None
        for index in self._indexes.values():
            index.discard(tup)
        return True

    def clear(self) -> None:
        self._facts.clear()
        self._indexes.clear()
        self._columns = None
        self._value_columns = None

    def copy(self, name: Optional[str] = None) -> "ColumnarRelation":
        clone = ColumnarRelation(
            name if name is not None else self.name, self.arity)
        clone._facts = dict(self._facts)
        # Carry warm column caches: the clone holds the same rows, so a
        # fresh cache would rebuild to exactly these values.  Copied,
        # not shared — the clone appends independently.
        if self._columns is not None:
            clone._columns = [array("q", col) for col in self._columns]
        if self._value_columns is not None:
            clone._value_columns = [list(col) for col in self._value_columns]
        return clone

    # -- indexing -----------------------------------------------------

    def index_on(self, positions: Sequence[int]) -> ColumnarIndex:
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            index = ColumnarIndex(key)
            index.add_many(self._facts)
            self._indexes[key] = index
        return index

    # -- columnar accessors -------------------------------------------

    def columns(self) -> List[array]:
        """Return the per-attribute interned-id columns.

        One ``array('q')`` per position, row-aligned with iteration
        order of the relation.  Materialised lazily and cached until
        the next mutation; ids decode through the process interner
        (:func:`repro.facts.interning.global_interner`).
        """
        cols = self._columns
        if cols is None:
            intern = global_interner().intern
            cols = [array("q") for _ in range(self.arity)]
            appends = [col.append for col in cols]
            for fact in self._facts:
                for append, value in zip(appends, fact):
                    append(intern(value))
            self._columns = cols
        return cols

    def value_columns(self) -> List[List[object]]:
        """Return the per-attribute **raw value** columns, cached.

        One list per position, row-aligned with relation iteration
        order; materialised lazily like :meth:`columns` and likewise
        append-maintained by additive mutations.  This is the batch
        join's full-scan seed: a delta relation built
        once per round hands its whole batch over without re-walking
        fact tuples.  Callers must treat the returned lists as
        read-only — they are shared with every other caller.
        """
        cols = self._value_columns
        if cols is None:
            cols = [[] for _ in range(self.arity)]
            appends = [col.append for col in cols]
            for fact in self._facts:
                for append, value in zip(appends, fact):
                    append(value)
            self._value_columns = cols
        return cols

    def column_values(self, position: int) -> List[object]:
        """Gather the raw (non-interned) values at ``position``."""
        if self._value_columns is not None:
            return list(self._value_columns[position])
        return [fact[position] for fact in self._facts]

    def column_array(self, position: int):
        """Return the id column at ``position`` as a numpy array.

        Optional accelerator hook: zero-copy view over the ``array('q')``
        buffer when numpy is importable, the stdlib array otherwise.
        """
        column = self.columns()[position]
        try:  # imported here: no evaluation path pays for numpy
            import numpy
        except ImportError:  # pragma: no cover
            return column
        return numpy.frombuffer(column, dtype=numpy.int64)
