"""Databases: named collections of relations.

A :class:`Database` stores the input (extensional) relations of a
program and, during evaluation, the derived (intensional) ones.  The
paper's *input* is a relation per base predicate; the *output* is a
relation per derived predicate (Section 2).
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..datalog.atom import Atom
from .batch import FactBatch
from .relation import Relation

__all__ = ["Database"]


class Database:
    """A mutable mapping from predicate symbols to :class:`Relation`.

    An evaluation may also :meth:`attach` a
    :class:`~repro.facts.batch.FactBatch` (a round's delta) under its
    ``#delta`` name, for its join plans to read.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Optional[Iterable[Relation]] = None) -> None:
        self._relations: Dict[str, Relation] = {}
        for relation in relations or ():
            self.attach(relation)

    @classmethod
    def from_facts(cls, facts: Mapping[str, Iterable[Sequence[object]]]) -> "Database":
        """Build a database from ``{predicate: iterable of tuples}``.

        Arities are inferred from the first tuple of each predicate.
        """
        database = cls()
        for name, rows in facts.items():
            rows = [tuple(row) for row in rows]
            if not rows:
                raise ValueError(
                    f"cannot infer arity of empty relation {name!r}; "
                    "use Database.declare instead")
            relation = Relation(name, len(rows[0]), rows)
            database.attach(relation)
        return database

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        database = cls()
        for atom in atoms:
            database.add_fact(atom.predicate, atom.to_fact())
        return database

    def declare(self, name: str, arity: int) -> Relation:
        """Ensure a relation exists, creating it empty if needed.

        Raises:
            ValueError: if the relation exists with a different arity.
        """
        relation = self._relations.get(name)
        if relation is None:
            relation = Relation(name, arity)
            self._relations[name] = relation
        elif relation.arity != arity:
            raise ValueError(
                f"relation {name} exists with arity {relation.arity}, not {arity}")
        return relation

    def attach(self, relation: Union[Relation, FactBatch]) -> None:
        """Register ``relation`` under its own name, replacing any previous one."""
        self._relations[relation.name] = relation

    def add_fact(self, name: str, fact: Sequence[object]) -> bool:
        """Insert a fact, creating the relation if needed."""
        relation = self._relations.get(name)
        if relation is None:
            relation = Relation(name, len(fact))
            self._relations[name] = relation
        return relation.add(fact)

    def relation(self, name: str) -> Relation:
        """Return the relation for ``name``.

        Raises:
            KeyError: if no such relation exists.
        """
        return self._relations[name]

    def get(self, name: str) -> Optional[Relation]:
        """Return the relation for ``name``, or None."""
        return self._relations.get(name)

    def names(self) -> Tuple[str, ...]:
        """Return the registered predicate names, sorted."""
        return tuple(sorted(self._relations))

    def copy(self) -> "Database":
        """Return a deep-ish copy (relations copied, indexes dropped)."""
        return Database(rel.copy() for rel in self._relations.values())

    def restrict(self, names: Iterable[str]) -> "Database":
        """Return a copy containing only the relations in ``names``."""
        subset = Database()
        for name in names:
            if name in self._relations:
                subset.attach(self._relations[name].copy())
        return subset

    def total_facts(self) -> int:
        """Return the total number of facts across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def same_contents(self, other: "Database",
                      names: Optional[Iterable[str]] = None) -> bool:
        """True iff both databases hold identical fact sets.

        Args:
            names: compare only these predicates; default, all names
                present in either database.
        """
        if names is None:
            names = set(self.names()) | set(other.names())
        for name in names:
            mine = self.get(name)
            theirs = other.get(name)
            mine_set = mine.as_set() if mine is not None else set()
            theirs_set = theirs.as_set() if theirs is not None else set()
            if mine_set != theirs_set:
                return False
        return True

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{rel.name}/{rel.arity}:{len(rel)}" for rel in self._relations.values())
        return f"Database({inner})"
