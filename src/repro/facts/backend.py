"""Fact-storage backend selection: tuple rows vs interned columns.

The environment variable ``REPRO_FACT_BACKEND`` picks the process
default at import time, :func:`set_fact_backend` switches it
programmatically (returning the previous name so callers can restore
it), and every site that constructs a relation goes through
:func:`make_relation` so the choice applies uniformly — `Database`
construction, fragmentation, simulator pooling and mp worker rebuild
all honour it.

Backends:

``tuple`` (default)
    :class:`~repro.facts.relation.Relation` — facts in a plain set,
    plain :class:`~repro.facts.index.HashIndex` indexes.

``columnar``
    :class:`~repro.facts.columnar.ColumnarRelation` — insertion-ordered
    row dict plus lazily materialised interned-id ``array('q')``
    columns, :class:`~repro.facts.columnar.ColumnarIndex` indexes with
    cached bucket column gathers, and batch fast paths in the join,
    router and mp wire format (docs/DATA_PLANE.md).

The backend only changes layout and batching; answers, firings and
index semantics are identical (pinned by the backend-equivalence
property tests).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Optional, Sequence, Type

from ..errors import ConfigurationError
from .columnar import ColumnarRelation
from .relation import Relation

__all__ = [
    "FACT_BACKENDS",
    "fact_backend",
    "make_relation",
    "relation_class",
    "set_fact_backend",
]

FACT_BACKENDS: Dict[str, Type[Relation]] = {
    "tuple": Relation,
    "columnar": ColumnarRelation,
}

_backend = os.environ.get("REPRO_FACT_BACKEND", "tuple")
if _backend not in FACT_BACKENDS:
    raise ConfigurationError(
        f"REPRO_FACT_BACKEND={_backend!r}: expected one of "
        f"{sorted(FACT_BACKENDS)}")


def fact_backend() -> str:
    """Return the name of the process-default fact backend."""
    return _backend


def set_fact_backend(name: str) -> str:
    """Select the fact backend; returns the previous backend name.

    Raises:
        ConfigurationError: if ``name`` is not a backend.
    """
    global _backend
    if name not in FACT_BACKENDS:
        raise ConfigurationError(
            f"unknown fact backend {name!r}: expected one of "
            f"{sorted(FACT_BACKENDS)}")
    previous = _backend
    _backend = name
    return previous


def relation_class(backend: Optional[str] = None) -> Type[Relation]:
    """Return the Relation class for ``backend`` (default: process default)."""
    return FACT_BACKENDS[backend if backend is not None else _backend]


def make_relation(name: str, arity: int,
                  facts: Optional[Iterable[Sequence[object]]] = None,
                  backend: Optional[str] = None) -> Relation:
    """Construct a relation under the selected storage backend."""
    cls = FACT_BACKENDS[backend if backend is not None else _backend]
    return cls(name, arity, facts)
