"""Storage layer: relations, hash indexes, databases and fragmentation.

Every fact lives in a :class:`Relation` — a set of plain tuples with
lazily built :class:`HashIndex` indexes (see docs/DATA_PLANE.md).  A
round's delta is a :class:`FactBatch`: the fresh facts, read but never
stored twice.
"""

from .batch import FactBatch
from .database import Database
from .fragments import (
    SHARED,
    ArbitraryFragmentation,
    FragmentationPlan,
    FragmentationPolicy,
    HashFragmentation,
    SharedFragmentation,
)
from .index import HashIndex
from .packing import (
    is_packed,
    pack_facts,
    packed_fact_count,
    unpack_facts,
)
from .relation import Fact, Relation

# An alias the benchmark's layer timings (benchmarks/e2e/layers.py)
# still import; a relation is always a ``Relation``.
make_relation = Relation

__all__ = [
    "SHARED",
    "ArbitraryFragmentation",
    "Database",
    "Fact",
    "FactBatch",
    "FragmentationPlan",
    "FragmentationPolicy",
    "HashFragmentation",
    "HashIndex",
    "Relation",
    "SharedFragmentation",
    "is_packed",
    "make_relation",
    "pack_facts",
    "packed_fact_count",
    "unpack_facts",
]
