"""Packed-column encoding of a fact batch.

:func:`pack_facts` transposes a batch into per-attribute columns:

* an all-``int64`` column becomes the raw bytes of an ``array('q')``
  (8 bytes per value, one bytes object to pickle);
* a repetitive non-int column is dictionary-encoded as (unique values
  in first-occurrence order, index array bytes);
* anything else falls back to the plain value list.

The encoding is self-contained (dictionaries and raw values travel
inside the payload), and ``unpack_facts(pack_facts(facts))`` is the
identity on fact lists (property-tested in
``tests/facts/test_packing.py``).

No executor uses it: the mp channels carry plain fact lists, which one
``pickle.dumps`` encodes in fewer bytes and less time at every batch
size the benchmark produces (docs/DATA_PLANE.md).  What is left serves
the benchmark's layer timings (``benchmarks/e2e/layers.py``) and
:meth:`repro.parallel.processor.ProcessorRuntime.receive_packed`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Sequence, Tuple

from .relation import Fact

__all__ = [
    "PACKED_TAG",
    "pack_facts",
    "packed_fact_count",
    "packed_rows",
    "unpack_facts",
]

# First element of every packed payload.
PACKED_TAG = "__cols__"

_INT = {int}

# Column encodings: ("i", bytes) int64 column; ("d", values, typecode,
# bytes) dictionary-encoded column; ("v", list) raw value fallback.


def _encode_column(values: List[object]) -> Tuple:
    # Exact-type check at C speed: bools and other int subclasses must
    # not collapse into the int column; ``array`` itself rejects values
    # outside int64.
    if set(map(type, values)) == _INT:
        try:
            return ("i", array("q", values).tobytes())
        except OverflowError:
            pass
    # Dictionary-encode when repetition makes it pay; otherwise ship raw.
    codes: dict = {}
    indexes: List[int] = []
    for value in values:
        code = codes.get(value)
        if code is None:
            code = len(codes)
            codes[value] = code
        indexes.append(code)
    if len(codes) * 2 < len(values):
        typecode = "H" if len(codes) <= 0xFFFF else "L"
        return ("d", tuple(codes), typecode,
                array(typecode, indexes).tobytes())
    return ("v", values)


def _decode_column(encoded: Tuple) -> List[object]:
    kind = encoded[0]
    if kind == "i":
        return array("q", encoded[1]).tolist()
    if kind == "d":
        _, uniques, typecode, raw = encoded
        indexes = array(typecode, raw)
        return [uniques[i] for i in indexes]
    if kind == "v":
        return encoded[1]
    raise ValueError(f"unknown packed column kind {kind!r}")


def pack_facts(facts: Sequence[Fact]) -> Tuple:
    """Transpose a fact batch into a packed column payload."""
    count = len(facts)
    if count == 0:
        return (PACKED_TAG, 0, 0, ())
    arity = len(facts[0])
    columns = tuple(
        _encode_column([fact[position] for fact in facts])
        for position in range(arity))
    return (PACKED_TAG, count, arity, columns)


def packed_fact_count(payload: Tuple) -> int:
    """Number of facts in a packed payload, without decoding it."""
    return payload[1]


def packed_rows(payload: Tuple) -> Iterable[Fact]:
    """The fact tuples of a packed payload, transposed lazily from its
    decoded columns (consume once)."""
    _, count, arity, columns = payload
    if count == 0:
        return ()
    if arity == 0:
        return [()] * count
    return zip(*[_decode_column(column) for column in columns])


def unpack_facts(payload: Tuple) -> List[Fact]:
    """Reconstruct the exact fact tuples of a packed payload."""
    return list(packed_rows(payload))
