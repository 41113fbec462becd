"""Packed-column encoding for fact batches crossing process boundaries.

The mp executor's DATA messages ship ``(predicate, facts)`` pairs.
Under the tuple wire format each pair's payload is a pickled list of
Python tuples — every value is re-pickled as a full object, and a
64-node batch of int pairs costs kilobytes.  The packed format instead
transposes the batch into per-attribute columns:

* an all-``int64`` column becomes the raw bytes of an ``array('q')``
  (8 bytes per value, one bytes object to pickle);
* a repetitive non-int column is dictionary-encoded as (unique values
  in first-occurrence order, index array bytes);
* anything else falls back to the plain value list.

Crucially the encoding is **self-contained**: the dictionary of a
dictionary-encoded column travels inside the message, and int columns
carry raw values, so nothing process-local crosses the process
boundary.  The receiver reconstructs the exact value tuples; ``unpack_facts(
pack_facts(facts))`` is the identity on fact lists (property-tested in
``tests/facts/test_packing.py``), which keeps routing, discriminating
functions and quiescence counting oblivious to the wire format.

The deterministic channel-byte model in :mod:`repro.parallel.metrics`
understands this layout, so ``channel_bytes`` comparisons between the
two wire formats stay meaningful.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Sequence, Tuple

from .relation import Fact

__all__ = [
    "PACKED_TAG",
    "PACK_MIN_FACTS",
    "ensure_facts",
    "is_packed",
    "maybe_pack",
    "pack_facts",
    "packed_fact_count",
    "packed_rows",
    "unpack_facts",
]

# First element of every packed payload.  A packed payload is a tuple
# and a plain payload a list of fact tuples, so ``is_packed`` is one
# type check and a tag comparison.
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


def is_packed(payload: object) -> bool:
    """True iff ``payload`` is a packed column payload (vs a fact list)."""
    return (type(payload) is tuple and len(payload) == 4
            and payload[0] == PACKED_TAG)


def packed_fact_count(payload: Tuple) -> int:
    """Number of facts in a packed payload, without decoding it."""
    return payload[1]


# Below this many facts the packed framing costs more than it saves,
# so senders (mp data messages, checkpoint payloads) ship the plain
# list.  Shared here so every producer breaks even at the same point.
PACK_MIN_FACTS = 8


def maybe_pack(facts: Sequence[Fact], min_facts: int = PACK_MIN_FACTS):
    """Pack ``facts`` when the batch is big enough to profit.

    Returns either a packed payload or the fact list unchanged; decode
    either with :func:`ensure_facts`.
    """
    if len(facts) >= min_facts:
        return pack_facts(facts)
    return list(facts)


def ensure_facts(payload) -> List[Fact]:
    """Decode a wire payload (packed or plain) back to a fact list."""
    if is_packed(payload):
        return unpack_facts(payload)
    return list(payload)


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
