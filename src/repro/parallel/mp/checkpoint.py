"""Checkpoint payloads of the multiprocessing executor.

Under ``recovery="checkpoint"`` each worker periodically snapshots its
derived state and ships it to the coordinator (one ``("checkpoint",
processor, payload)`` message; the coordinator keeps only the latest
payload per processor).  The snapshot is cut at the end of a *burst*
(see :mod:`.protocol`) — every step's output already on the wire, no
step in progress — which makes it a consistent local cut:

* the input relations travel as full facts only (every fact in full has
  already fired as a delta, so the restored runtime loads them into
  full *and* prev with empty deltas and never re-fires on them);
* the output relations (the facts already sent) travel so the
  restored worker dedups new derivations against everything its
  predecessor already sent;
* the facts no route took (``kept``) travel, so the restored worker's
  part of the answer is complete;
* the cumulative :class:`~repro.engine.counters.EvalCounters` travel so
  restored-plus-new firings equal an undisturbed run (the
  firings-identical-to-sequential property survives recovery);
* the worker's own sent-log (with its channel stamps) travels so a
  restored worker can keep serving replays for peers that die later;
* the per-sender *watermarks* travel so the coordinator can tell every
  peer how far its sent-log is acknowledged (see the
  watermark/truncation invariant in :mod:`.protocol`).

Fact batches are encoded with the packed column wire format of
:mod:`repro.facts.packing`, which is self-contained: a payload carries
raw values and its own dictionaries, so a checkpoint restores in any
process.

The payload is a plain picklable dict (versioned, see
:data:`CHECKPOINT_VERSION`); :func:`encode_checkpoint` /
:func:`decode_checkpoint` are exact inverses on the dataclass form
(property-tested in ``tests/parallel/test_checkpoint.py``), and
:func:`approx_checkpoint_bytes` prices a payload with the same
deterministic size model the channel accounting uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from ...facts.packing import ensure_facts, is_packed, maybe_pack
from ...facts.relation import Fact
from ..metrics import (
    BATCH_OVERHEAD_BYTES,
    MESSAGE_OVERHEAD_BYTES,
    approx_fact_bytes,
    approx_packed_bytes,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Stamp",
    "WorkerCheckpoint",
    "approx_checkpoint_bytes",
    "decode_checkpoint",
    "encode_checkpoint",
]

CHECKPOINT_VERSION = 2

ProcessorId = Hashable
# (incarnation, per-channel message seq); lexicographically monotone
# per channel — see the watermark/truncation invariant in `.protocol`.
Stamp = Tuple[int, int]
_STAMP_BYTES = 16


@dataclass
class WorkerCheckpoint:
    """One worker's recoverable state at a burst boundary.

    Attributes:
        epoch: recovery epoch the worker was in when it snapshot.
        in_facts: full input relations per derived predicate.
        out_facts: output relations per derived predicate.
        kept: facts no route took, per derived predicate.
        staged: received-but-unprocessed tuples per predicate.
        counters: :meth:`EvalCounters.as_dict` snapshot.
        duplicates_dropped: cumulative duplicate-drop count.
        received: cumulative received-tuple count (WorkerStats).
        self_delivered: cumulative self-delivery count (WorkerStats).
        sent_log: per-target per-predicate fact → stamp map (the stamp
            of the last message that carried the fact).
        watermarks: per-sender maximum stamp dequeued.
    """

    epoch: int = 0
    in_facts: Dict[str, List[Fact]] = field(default_factory=dict)
    out_facts: Dict[str, List[Fact]] = field(default_factory=dict)
    kept: Dict[str, List[Fact]] = field(default_factory=dict)
    staged: Dict[str, List[Fact]] = field(default_factory=dict)
    counters: Dict[str, object] = field(default_factory=dict)
    duplicates_dropped: int = 0
    received: int = 0
    self_delivered: int = 0
    sent_log: Dict[ProcessorId, Dict[str, Dict[Fact, Stamp]]] = \
        field(default_factory=dict)
    watermarks: Dict[ProcessorId, Stamp] = field(default_factory=dict)

    def fact_count(self) -> int:
        """Derived facts in the snapshot (inputs + outputs + kept +
        staged)."""
        return (sum(len(facts) for facts in self.in_facts.values())
                + sum(len(facts) for facts in self.out_facts.values())
                + sum(len(facts) for facts in self.kept.values())
                + sum(len(facts) for facts in self.staged.values()))


def _encode_relations(relations: Dict[str, List[Fact]]) -> Dict[str, object]:
    return {pred: maybe_pack(facts) for pred, facts in relations.items()}


def _decode_relations(encoded: Dict[str, object]) -> Dict[str, List[Fact]]:
    return {pred: ensure_facts(payload) for pred, payload in encoded.items()}


def encode_checkpoint(checkpoint: WorkerCheckpoint) -> Dict[str, object]:
    """Encode a snapshot into its picklable wire dict.

    Fact batches big enough to profit travel packed; the sent-log keeps
    its stamps in a list aligned with the (insertion-ordered) facts, so
    packing never loses the fact → stamp association.
    """
    sent_log: Dict[ProcessorId, Dict[str, Tuple[object, List]] ] = {}
    for target, by_pred in checkpoint.sent_log.items():
        encoded_preds = {}
        for pred, entries in by_pred.items():
            facts = list(entries.keys())
            stamps = list(entries.values())
            encoded_preds[pred] = (maybe_pack(facts), stamps)
        sent_log[target] = encoded_preds
    return {
        "version": CHECKPOINT_VERSION,
        "epoch": checkpoint.epoch,
        "in": _encode_relations(checkpoint.in_facts),
        "out": _encode_relations(checkpoint.out_facts),
        "kept": _encode_relations(checkpoint.kept),
        "staged": _encode_relations(checkpoint.staged),
        "counters": checkpoint.counters,
        "duplicates_dropped": checkpoint.duplicates_dropped,
        "received": checkpoint.received,
        "self_delivered": checkpoint.self_delivered,
        "sent_log": sent_log,
        "watermarks": dict(checkpoint.watermarks),
    }


def decode_checkpoint(payload: Dict[str, object]) -> WorkerCheckpoint:
    """Decode a wire dict back into the exact snapshot it encoded."""
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unknown checkpoint version {version!r}")
    sent_log: Dict[ProcessorId, Dict[str, Dict[Fact, Stamp]]] = {}
    for target, by_pred in payload["sent_log"].items():  # type: ignore[union-attr]
        decoded_preds: Dict[str, Dict[Fact, Stamp]] = {}
        for pred, (facts_payload, stamps) in by_pred.items():
            facts = ensure_facts(facts_payload)
            decoded_preds[pred] = dict(zip(facts, stamps))
        sent_log[target] = decoded_preds
    return WorkerCheckpoint(
        epoch=int(payload["epoch"]),  # type: ignore[arg-type]
        in_facts=_decode_relations(payload["in"]),  # type: ignore[arg-type]
        out_facts=_decode_relations(payload["out"]),  # type: ignore[arg-type]
        kept=_decode_relations(payload["kept"]),  # type: ignore[arg-type]
        staged=_decode_relations(payload["staged"]),  # type: ignore[arg-type]
        counters=dict(payload["counters"]),  # type: ignore[call-overload]
        duplicates_dropped=int(payload["duplicates_dropped"]),  # type: ignore[arg-type]
        received=int(payload["received"]),  # type: ignore[arg-type]
        self_delivered=int(payload["self_delivered"]),  # type: ignore[arg-type]
        sent_log=sent_log,
        watermarks=dict(payload["watermarks"]),  # type: ignore[call-overload]
    )


def _approx_payload_bytes(payload: object) -> int:
    if is_packed(payload):
        return approx_packed_bytes(payload)
    return sum(approx_fact_bytes(fact) for fact in payload)  # type: ignore[union-attr]


def approx_checkpoint_bytes(payload: Dict[str, object]) -> int:
    """Deterministic approximate size of an encoded checkpoint.

    Same currency as ``channel_bytes`` (the size model of
    :mod:`repro.parallel.metrics`), so ``checkpoint_bytes`` in the
    metrics is comparable across runs and platforms.
    """
    total = MESSAGE_OVERHEAD_BYTES
    for key in ("in", "out", "kept", "staged"):
        for pred, encoded in payload[key].items():  # type: ignore[union-attr]
            total += BATCH_OVERHEAD_BYTES + len(pred)
            total += _approx_payload_bytes(encoded)
    for target, by_pred in payload["sent_log"].items():  # type: ignore[union-attr]
        for pred, (facts_payload, stamps) in by_pred.items():
            total += BATCH_OVERHEAD_BYTES + len(pred)
            total += _approx_payload_bytes(facts_payload)
            total += _STAMP_BYTES * len(stamps)
    total += _STAMP_BYTES * len(payload["watermarks"])  # type: ignore[arg-type]
    return total
