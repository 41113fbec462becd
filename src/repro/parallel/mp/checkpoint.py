"""Checkpoint payloads of the multiprocessing executor.

Under ``recovery="checkpoint"`` each worker periodically snapshots its
derived state and ships it to the coordinator (one ``("checkpoint",
processor, watermarks, blob)`` message; the coordinator keeps only the
latest blob per processor).  The snapshot is cut at the end of a *burst*
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

The snapshot crosses the channel as one opaque ``pickle.dumps`` blob
(:func:`encode_checkpoint`); only the restored worker decodes it
(:func:`decode_checkpoint`), never the coordinator, which stores and
re-sends the bytes and reads just the watermarks that travel beside
them.  Producer and consumer are forks of one interpreter within one
run, so the blob needs no version of its own.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from ...facts.relation import Fact

__all__ = [
    "Stamp",
    "WorkerCheckpoint",
    "decode_checkpoint",
    "encode_checkpoint",
]

ProcessorId = Hashable
# (incarnation, per-channel message seq); lexicographically monotone
# per channel — see the watermark/truncation invariant in `.protocol`.
Stamp = Tuple[int, int]


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


def encode_checkpoint(checkpoint: WorkerCheckpoint) -> bytes:
    """The snapshot as the blob a ``checkpoint`` message carries."""
    return pickle.dumps(checkpoint, pickle.HIGHEST_PROTOCOL)


def decode_checkpoint(blob: bytes) -> WorkerCheckpoint:
    """The exact snapshot :func:`encode_checkpoint` encoded."""
    return pickle.loads(blob)
