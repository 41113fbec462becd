"""Execution metrics of a parallel run.

The paper's results are claims about counts: firings per processor
(redundancy, Definition 1), tuples on channels (communication), which
channels are ever used (network connectivity, Section 5), and the
replication of base relations (fragmentation).  :class:`ParallelMetrics`
collects all of them, plus a simple per-round cost model for makespan
and speedup estimates — the quantitative study the paper defers to
future work (Section 8).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..facts.packing import is_packed

__all__ = [
    "CostModel",
    "ParallelMetrics",
    "approx_batch_bytes",
    "approx_fact_bytes",
    "approx_packed_bytes",
]

ProcessorId = Hashable
Channel = Tuple[ProcessorId, ProcessorId]

# Deterministic size model for channel accounting.  The point is not to
# predict pickle output exactly but to weight messages by payload in a
# way that is stable across platforms and Python versions, so
# ``channel_bytes`` compares across runs, machines and commits.  Constants
# approximate CPython object sizes.
MESSAGE_OVERHEAD_BYTES = 96   # envelope: tag, sender id, epoch, list
BATCH_OVERHEAD_BYTES = 48     # per (predicate, facts) group in a message
_TUPLE_OVERHEAD_BYTES = 56
_VALUE_BYTES = {int: 28, float: 24, bool: 28, type(None): 16}
# Packed-column payloads (repro.facts.packing): one encoding tuple per
# column plus one bytes buffer; raw int64 columns cost 8 bytes/value.
_COLUMN_OVERHEAD_BYTES = 56   # per-column encoding tuple + kind tag
_BUFFER_OVERHEAD_BYTES = 33   # bytes object header


def _approx_value_bytes(value: object) -> int:
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (bytes, bytearray)):
        return 33 + len(value)
    return _VALUE_BYTES.get(type(value), 48)


def approx_fact_bytes(fact: Tuple[object, ...]) -> int:
    """Deterministic approximate in-memory size of one fact tuple."""
    total = _TUPLE_OVERHEAD_BYTES + 8 * len(fact)
    for value in fact:
        total += _approx_value_bytes(value)
    return total


def approx_packed_bytes(payload) -> int:
    """Deterministic approximate wire size of a packed column payload.

    Mirrors :func:`approx_fact_bytes` for the packed encoding of
    :mod:`repro.facts.packing`: int64 columns cost their raw buffer (8
    bytes per value), dictionary-encoded columns cost the unique values
    plus the index buffer, raw fallback columns cost per value what the
    tuple model charges.  Keeping both formats in one model is what
    keeps ``channel_bytes`` comparable across wire formats (the pinned
    counters of ``tests/parallel/test_counter_identity.py``).
    """
    _tag, _count, _arity, columns = payload
    total = _TUPLE_OVERHEAD_BYTES
    for column in columns:
        kind = column[0]
        total += _COLUMN_OVERHEAD_BYTES
        if kind == "i":
            total += _BUFFER_OVERHEAD_BYTES + len(column[1])
        elif kind == "d":
            _kind, uniques, _typecode, raw = column
            total += _BUFFER_OVERHEAD_BYTES + len(raw)
            total += _TUPLE_OVERHEAD_BYTES + 8 * len(uniques)
            for value in uniques:
                total += _approx_value_bytes(value)
        else:
            values = column[1]
            total += _TUPLE_OVERHEAD_BYTES + 8 * len(values)
            for value in values:
                total += _approx_value_bytes(value)
    return total


def approx_batch_bytes(pairs) -> int:
    """Approximate wire size of one DATA message.

    ``pairs`` is the multi-predicate payload ``[(predicate, payload), ...]``
    where each payload is either a list of fact tuples or a packed
    column payload (:func:`repro.facts.packing.pack_facts`); the model
    charges one message envelope, one group overhead per predicate and
    the per-format payload cost.  A fact list whose values are all
    plain ``int`` (one C-level type scan) is priced from its counts;
    any other list goes through the per-fact model, to the same total.
    """
    total = MESSAGE_OVERHEAD_BYTES
    for predicate, payload in pairs:
        total += BATCH_OVERHEAD_BYTES + len(predicate)
        if is_packed(payload):
            total += approx_packed_bytes(payload)
        elif set(map(type, chain.from_iterable(payload))) <= {int}:
            total += (_TUPLE_OVERHEAD_BYTES * len(payload)
                      + (8 + _VALUE_BYTES[int]) * sum(map(len, payload)))
        else:
            for fact in payload:
                total += approx_fact_bytes(fact)
    return total


@dataclass(frozen=True)
class CostModel:
    """Weights of the makespan model.

    A round costs ``max_i(work_i + send_cost · sent_i + recv_cost ·
    received_i)`` and the makespan is the sum over rounds.  Work units
    are engine operations (firings + index probes), so sequential and
    parallel runs are measured in the same currency.

    Attributes:
        send_cost: work-units charged per tuple put on a remote channel.
        recv_cost: work-units charged per tuple taken off a channel.
        round_overhead: fixed per-round cost (barrier/synchronisation).
    """

    send_cost: float = 1.0
    recv_cost: float = 1.0
    round_overhead: float = 0.0


@dataclass
class ParallelMetrics:
    """Counters observed during one parallel execution.

    The simulator records its rounds' per-processor loads in the
    ``per_round_*`` lists, which price :meth:`makespan`.  The mp
    executor's workers run free, with no global rounds, so it leaves
    those lists empty.

    ``duplicates_dropped`` counts, per processor, the tuples that
    arrived over a channel when its ``t_in`` already held them (or an
    earlier arrival in the same ingest did); duplicates in a
    processor's own share never crossed a channel and are not counted.
    ``pooled_tuples`` is the summed size of the processors' parts of the
    answer (each its ``t_in`` plus the facts no route took): the answer
    size when each fact has one owner, more where parts overlap
    (a broadcast, or Wolfson's scheme).
    """

    scheme: str
    processors: Tuple[ProcessorId, ...]
    rounds: int = 0
    firings: Dict[ProcessorId, int] = field(default_factory=dict)
    probes: Dict[ProcessorId, int] = field(default_factory=dict)
    sent: Counter = field(default_factory=Counter)            # (i, j) -> tuples, i != j
    channel_messages: Counter = field(default_factory=Counter)  # (i, j) -> DATA messages
    channel_bytes: Counter = field(default_factory=Counter)     # (i, j) -> approx bytes
    self_delivered: Counter = field(default_factory=Counter)  # i -> tuples
    received: Counter = field(default_factory=Counter)        # i -> tuples accepted
    duplicates_dropped: Counter = field(default_factory=Counter)
    replayed: Counter = field(default_factory=Counter)        # i -> tuples re-sent
    broadcast_tuples: int = 0
    pooled_tuples: int = 0
    control_messages: int = 0
    detection_rounds: int = 0
    restarts: int = 0
    # Recovery accounting (mp executor, recovery="restart"/"checkpoint").
    # ``recovery_seconds`` is wall time from each death detection to the
    # first fully-acked probe wave of the new epoch, summed over
    # recoveries; ``checkpoint_bytes`` the approximate
    # size (deterministic model above) of every checkpoint shipped;
    # ``log_truncated`` the sent-log facts reclaimed by watermark
    # truncation.
    recovery_seconds: float = 0.0
    checkpoint_bytes: int = 0
    log_truncated: int = 0
    per_round_work: List[Dict[ProcessorId, float]] = field(default_factory=list)
    per_round_sent: List[Dict[ProcessorId, int]] = field(default_factory=list)
    per_round_received: List[Dict[ProcessorId, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_firings(self) -> int:
        """Successful ground substitutions summed over all processors."""
        return sum(self.firings.values())

    def total_work(self) -> float:
        """Firings plus probes summed over all processors."""
        return sum(self.firings.values()) + sum(self.probes.values())

    def total_sent(self) -> int:
        """Tuples crossing processor boundaries (self-deliveries excluded)."""
        return sum(self.sent.values())

    @property
    def recovery_replayed_facts(self) -> int:
        """Facts peers re-sent while serving replays, over all recoveries."""
        return sum(self.replayed.values())

    def total_self_delivered(self) -> int:
        """Tuples a processor routed to itself (free of communication)."""
        return sum(self.self_delivered.values())

    def total_channel_messages(self) -> int:
        """DATA messages (multi-predicate batches) put on remote channels.

        ``total_sent() / total_channel_messages()`` is the mean batch
        size.
        """
        return sum(self.channel_messages.values())

    def total_channel_bytes(self) -> int:
        """Approximate bytes crossing channels (see module size model)."""
        return sum(self.channel_bytes.values())

    def used_channels(self) -> Set[Channel]:
        """The remote channels that carried at least one tuple."""
        return {channel for channel, count in self.sent.items() if count > 0}

    def redundancy_vs(self, sequential_firings: int) -> int:
        """Extra firings relative to a sequential semi-naive run.

        Theorems 2 and 6 assert this is ``<= 0`` for shared-``h``
        schemes; Section 6's retention schemes trade it against
        communication.
        """
        return self.total_firings() - sequential_firings

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def makespan(self, cost: Optional[CostModel] = None) -> float:
        """Modelled parallel completion time (work units)."""
        cost = cost if cost is not None else CostModel()
        total = 0.0
        for index in range(len(self.per_round_work)):
            work = self.per_round_work[index]
            sent = (self.per_round_sent[index]
                    if index < len(self.per_round_sent) else {})
            received = (self.per_round_received[index]
                        if index < len(self.per_round_received) else {})
            peak = 0.0
            for proc in self.processors:
                load = (work.get(proc, 0.0)
                        + cost.send_cost * sent.get(proc, 0)
                        + cost.recv_cost * received.get(proc, 0))
                peak = max(peak, load)
            total += peak + cost.round_overhead
        return total

    def speedup_vs(self, sequential_work: float,
                   cost: Optional[CostModel] = None) -> float:
        """Sequential work divided by modelled parallel makespan."""
        span = self.makespan(cost)
        if span == 0:
            return float("inf") if sequential_work > 0 else 1.0
        return sequential_work / span

    def load_balance(self) -> float:
        """Jain fairness index of per-processor work in [1/N, 1].

        1.0 means perfectly even work; 1/N means one processor did
        everything.
        """
        loads = [self.firings.get(p, 0) + self.probes.get(p, 0)
                 for p in self.processors]
        total = sum(loads)
        if total == 0:
            return 1.0
        squares = sum(load * load for load in loads)
        return (total * total) / (len(loads) * squares)

    def utilisation(self) -> float:
        """Mean fraction of each round's peak work actually performed."""
        if not self.per_round_work:
            return 1.0
        ratios = []
        for work in self.per_round_work:
            peak = max((work.get(p, 0.0) for p in self.processors), default=0.0)
            if peak == 0:
                continue
            mean = sum(work.get(p, 0.0) for p in self.processors) / len(self.processors)
            ratios.append(mean / peak)
        return sum(ratios) / len(ratios) if ratios else 1.0

    def summary(self) -> Dict[str, object]:
        """A flat summary dict for tables and reports."""
        return {
            "scheme": self.scheme,
            "processors": len(self.processors),
            "rounds": self.rounds,
            "utilisation": round(self.utilisation(), 4),
            "firings": self.total_firings(),
            "work": self.total_work(),
            "sent": self.total_sent(),
            "channel_messages": self.total_channel_messages(),
            "channel_bytes": self.total_channel_bytes(),
            "self_delivered": self.total_self_delivered(),
            "broadcasts": self.broadcast_tuples,
            "dup_dropped": sum(self.duplicates_dropped.values()),
            "pooled": self.pooled_tuples,
            "channels_used": len(self.used_channels()),
            "load_balance": round(self.load_balance(), 4),
            "restarts": self.restarts,
            "replayed": sum(self.replayed.values()),
            "recovery_seconds": round(self.recovery_seconds, 4),
            "checkpoint_bytes": self.checkpoint_bytes,
            "log_truncated": self.log_truncated,
        }
