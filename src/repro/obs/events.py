"""Typed trace events.

Every observable moment of an evaluation — a round boundary, a rule
firing on a tuple, a tuple crossing a channel, a termination probe, a
worker's lifetime including failure, restart and replay — is one
:class:`TraceEvent`.  Events are deliberately
flat and JSON-friendly: ``kind`` plus a processor tag, an optional round
number, an optional wall-clock timestamp and a small payload dict.  The
simulator never supplies timestamps, so its event streams are exactly
reproducible (byte-identical JSONL for equal seeds); the real
multiprocessing executor does, so wall-clock timelines can be drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = [
    "CHECKPOINT",
    "EVENT_KINDS",
    "LOG_TRUNCATE",
    "PROBE",
    "REPLAY",
    "RESTORE",
    "ROUND_END",
    "ROUND_START",
    "RULE_FIRED",
    "RUN_END",
    "RUN_START",
    "TUPLE_DROPPED",
    "TUPLE_RECEIVED",
    "TUPLE_SENT",
    "TraceEvent",
    "WORKER_DOWN",
    "WORKER_EXIT",
    "WORKER_RESTART",
    "WORKER_SPAWN",
]

RUN_START = "run_start"
RUN_END = "run_end"
ROUND_START = "round_start"
ROUND_END = "round_end"
RULE_FIRED = "rule_fired"
TUPLE_SENT = "tuple_sent"
TUPLE_RECEIVED = "tuple_received"
TUPLE_DROPPED = "tuple_dropped"
PROBE = "probe"
WORKER_SPAWN = "worker_spawn"
WORKER_EXIT = "worker_exit"
WORKER_DOWN = "worker_down"
WORKER_RESTART = "worker_restart"
REPLAY = "replay"
CHECKPOINT = "checkpoint"
RESTORE = "restore"
LOG_TRUNCATE = "log_truncate"

EVENT_KINDS = frozenset({
    RUN_START, RUN_END, ROUND_START, ROUND_END, RULE_FIRED,
    TUPLE_SENT, TUPLE_RECEIVED, TUPLE_DROPPED, PROBE,
    WORKER_SPAWN, WORKER_EXIT, WORKER_DOWN, WORKER_RESTART,
    REPLAY, CHECKPOINT, RESTORE, LOG_TRUNCATE,
})

# Keys of the flat dict form that are *not* payload entries.
_RESERVED = ("kind", "proc", "round", "ts")


@dataclass(frozen=True)
class TraceEvent:
    """One observed moment of an evaluation.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        proc: name-safe processor tag (see
            :func:`repro.parallel.naming.processor_tag`), or ``None``
            for cluster-level and sequential events.
        round: round/iteration number the event belongs to, if any.
        data: kind-specific payload (e.g. ``rule``, ``pred``, ``dst``).
        ts: wall-clock timestamp, or ``None`` for deterministic traces.
    """

    kind: str
    proc: Optional[str] = None
    round: Optional[int] = None
    data: Mapping[str, object] = field(default_factory=dict)
    ts: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Flatten to a JSON-serialisable dict (``None`` fields omitted)."""
        flat: Dict[str, object] = {"kind": self.kind}
        if self.proc is not None:
            flat["proc"] = self.proc
        if self.round is not None:
            flat["round"] = self.round
        if self.ts is not None:
            flat["ts"] = self.ts
        for key, value in self.data.items():
            if key not in _RESERVED:
                flat[key] = value
        return flat

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TraceEvent":
        """Rebuild an event from its flat dict form."""
        data = {key: value for key, value in payload.items()
                if key not in _RESERVED}
        return cls(kind=str(payload["kind"]),
                   proc=payload.get("proc"),  # type: ignore[arg-type]
                   round=payload.get("round"),  # type: ignore[arg-type]
                   data=data,
                   ts=payload.get("ts"))  # type: ignore[arg-type]
