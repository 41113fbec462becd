"""Event sinks: where trace events go.

Three shapes cover the use cases:

* :class:`InMemorySink` — a plain list, for tests and for workers that
  batch events before shipping them over a channel;
* :class:`JsonlSink` — one JSON object per line, the interchange format
  consumed by ``repro trace`` and :mod:`repro.obs.report`.  Keys are
  sorted and separators fixed, so a deterministic event stream yields a
  byte-identical file;
* :class:`AggregateSink` — a compact aggregated form that never stores
  individual events, only ``(kind, proc)`` and ``(kind, round)``
  counters; the cheap always-on option for long runs.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from .events import TUPLE_DROPPED, TUPLE_RECEIVED, TUPLE_SENT, TraceEvent

# Event kinds whose optional ``count`` payload means "this one event
# stands for N tuples" (batched emitters).  Only tuple-flow kinds are
# weighted: REPLAY also carries a count but has always meant one event
# per replay burst, and its count is consumed by the report layer.
_COUNTED_KINDS = frozenset((TUPLE_SENT, TUPLE_RECEIVED, TUPLE_DROPPED))

__all__ = [
    "AggregateSink",
    "InMemorySink",
    "JsonlSink",
    "TraceSink",
    "event_to_json",
    "read_jsonl",
]


def _json_default(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return str(value)


def event_to_json(event: TraceEvent) -> str:
    """Canonical one-line JSON encoding of an event."""
    return json.dumps(event.to_dict(), sort_keys=True,
                      separators=(",", ":"), default=_json_default)


def read_jsonl(path: str) -> Iterator[TraceEvent]:
    """Yield the events of a JSONL trace file.

    Raises:
        ReproError: if a line is not valid JSON.
    """
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                from ..errors import ReproError
                raise ReproError(
                    f"{path}:{number}: not a JSONL trace ({error})") from error
            yield TraceEvent.from_dict(payload)


class TraceSink:
    """Abstract sink; subclasses consume :class:`TraceEvent` objects."""

    def emit(self, event: TraceEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class InMemorySink(TraceSink):
    """Collects events in a list (tests, worker-side batching)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def drain(self) -> List[TraceEvent]:
        """Return and clear the buffered events."""
        drained, self.events = self.events, []
        return drained

    def count(self, kind: str) -> int:
        """Number of buffered events of ``kind``."""
        return sum(1 for event in self.events if event.kind == kind)

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(TraceSink):
    """Writes one canonical JSON object per line.

    Args:
        target: a path (opened and owned by the sink) or an open
            text-mode file object (borrowed; not closed).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._handle = target
            self._owned = False
        self.lines_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(event_to_json(event) + "\n")
        self.lines_written += 1

    def close(self) -> None:
        if self._owned and not self._handle.closed:
            self._handle.close()
        elif not self._handle.closed:
            self._handle.flush()


class AggregateSink(TraceSink):
    """Stores only counters, never events — the compact aggregated form.

    Attributes:
        by_kind: total events per kind.
        by_proc: events per ``(kind, proc)``.
        by_round: events per ``(kind, round)``.
    """

    def __init__(self) -> None:
        self.by_kind: Counter = Counter()
        self.by_proc: Counter = Counter()
        self.by_round: Counter = Counter()
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None

    def emit(self, event: TraceEvent) -> None:
        weight = 1
        if event.kind in _COUNTED_KINDS:
            count = event.data.get("count")
            if isinstance(count, int) and count > 0:
                weight = count
        self.by_kind[event.kind] += weight
        if event.proc is not None:
            self.by_proc[(event.kind, event.proc)] += weight
        if event.round is not None:
            self.by_round[(event.kind, event.round)] += weight
        if event.ts is not None:
            if self.first_ts is None:
                self.first_ts = event.ts
            self.last_ts = event.ts

    def as_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot of the aggregates."""
        payload: Dict[str, object] = {
            "by_kind": dict(self.by_kind),
            "by_proc": {f"{kind}@{proc}": count for (kind, proc), count
                        in sorted(self.by_proc.items())},
            "by_round": {f"{kind}@{round_}": count
                         for (kind, round_), count
                         in sorted(self.by_round.items())},
        }
        if self.first_ts is not None and self.last_ts is not None:
            payload["span_seconds"] = self.last_ts - self.first_ts
        return payload
