"""The tracer: typed event emission with a zero-overhead default.

A :class:`Tracer` wraps a sink and exposes one method per event kind,
so call sites read like what happened (``tracer.rule_fired(...)``)
rather than dictionary plumbing.  The default everywhere is the
:data:`NULL_TRACER` singleton — a :class:`NullTracer` whose ``enabled``
flag is ``False`` and whose methods are no-ops, so instrumented hot
loops guard with a single attribute check::

    tracing = tracer.enabled
    for fact in plan.execute(...):
        if tracing:
            tracer.rule_fired(tag, plan.label, fact)

Timing: a tracer built with ``clock=None`` (the simulator's mode)
stamps nothing, making traces deterministic; ``clock=time.perf_counter``
(the multiprocessing mode) stamps every event.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from .events import (
    CHECKPOINT,
    LOG_TRUNCATE,
    PROBE,
    REPLAY,
    RESTORE,
    ROUND_END,
    ROUND_START,
    RULE_FIRED,
    RUN_END,
    RUN_START,
    TUPLE_DROPPED,
    TUPLE_RECEIVED,
    TUPLE_SENT,
    TraceEvent,
    WORKER_DOWN,
    WORKER_EXIT,
    WORKER_RESTART,
    WORKER_SPAWN,
)
from .sinks import TraceSink

__all__ = ["NULL_TRACER", "NullTracer", "Tracer", "ensure_tracer"]


class Tracer:
    """Emits typed events into a sink.

    Args:
        sink: where events go.
        clock: optional zero-argument callable returning seconds; when
            ``None`` (default) events carry no timestamp and the stream
            is deterministic.
    """

    enabled: bool = True

    def __init__(self, sink: TraceSink,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.sink = sink
        self.clock = clock
        self.current_round: Optional[int] = None

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, proc: Optional[str] = None,
             round: Optional[int] = None, **data: object) -> None:
        """Emit one event; ``round`` defaults to :attr:`current_round`."""
        self.sink.emit(TraceEvent(
            kind=kind, proc=proc,
            round=self.current_round if round is None else round,
            data=data,
            ts=self.clock() if self.clock is not None else None))

    def ingest(self, payload: Mapping[str, object]) -> None:
        """Forward an event received in flat dict form (worker batches)."""
        self.sink.emit(TraceEvent.from_dict(payload))

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()

    # ------------------------------------------------------------------
    # Typed events
    # ------------------------------------------------------------------
    def run_start(self, scheme: str, processors: Sequence[str],
                  executor: str, **data: object) -> None:
        """A run begins (``executor``: simulator / mp / sequential).

        Extra payload entries record resolved run configuration — the
        mp executor logs its derived ack deadline and recovery policy
        here so a trace shows which values the run actually used.
        """
        self.emit(RUN_START, scheme=scheme, processors=list(processors),
                  executor=executor, **data)

    def run_end(self, **data: object) -> None:
        """A run completed; payload carries final aggregates."""
        self.emit(RUN_END, **data)

    def round_start(self, round: int) -> None:
        """A global round begins; subsequent events default to it."""
        self.current_round = round
        self.emit(ROUND_START, round=round)

    def round_end(self, round: int, **data: object) -> None:
        """A global round ended; payload carries per-processor loads."""
        self.emit(ROUND_END, round=round, **data)

    def rule_fired(self, proc: Optional[str], rule: str,
                   fact: Optional[tuple] = None) -> None:
        """One successful ground substitution (before deduplication)."""
        if fact is None:
            self.emit(RULE_FIRED, proc=proc, rule=rule)
        else:
            self.emit(RULE_FIRED, proc=proc, rule=rule, fact=list(fact))

    def tuple_sent(self, proc: str, dst: str, pred: str,
                   count: int = 1) -> None:
        """``count`` tuples were put on the remote channel ``proc -> dst``.

        Batched call sites pass ``count > 1`` instead of looping; the
        event then carries a ``count`` payload and reports/aggregates
        weight by it.  ``count == 1`` emits the historical payload
        unchanged, so single-tuple streams stay byte-identical.
        """
        if count == 1:
            self.emit(TUPLE_SENT, proc=proc, dst=dst, pred=pred)
        else:
            self.emit(TUPLE_SENT, proc=proc, dst=dst, pred=pred, count=count)

    def tuple_received(self, proc: str, src: str, pred: str,
                       count: int = 1) -> None:
        """``count`` tuples were taken off the channel ``src -> proc``."""
        if count == 1:
            self.emit(TUPLE_RECEIVED, proc=proc, src=src, pred=pred)
        else:
            self.emit(TUPLE_RECEIVED, proc=proc, src=src, pred=pred,
                      count=count)

    def tuple_dropped(self, proc: str, pred: str, count: int = 1) -> None:
        """``count`` received tuples were discarded as duplicates."""
        if count == 1:
            self.emit(TUPLE_DROPPED, proc=proc, pred=pred)
        else:
            self.emit(TUPLE_DROPPED, proc=proc, pred=pred, count=count)

    def probe(self, proc: Optional[str] = None, **data: object) -> None:
        """A termination-detection control message (token hop / wave)."""
        self.emit(PROBE, proc=proc, **data)

    def worker_spawn(self, proc: str) -> None:
        """A processor's executor came up."""
        self.emit(WORKER_SPAWN, proc=proc)

    def worker_exit(self, proc: str, **data: object) -> None:
        """A processor's executor finished; payload carries its counters."""
        self.emit(WORKER_EXIT, proc=proc, **data)

    def worker_down(self, proc: str, **data: object) -> None:
        """A processor's executor was found dead (crash or injected kill)."""
        self.emit(WORKER_DOWN, proc=proc, **data)

    def worker_restart(self, proc: str, **data: object) -> None:
        """A dead processor was restarted from its base fragment."""
        self.emit(WORKER_RESTART, proc=proc, **data)

    def replay(self, proc: str, dst: str, count: int) -> None:
        """``proc`` re-sent its logged tuples to a restarted ``dst``."""
        self.emit(REPLAY, proc=proc, dst=dst, count=count)

    def checkpoint(self, proc: str, facts: int, nbytes: int,
                   epoch: int) -> None:
        """``proc`` shipped a checkpoint (``facts`` tuples, approx
        ``nbytes`` under the deterministic size model) to the
        coordinator's slot for it."""
        self.emit(CHECKPOINT, proc=proc, facts=facts, nbytes=nbytes,
                  epoch=epoch)

    def restore(self, proc: str, facts: int, epoch: int) -> None:
        """A restarted ``proc`` resumed from its last checkpoint instead
        of its base fragment."""
        self.emit(RESTORE, proc=proc, facts=facts, epoch=epoch)

    def log_truncate(self, proc: str, dst: str, count: int) -> None:
        """``proc`` dropped ``count`` acknowledged facts from its
        sent-log for ``dst`` (they are covered by ``dst``'s checkpoint
        watermark and will never need replaying)."""
        self.emit(LOG_TRUNCATE, proc=proc, dst=dst, count=count)


class NullTracer(Tracer):
    """The zero-overhead default: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:  # no sink, no clock
        self.sink = None  # type: ignore[assignment]
        self.clock = None
        self.current_round = None

    def emit(self, kind: str, proc: Optional[str] = None,
             round: Optional[int] = None, **data: object) -> None:
        pass

    def ingest(self, payload: Mapping[str, object]) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Normalise an optional tracer argument to a usable tracer."""
    return tracer if tracer is not None else NULL_TRACER
