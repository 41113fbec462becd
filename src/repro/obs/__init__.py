"""Structured tracing and observability.

The paper's claims are counts — firings per processor (Definition 1),
tuples per channel (Section 5) — and :mod:`repro.parallel.metrics`
aggregates them at the end of a run.  This package records *when* the
work happened: a :class:`Tracer` emits typed :class:`TraceEvent`\\ s
(round boundaries, rule firings, channel traffic, termination probes,
worker lifetimes) into pluggable sinks, and :class:`TraceReport`
replays an event stream back into per-processor timelines, per-round
histograms, channel heatmaps and a cost-model makespan breakdown.

The default everywhere is :data:`NULL_TRACER`, whose operations are
no-ops guarded by a single ``enabled`` attribute check — untraced runs
pay nothing.  The simulator traces without timestamps, so equal seeds
yield byte-identical JSONL streams; the multiprocessing executor
timestamps events and streams worker-side batches back over its
existing channel protocol.
"""

from .events import (
    CHECKPOINT,
    EVENT_KINDS,
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
from .report import TraceReport, load_trace
from .sinks import (
    AggregateSink,
    InMemorySink,
    JsonlSink,
    TraceSink,
    event_to_json,
    read_jsonl,
)
from .tracer import NULL_TRACER, NullTracer, Tracer, ensure_tracer

__all__ = [
    "AggregateSink",
    "CHECKPOINT",
    "EVENT_KINDS",
    "InMemorySink",
    "JsonlSink",
    "LOG_TRUNCATE",
    "NULL_TRACER",
    "NullTracer",
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
    "TraceReport",
    "TraceSink",
    "Tracer",
    "WORKER_DOWN",
    "WORKER_EXIT",
    "WORKER_RESTART",
    "WORKER_SPAWN",
    "ensure_tracer",
    "event_to_json",
    "load_trace",
    "read_jsonl",
]
