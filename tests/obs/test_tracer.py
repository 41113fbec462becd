"""Unit tests for the tracer API and its typed events."""

import time

from repro.obs import (
    NULL_TRACER,
    PROBE,
    ROUND_END,
    ROUND_START,
    RULE_FIRED,
    RUN_START,
    TUPLE_DROPPED,
    TUPLE_RECEIVED,
    TUPLE_SENT,
    InMemorySink,
    NullTracer,
    TraceEvent,
    Tracer,
    WORKER_EXIT,
    WORKER_SPAWN,
    ensure_tracer,
)


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer(InMemorySink()).enabled is True

    def test_all_operations_are_noops(self):
        tracer = NullTracer()
        tracer.run_start("s", ["0"], "simulator")
        tracer.round_start(1)
        tracer.rule_fired("0", "r", (1, 2))
        tracer.tuple_sent("0", "1", "anc")
        tracer.tuple_received("1", "0", "anc")
        tracer.tuple_dropped("1", "anc")
        tracer.probe("0")
        tracer.worker_spawn("0")
        tracer.worker_exit("0")
        tracer.close()  # no sink to close, still fine

    def test_ensure_tracer(self):
        assert ensure_tracer(None) is NULL_TRACER
        tracer = Tracer(InMemorySink())
        assert ensure_tracer(tracer) is tracer


class TestTypedEvents:
    def test_each_helper_emits_its_kind(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        tracer.run_start("example3", ["0", "1"], "simulator")
        tracer.worker_spawn("0")
        tracer.round_start(1)
        tracer.rule_fired("0", "anc :- par", (1, 2))
        tracer.tuple_sent("0", "1", "anc")
        tracer.tuple_received("1", "0", "anc")
        tracer.tuple_dropped("1", "anc")
        tracer.probe(hops=3)
        tracer.round_end(1, work={"0": 2.0})
        tracer.worker_exit("0", firings=1)
        kinds = [event.kind for event in sink.events]
        assert kinds == [RUN_START, WORKER_SPAWN, ROUND_START, RULE_FIRED,
                         TUPLE_SENT, TUPLE_RECEIVED, TUPLE_DROPPED, PROBE,
                         ROUND_END, WORKER_EXIT]

    def test_round_defaults_to_current_round(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        tracer.rule_fired("0", "r")
        tracer.round_start(7)
        tracer.rule_fired("0", "r")
        assert sink.events[0].round is None
        assert sink.events[2].round == 7

    def test_no_clock_means_no_timestamps(self):
        sink = InMemorySink()
        tracer = Tracer(sink)  # deterministic mode
        tracer.rule_fired("0", "r", (1,))
        assert sink.events[0].ts is None

    def test_clock_stamps_events(self):
        sink = InMemorySink()
        tracer = Tracer(sink, clock=time.monotonic)
        tracer.rule_fired("0", "r")
        assert isinstance(sink.events[0].ts, float)

    def test_fact_payload_is_listified(self):
        sink = InMemorySink()
        Tracer(sink).rule_fired("0", "r", (1, "a"))
        assert sink.events[0].data["fact"] == [1, "a"]

    def test_ingest_round_trips_flat_dicts(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        payload = {"kind": RULE_FIRED, "proc": "2", "round": 3, "rule": "r"}
        tracer.ingest(payload)
        event = sink.events[0]
        assert (event.kind, event.proc, event.round) == (RULE_FIRED, "2", 3)
        assert event.data == {"rule": "r"}


class TestTraceEvent:
    def test_to_dict_omits_none_fields(self):
        flat = TraceEvent(kind=RULE_FIRED, proc="0", data={"rule": "r"}).to_dict()
        assert flat == {"kind": RULE_FIRED, "proc": "0", "rule": "r"}

    def test_from_dict_inverts_to_dict(self):
        event = TraceEvent(kind=TUPLE_SENT, proc="0", round=2,
                           data={"dst": "1", "pred": "anc"}, ts=1.5)
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_payload_cannot_shadow_reserved_keys(self):
        sink = InMemorySink()
        Tracer(sink).emit(RULE_FIRED, proc="0", kind_detail="x")
        flat = sink.events[0].to_dict()
        assert flat["kind"] == RULE_FIRED
        assert flat["kind_detail"] == "x"
