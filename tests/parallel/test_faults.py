"""Tests for the fault-injection harness (`repro.parallel.faults`)."""

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.parallel.faults import (
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    ChannelFault,
    FaultPlan,
    KillFault,
    build_fault_plan,
    parse_fault_spec,
)


class TestParsing:
    def test_kill_spec(self):
        fault = parse_fault_spec("kill:p1@50")
        assert isinstance(fault, KillFault)
        assert fault.processor == "p1"
        assert fault.after_firings == 50

    def test_kill_numeric_tag(self):
        fault = parse_fault_spec("kill:1@3")
        assert fault.processor == "1"
        assert fault.after_firings == 3

    def test_channel_specs(self):
        for action, name in ((DROP, "drop"), (DELAY, "delay"),
                             (DUPLICATE, "dup")):
            fault = parse_fault_spec(f"{name}:0.25")
            assert isinstance(fault, ChannelFault)
            assert fault.action == action
            assert fault.probability == 0.25
            assert fault.src is None and fault.dst is None

    def test_channel_spec_with_endpoints(self):
        fault = parse_fault_spec("drop:0.5@p0->p2")
        assert fault.src == "p0" and fault.dst == "p2"
        assert fault.applies("p0", "p2")
        assert not fault.applies("p0", "p1")
        assert not fault.applies("p2", "p0")

    def test_wildcard_endpoints(self):
        fault = parse_fault_spec("delay:0.1@*->p1")
        assert fault.applies("anything", "p1")
        assert not fault.applies("anything", "p2")

    @pytest.mark.parametrize("bad", [
        "", "kill", "kill:p1", "kill:p1@", "kill:p1@x", "kill:@5",
        "drop", "drop:", "drop:2.0", "drop:-0.1", "drop:x",
        "dup:0.5@p0", "explode:p1@3",
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ReproError):
            parse_fault_spec(bad)

    def test_duplicate_kill_tags_rejected(self):
        with pytest.raises(ReproError):
            build_fault_plan(["kill:p1@5", "kill:p1@9"])


class TestFaultPlan:
    def test_kill_thresholds(self):
        plan = build_fault_plan(["kill:p1@5"])
        assert plan.kill_thresholds({0: "p0", 1: "p1"}) == {1: 5}

    def test_kill_naming_no_processor_is_a_configuration_error(self):
        plan = build_fault_plan(["kill:p1@5", "kill:nosuch@3"])
        with pytest.raises(ConfigurationError, match="'nosuch'"):
            plan.kill_thresholds({0: "p0", 1: "p1"})

    def test_bool(self):
        assert not FaultPlan()
        assert build_fault_plan(["dup:0.1"])

    def test_empty_specs(self):
        assert build_fault_plan([]) == FaultPlan()


class TestChannelFaultState:
    def test_deterministic_per_seed(self):
        a_state = build_fault_plan(["drop:0.5"], seed=7).channel_state()
        a = [a_state.decide("p0", "p1") for _ in range(50)]
        b_state = build_fault_plan(["drop:0.5"], seed=7).channel_state()
        b = [b_state.decide("p0", "p1") for _ in range(50)]
        assert a == b
        assert DROP in a and DELIVER in a

    def test_different_seeds_differ(self):
        seq_a = build_fault_plan(["drop:0.5"], seed=1).channel_state()
        seq_b = build_fault_plan(["drop:0.5"], seed=2).channel_state()
        assert ([seq_a.decide("p0", "p1") for _ in range(100)]
                != [seq_b.decide("p0", "p1") for _ in range(100)])

    def test_zero_probability_always_delivers(self):
        state = build_fault_plan(["drop:0.0"]).channel_state()
        assert all(state.decide("a", "b") == DELIVER for _ in range(20))

    def test_certain_fault_always_fires(self):
        state = build_fault_plan(["dup:1.0"]).channel_state()
        assert all(state.decide("a", "b") == DUPLICATE for _ in range(20))
        assert state.duplicated == 20

    def test_scoped_fault_ignores_other_channels(self):
        state = build_fault_plan(["drop:1.0@p0->p1"]).channel_state()
        assert state.decide("p0", "p1") == DROP
        assert state.decide("p1", "p0") == DELIVER
        assert state.decide("p0", "p2") == DELIVER
        assert state.dropped == 1
