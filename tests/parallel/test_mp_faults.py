"""Fault injection against the real multiprocessing executor.

These tests SIGKILL genuine worker processes mid-run and check the two
halves of the fault-tolerance contract:

* ``recovery="fail"`` — the coordinator's liveness probing notices the
  death within a couple of probe intervals and raises a precise
  :class:`~repro.errors.ExecutionError` naming the dead worker, instead
  of hanging until the global timeout (the regression this suite
  guards: a silent SIGKILL used to block the run for the full
  deadline).
* ``recovery="restart"`` — the worker is restarted from its base
  fragment, peers replay their sent-logs, and the final answer is
  *identical* to an undisturbed sequential evaluation (Theorem 1 under
  failure).

Kills are the only fault the executor injects; a plan with channel
faults is rejected up front.
"""

import multiprocessing
import time

import pytest

from repro.engine import evaluate
from repro.errors import ConfigurationError, ExecutionError
from repro.obs import REPLAY, WORKER_DOWN, WORKER_RESTART, InMemorySink, Tracer
from repro.parallel import (
    build_fault_plan,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    wolfson_scheme,
)
from repro.parallel.mp import run_multiprocessing


@pytest.mark.mp
@pytest.mark.faultinjection
class TestFailFast:
    def test_sigkill_raises_quickly_naming_worker(self, ancestor, tree_db):
        """Regression: a SIGKILLed worker must fail the run fast.

        Before liveness detection the coordinator blocked on acks until
        the global timeout; now the death is noticed within a couple of
        probe intervals, far under the 5 s acceptance bound.
        """
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@3"])
        started = time.monotonic()
        with pytest.raises(ExecutionError) as excinfo:
            run_multiprocessing(program, tree_db, faults=plan,
                                recovery="fail", timeout=60)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"fail-fast took {elapsed:.1f}s"
        assert "'1'" in str(excinfo.value)
        assert "-9" in str(excinfo.value)  # SIGKILL exit code

    def test_unknown_kill_tag_rejected(self, ancestor, tree_db):
        """The same configuration error as the simulator's, raised
        before any worker is forked."""
        program = example3_scheme(ancestor, (0, 1))
        plan = build_fault_plan(["kill:nosuch@3"])
        # Workers an earlier test terminated may not be reaped yet.
        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="'nosuch'"):
            run_multiprocessing(program, tree_db, faults=plan, timeout=60)
        assert set(multiprocessing.active_children()) <= before

    def test_max_restarts_exhausted(self, ancestor, tree_db):
        """With max_restarts=0 even the restart policy fails fast."""
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@3"])
        with pytest.raises(ExecutionError):
            run_multiprocessing(program, tree_db, faults=plan,
                                recovery="restart", max_restarts=0,
                                timeout=60)


@pytest.mark.mp
@pytest.mark.faultinjection
class TestRecovery:
    def test_restart_matches_sequential(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@10"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="restart", timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.restarts == 1

    def test_restart_two_workers(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:0@5", "kill:2@15"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="restart", timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.restarts == 2

    @pytest.mark.parametrize("kill_at", [1, 5, 25, 60])
    def test_theorem1_under_failure_any_kill_point(self, ancestor, tree_db,
                                                   kill_at):
        """Property: exactness holds wherever the kill lands.

        A sweep over kill points (from 'before anything was sent' to
        'nearly quiescent') — recovered output must equal semi-naive
        exactly every time.
        """
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan([f"kill:1@{kill_at}"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="restart", timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    @pytest.mark.parametrize("scheme", ["example2", "hash", "wolfson"])
    def test_theorem1_under_failure_across_schemes(self, ancestor, tree_db,
                                                   scheme):
        if scheme == "example2":
            program = example2_scheme(ancestor, (0, 1, 2), tree_db)
        elif scheme == "hash":
            program = hash_scheme(ancestor, (0, 1, 2))
        else:
            program = wolfson_scheme(ancestor, (0, 1))
        from repro.parallel.naming import processor_tag
        victim = processor_tag(program.processors[-1])
        plan = build_fault_plan([f"kill:{victim}@8"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="restart", timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_kill_before_any_firing(self, ancestor, tree_db):
        """kill:@0 dies immediately after initialization routing."""
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:2@0"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="restart", timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())


@pytest.mark.faultinjection
class TestChannelFaultsRejected:
    """Channel faults are a simulator model: the mp executor's channels
    are reliable, so it refuses the plan before spawning anything."""

    @pytest.mark.parametrize("spec", ["drop:0.2", "delay:0.2", "dup:0.2"])
    def test_rejected_before_any_spawn(self, ancestor, tree_db, spec):
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@10", spec])
        with pytest.raises(ConfigurationError, match="simulator model"):
            run_multiprocessing(program, tree_db, faults=plan,
                                recovery="restart", timeout=60)
        assert multiprocessing.active_children() == []


@pytest.mark.mp
@pytest.mark.faultinjection
class TestFaultTracing:
    def test_recovery_events_reach_trace(self, ancestor, tree_db):
        sink = InMemorySink()
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@40"])
        run_multiprocessing(program, tree_db, faults=plan,
                            recovery="restart", tracer=Tracer(sink),
                            timeout=60)
        kinds = {event.kind for event in sink.events}
        assert WORKER_DOWN in kinds
        assert WORKER_RESTART in kinds
        # A kill this late happens after peers have sent to the victim,
        # so at least one survivor replays its log.
        assert REPLAY in kinds

    def test_report_renders_fault_section(self, ancestor, tree_db):
        from repro.obs.report import TraceReport
        sink = InMemorySink()
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@10"])
        run_multiprocessing(program, tree_db, faults=plan,
                            recovery="restart", tracer=Tracer(sink),
                            timeout=60)
        text = TraceReport(sink.events).render()
        assert "failures and recovery:" in text
        assert "DOWN" in text and "RESTART" in text
