"""Tests for multiprocessing internals: protocol, stats, crash handling."""

import dataclasses

import pytest

from repro.errors import ExecutionError
from repro.parallel import example3_scheme
from repro.parallel.mp import WorkerStats, run_multiprocessing
from repro.workloads import ancestor_program


class TestWorkerStats:
    def test_total_sent(self):
        stats = WorkerStats()
        stats.sent_by_target = {1: 5, 2: 3}
        assert stats.total_sent() == 8

    def test_defaults(self):
        stats = WorkerStats()
        assert stats.firings == 0
        assert stats.received == 0
        assert stats.total_sent() == 0


@pytest.mark.mp
class TestCrashHandling:
    @pytest.mark.parametrize("victim", [0, 1], ids=["resident", "forked"])
    def test_crash_names_the_worker(self, chain_db, victim):
        """An exception inside a processor's machine, the resident's or
        a forked worker's, reaches the caller as a crash naming it."""
        from repro.datalog import Atom, Rule, Variable
        from repro.parallel.naming import out_name

        parallel = example3_scheme(ancestor_program(), (0, 1))
        # The victim's init rule reads a relation that no fragment spec
        # provides, so its machine crashes at start-up.
        X, Y = Variable("X"), Variable("Y")
        broken_rule = Rule(Atom(out_name("anc"), (X, Y)),
                           (Atom("nowhere", (X, Y)),))
        parallel.programs[victim] = dataclasses.replace(
            parallel.programs[victim], init_rules=(broken_rule,))
        with pytest.raises(ExecutionError) as info:
            run_multiprocessing(parallel, chain_db, timeout=30)
        assert f"worker '{victim}' crashed" in str(info.value)

    def test_timeout_raises(self, chain_db):
        parallel = example3_scheme(ancestor_program(), (0, 1))
        with pytest.raises(ExecutionError):
            run_multiprocessing(parallel, chain_db, timeout=0.000001)


class TestForkOnly:
    def test_platform_without_fork_is_refused_before_any_process(
            self, chain_db, monkeypatch):
        """Workers are forks of runtimes the coordinator built; where
        there is no ``fork`` the run is refused up front."""
        import multiprocessing

        from repro.errors import ConfigurationError

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        parallel = example3_scheme(ancestor_program(), (0, 1))
        # Workers an earlier test terminated may not be reaped yet.
        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="'fork'"):
            run_multiprocessing(parallel, chain_db, timeout=30)
        assert set(multiprocessing.active_children()) <= before


class _StubMachine:
    """A machine that follows ``script`` instead of evaluating anything.

    ``script(wave)`` returns the ``(sent, received, activity, pending)``
    to ack probe ``wave`` with, or None to stop answering: a wedge,
    which in a forked worker stays alive and blocked on its inbox.
    STOP is ignored on purpose.
    """

    def __init__(self, runtime, _clock, _peers, *, script, **_options):
        from repro.parallel.mp.protocol import WorkerStats

        self.me = runtime.program.processor
        self.stats = WorkerStats()
        self.busy = self.stopped = self.dying = False
        self._script = script
        self._wave = 0
        self._wedged = False

    def start(self):
        return []

    def step(self):
        return []

    def on_message(self, message):
        from repro.parallel.mp.machines import COORDINATOR
        from repro.parallel.mp.protocol import ACK, PROBE

        if self._wedged or message[0] != PROBE:
            return []
        self._wave += 1
        reply = self._script(self._wave)
        if reply is None:
            self._wedged = True
            return []
        sent, received, activity, pending = reply
        return [(COORDINATOR, (ACK, self.me, message[1], sent, received,
                               activity, 0, pending))]


@pytest.mark.mp
class TestDeadlineStateDump:
    """Every deadline error says where the protocol stood (ROADMAP 6c).

    Every processor runs a scripted machine, the resident in the
    coordinator's process and the others in forked workers, so each
    scenario is exact.
    """

    @pytest.fixture
    def run_with(self, monkeypatch, chain_db):
        import functools
        import multiprocessing

        from repro.parallel.mp import runner

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("stub machines need the fork start method")

        def run(script, **options):
            monkeypatch.setattr(runner, "WorkerMachine", functools.partial(
                _StubMachine, script=script))
            parallel = example3_scheme(ancestor_program(), (0, 1))
            with pytest.raises(ExecutionError) as info:
                run_multiprocessing(parallel, chain_db, probe_interval=0.01,
                                    **options)
            return str(info.value)
        return run

    def test_wedged_worker_error_carries_last_acks(self, run_with):
        # Both ack wave 1; from wave 2 on nobody answers.
        message = run_with(
            lambda wave: (7, 5, 12, True) if wave == 1 else None,
            ack_timeout=0.3, timeout=30)
        assert "did not ack probe 2" in message
        assert "state at expiry: epoch 0, probe wave 2" in message
        for tag in ("'0'", "'1'"):
            assert (f"{tag} acked wave 1 (epoch 0): sent=7 received=5 "
                    "activity=12 pending=True") in message

    def test_never_acked_is_said_so(self, run_with):
        message = run_with(lambda wave: None, ack_timeout=0.3, timeout=30)
        assert "did not ack probe 1" in message
        assert "'0' never acked; '1' never acked" in message

    def test_no_quiescence_error_carries_the_imbalance(self, run_with):
        # Static activity but sent != received: tuples forever in flight.
        message = run_with(lambda wave: (4, 3, 9, False), timeout=0.5)
        assert "no quiescence within 0.5 seconds" in message
        assert "state at expiry: epoch 0, probe wave " in message
        assert "sent=4 received=3 activity=9 pending=False" in message

    def test_pending_alone_blocks_quiescence(self, run_with):
        # Balanced and unchanged on every wave, but each worker still
        # holds staged input: without the ``pending`` conjunct the
        # second wave would end the run and lose that input.
        message = run_with(lambda wave: (0, 0, 5, True), timeout=0.5)
        assert "no quiescence within 0.5 seconds" in message
        assert "sent=0 received=0 activity=5 pending=True" in message

    def test_missing_result_error_names_the_silent_workers(self, run_with):
        # Quiescent at once, but the stubs never send RESULT.
        message = run_with(lambda wave: (0, 0, 0, False), timeout=0.5)
        assert "workers did not report within 0.5 seconds" in message
        assert "no result from '0', '1'" in message
        assert "acked wave 2 (epoch 0): sent=0 received=0" in message


class _MortalMachine:
    """A machine that evaluates nothing but answers like an idle one,
    and whose first incarnation dies on reading the message kind
    ``dies_on[processor]``.

    It acks every probe in its current epoch, follows ``reset``s and
    reports an empty result on ``stop``.  Machines of the first
    incarnation start in epoch 0; restarts start later and never die.
    A death is the kill-fault flag a real machine sets.
    """

    def __init__(self, runtime, _clock, _peers, *, epoch=0, dies_on,
                 **_options):
        from repro.parallel.mp.protocol import WorkerStats

        self.me = runtime.program.processor
        self.stats = WorkerStats()
        self.busy = self.stopped = self.dying = False
        self._epoch = epoch
        self._mortal = epoch == 0
        self._dies_on = dies_on

    def start(self):
        return []

    def step(self):
        return []

    def on_message(self, message):
        from repro.parallel.mp.machines import COORDINATOR
        from repro.parallel.mp.protocol import (
            ACK,
            PROBE,
            RESET,
            RESULT,
            STOP,
        )

        kind = message[0]
        if self._mortal and kind == self._dies_on.get(self.me):
            self.dying = True
            return []
        if kind == RESET:
            self._epoch = max(self._epoch, message[1])
        elif kind == PROBE:
            return [(COORDINATOR, (ACK, self.me, message[1], 0, 0, 0,
                                   self._epoch, False))]
        elif kind == STOP:
            self.stopped = True
            return [(COORDINATOR, (RESULT, self.me, {}, self.stats))]
        return []


@pytest.mark.mp
@pytest.mark.faultinjection
class TestCascadingFailureByConstruction:
    def test_death_on_reset_is_a_cascading_failure(self, monkeypatch,
                                                   chain_db):
        """Worker 0 dies at the first probe wave.  Worker 1 dies when it
        reads the ``reset`` of that recovery, which the coordinator puts
        before the next wave's probes, so worker 1's death is detected
        while the first recovery is still pending: a cascading failure,
        whatever the timing."""
        import functools
        import multiprocessing

        from repro.obs import WORKER_DOWN, InMemorySink, Tracer
        from repro.parallel.mp import runner
        from repro.parallel.mp.protocol import PROBE, RESET

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("stub machines need the fork start method")
        monkeypatch.setattr(runner, "WorkerMachine", functools.partial(
            _MortalMachine, dies_on={0: PROBE, 1: RESET}))
        sink = InMemorySink()
        result = run_multiprocessing(
            example3_scheme(ancestor_program(), (0, 1)), chain_db,
            recovery="restart", tracer=Tracer(sink), probe_interval=0.01,
            timeout=30)
        assert result.restarts == 2
        downs = [(event.proc, event.data["cascading"])
                 for event in sink.events if event.kind == WORKER_DOWN]
        assert downs == [("0", False), ("1", True)]
