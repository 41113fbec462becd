"""Stale-synchronous execution on the multiprocessing executor.

Two layers.  The ``mp``-marked tests spawn real worker processes and
check that ``sync="ssp"`` never changes the pooled answer — alone,
under channel faults, and under kill + restart recovery.  Real mp runs
are too fast and too racy to pin *throttling* behaviour, so the
enforcement test drives :func:`~repro.parallel.mp.worker.worker_main`
in-process instead: a thread, plain ``queue.Queue`` objects, and
fabricated ``(probe, seq, horizon)`` messages.  The worker trusts
whatever horizon the coordinator broadcasts, which makes the bound
deterministic to test: feed a horizon, watch the clock stop at
``horizon + staleness``.
"""

import queue
import threading
import time

import pytest

from repro.engine import evaluate
from repro.errors import ExecutionError
from repro.facts import Database
from repro.facts.packing import ensure_facts
from repro.parallel import (
    build_fault_plan,
    example3_scheme,
    hash_scheme,
    rewrite_general,
)
from repro.parallel.mp import run_multiprocessing
from repro.parallel.mp.protocol import ACK, DATA, PROBE, RESET, RESULT, STOP
from repro.parallel.mp.runner import _picklable_local
from repro.parallel.mp.worker import worker_main
from repro.workloads import (
    ancestor_program,
    random_dag_edges,
    same_generation_database,
    same_generation_program,
)


class TestValidation:
    def test_unknown_sync_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="unknown sync mode"):
            run_multiprocessing(program, chain_db, sync="async")

    def test_zero_staleness_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="staleness >= 1"):
            run_multiprocessing(program, chain_db, sync="ssp", staleness=0)


@pytest.mark.mp
class TestMpSSPAnswers:
    def test_matches_sequential_on_dag(self, ancestor):
        database = Database.from_facts(
            {"par": random_dag_edges(40, parents=2, seed=5)})
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_multiprocessing(program, database, timeout=60,
                                     sync="ssp", staleness=2)
        expected = evaluate(ancestor, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.metrics.sync == "ssp"
        assert result.metrics.staleness == 2
        assert result.metrics.summary()["sync"] == "ssp(2)"

    def test_tight_bound_same_generation(self):
        program = same_generation_program()
        database = same_generation_database(pairs=3, depth=2, seed=5)
        parallel = rewrite_general(program, (0, 1))
        result = run_multiprocessing(parallel, database, timeout=60,
                                     sync="ssp", staleness=1)
        expected = evaluate(program, database)
        assert (result.relation("sg").as_set()
                == expected.relation("sg").as_set())

    def test_legacy_mode_reports_bsp(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        result = run_multiprocessing(program, chain_db, timeout=60)
        assert result.metrics.sync == "bsp"
        assert result.metrics.staleness is None


@pytest.mark.mp
@pytest.mark.faultinjection
class TestMpSSPUnderFaults:
    def test_exact_under_kill_restart(self, ancestor, tree_db):
        program = hash_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@10"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="restart", timeout=60,
                                     sync="ssp", staleness=2)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.metrics.restarts == 1

    def test_exact_under_channel_faults(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["dup:0.3", "delay:0.3"], seed=7)
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     timeout=60, sync="ssp", staleness=2)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())


class _InProcessWorker:
    """Drive ``worker_main`` in a thread over plain ``queue.Queue``s.

    Single-processor programs route every derivation to themselves, so
    the worker holds pending input for as many semi-naive steps as the
    recursion is deep — long enough to observe throttling — without any
    real peer or process machinery.
    """

    def __init__(self, parallel, database, sync="ssp", staleness=1):
        proc = parallel.processors[0]
        self.inbox = queue.Queue()
        self.coordinator = queue.Queue()
        self.thread = threading.Thread(
            target=worker_main,
            args=(parallel.program_for(proc),
                  _picklable_local(parallel, proc, database),
                  self.inbox, {proc: self.inbox}, self.coordinator,
                  False, None, 0, sync, staleness),
            daemon=True)

    def start(self):
        self.thread.start()

    def probe(self, seq, horizon):
        self.inbox.put((PROBE, seq, horizon))

    def next_ack(self, timeout=10.0):
        while True:
            message = self.coordinator.get(timeout=timeout)
            if message[0] == ACK:
                return message

    def stop(self, timeout=10.0):
        self.inbox.put((STOP,))
        while True:
            message = self.coordinator.get(timeout=timeout)
            if message[0] == RESULT:
                self.thread.join(timeout=timeout)
                return message


class TestThrottleEnforcement:
    def _chain_setup(self, length=24):
        program = ancestor_program()
        database = Database.from_facts(
            {"par": [(i, i + 1) for i in range(length)]})
        parallel = hash_scheme(program, (0,))
        return program, database, parallel

    @pytest.mark.parametrize("staleness", [1, 3])
    def test_clock_never_exceeds_horizon_plus_staleness(self, staleness):
        program, database, parallel = self._chain_setup()
        worker = _InProcessWorker(parallel, database, staleness=staleness)
        # Horizon 0 is in the inbox before the first step burst, so the
        # bound applies from the very first probe wave.
        worker.probe(1, 0)
        worker.start()
        horizon = 0
        seq = 1
        final_stats = None
        for _ in range(200):
            ack = worker.next_ack()
            _, _proc, _seq, _sent, _recv, _activity, _epoch, clock, pending \
                = ack
            assert clock <= horizon + staleness, (
                f"clock {clock} ran past horizon {horizon} + "
                f"staleness {staleness}")
            if not pending:
                message = worker.stop()
                final_stats = message[3]
                break
            # Play coordinator: this worker is the only pending one, so
            # the horizon is its own clock.
            horizon = clock
            seq += 1
            worker.probe(seq, horizon)
        else:
            pytest.fail("worker never drained its pending input")
        # The bound must have bitten: a 24-step recursion probed one
        # step at a time cannot finish without throttling.
        assert final_stats.throttle_waits >= 1
        assert final_stats.max_lag <= staleness

    def test_result_exact_despite_throttling(self):
        program, database, parallel = self._chain_setup()
        worker = _InProcessWorker(parallel, database, staleness=1)
        worker.probe(1, 0)
        worker.start()
        horizon = 0
        seq = 1
        for _ in range(200):
            ack = worker.next_ack()
            clock, pending = ack[7], ack[8]
            if not pending:
                break
            horizon = clock
            seq += 1
            worker.probe(seq, horizon)
        else:
            pytest.fail("worker never drained its pending input")
        message = worker.stop()
        outputs = message[2]
        expected = evaluate(program, database)
        assert (set(ensure_facts(outputs["anc"]))
                == expected.relation("anc").as_set())

    def test_no_probe_means_free_running(self):
        """Before the first horizon arrives the worker runs unthrottled
        (the bound is enforced to within one probe wave)."""
        program, database, parallel = self._chain_setup()
        worker = _InProcessWorker(parallel, database, staleness=1)
        worker.start()
        # Probes carrying no horizon yet: the worker computes to
        # quiescence on its own.  The pause between waves lets it leave
        # the drain loop and step (a horizonless probe is not activity,
        # so back-to-back probes would pin it draining).
        for seq in range(1, 200):
            worker.probe(seq, None)
            ack = worker.next_ack()
            if not ack[8]:  # pending
                break
            time.sleep(0.01)
        else:
            pytest.fail("worker never drained its pending input")
        message = worker.stop()
        final_stats = message[3]
        assert final_stats.throttle_waits == 0
        expected = evaluate(program, database)
        assert (set(ensure_facts(message[2]["anc"]))
                == expected.relation("anc").as_set())


@pytest.mark.faultinjection
class TestEpochAdoption:
    def test_data_overtaking_its_reset_is_counted(self):
        """A newcomer's ``DATA(epoch+1)`` can reach a survivor before
        the coordinator's ``RESET(epoch+1)`` (two producers, one inbox).
        The survivor must adopt the epoch from the DATA and count it;
        skipping the count and then zeroing on the late RESET leaves
        ``sent > received`` for ever ("no quiescence within N
        seconds").  Inbox order is fabricated, so no sleeps or kills."""
        database = Database.from_facts({"par": [(0, 1)]})
        parallel = hash_scheme(ancestor_program(), (0,))
        worker = _InProcessWorker(parallel, database, sync="bsp")
        facts = [(10, 11), (11, 12), (12, 13)]
        worker.inbox.put((DATA, 1, [("anc", facts)], 1, (1, 1)))
        worker.inbox.put((RESET, 1))
        worker.probe(1, None)
        worker.start()
        _, _proc, seq, sent, received, _activity, epoch, _clock, _pending \
            = worker.next_ack()
        worker.stop()
        assert (seq, epoch) == (1, 1)
        assert sent == 0
        assert received == len(facts)
