"""The resident: the processor the mp coordinator steps itself.

``run_multiprocessing`` forks ``n − 1`` workers and steps processor 0
in its own loop, one step between two ticks.  These cases pin what that
changes: no fork at all at ``n = 1``, a long resident step that does
not make a peer's ack late, and a kill fault that names the resident,
which retires it for a forked replacement or fails the run.  A crash
inside it is reported as a worker's
(``test_mp_internals.py::TestCrashHandling``).
"""

import multiprocessing

import pytest

from repro.engine import evaluate
from repro.errors import ExecutionError
from repro.parallel import build_fault_plan, example3_scheme
from repro.parallel.mp import run_multiprocessing
from repro.parallel.processor import ProcessorRuntime


def _exact(result, program, database):
    return (result.relation("anc").as_set()
            == evaluate(program, database).relation("anc").as_set())


class TestOneProcessor:
    def test_nothing_forks(self, ancestor, tree_db, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process",
                            refuse)
        result = run_multiprocessing(example3_scheme(ancestor, (0,)),
                                     tree_db, timeout=60)
        assert _exact(result, ancestor, tree_db)
        assert result.restarts == 0
        assert result.stats[0].cpu_s > 0.0


@pytest.mark.mp
class TestLiveness:
    def test_resident_step_longer_than_the_ack_deadline(
            self, ancestor, tree_db, monkeypatch):
        """Two resident steps each outlast the 0.2 s ack deadline while
        a wave is out; the peer acks during them, and the coordinator
        reads those acks before it judges the deadline."""
        import time

        step_batches = ProcessorRuntime.step_batches
        steps = []

        def slow_on_the_resident(runtime):
            if runtime.program.processor == 0:
                steps.append(None)
                if len(steps) in (2, 3):
                    time.sleep(0.4)
            return step_batches(runtime)

        monkeypatch.setattr(ProcessorRuntime, "step_batches",
                            slow_on_the_resident)
        result = run_multiprocessing(example3_scheme(ancestor, (0, 1)),
                                     tree_db, ack_timeout=0.2, timeout=60)
        assert _exact(result, ancestor, tree_db)
        assert len(steps) >= 3
        assert result.stats[0].longest_step_s > 0.2


@pytest.mark.mp
@pytest.mark.faultinjection
class TestResidentKill:
    @pytest.mark.parametrize("processors", [(0,), (0, 1, 2)],
                             ids=["n1", "n3"])
    @pytest.mark.parametrize("recovery", ["restart", "checkpoint"])
    def test_replaced_by_a_forked_worker(self, ancestor, tree_db,
                                         recovery, processors):
        result = run_multiprocessing(
            example3_scheme(ancestor, processors), tree_db,
            faults=build_fault_plan(["kill:0@10"]), recovery=recovery,
            checkpoint_interval=1, timeout=60)
        assert _exact(result, ancestor, tree_db)
        assert result.restarts == 1

    def test_fail_names_the_resident(self, ancestor, tree_db):
        with pytest.raises(ExecutionError) as info:
            run_multiprocessing(example3_scheme(ancestor, (0, 1, 2)),
                                tree_db, faults=build_fault_plan(["kill:0@3"]),
                                recovery="fail", timeout=60)
        message = str(info.value)
        assert "'0' (exit code -9)" in message
        assert "recovery policy is 'fail'" in message

