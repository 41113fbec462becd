"""The cyclic collector sits out every fixpoint run.

``evaluate``, ``SimulatedCluster.run`` and ``run_multiprocessing`` each
run under :func:`repro.engine.collector.collector_paused`, and every mp
worker is forked inside the pause.  That is safe only because a run
builds no reference cycles: :class:`TestNoCycles` and
:class:`TestMultiprocessing` pin that no collection during a run, nor
``gc.collect()`` after it, frees anything.  Inside the pause each
executor collects the young generation at its round boundary
(:func:`repro.engine.collector.collect_young`), so
:class:`TestRoundBoundary` pins that every answer tuple is untracked by
the time the call returns, and :class:`TestMultiprocessing` that forked
mp workers never collect.  The rest pin that the pause is scoped: the
caller's collector state survives every return and every raise.
"""

import functools
import gc
import multiprocessing
import os

import pytest

from repro import evaluate
from repro.engine.collector import collector_paused
from repro.errors import ConfigurationError, EvaluationError, ExecutionError
from repro.facts import Database
from repro.obs import InMemorySink, Tracer
from repro.parallel import (
    build_fault_plan,
    example3_scheme,
    rewrite_general,
    run_parallel,
)
from repro.parallel.mp import run_multiprocessing
from repro.workloads import (
    ancestor_program,
    nonlinear_ancestor_program,
    random_dag_edges,
    random_tree_edges,
)

KILL = "kill:1@10"


def _tree():
    return Database.from_facts({"par": random_tree_edges(60, seed=7)})


def _dag():
    return Database.from_facts({"par": random_dag_edges(40, seed=3)})


def _tracer(traced):
    return Tracer(InMemorySink()) if traced else None


def _left_behind(run):
    """What every collection frees during ``run()``, run with the
    collector off, plus what ``gc.collect()`` frees after it.

    The run's own young collections would free a cycle built mid-run
    before the final one could see it, so ``gc.callbacks`` sums all of
    them.  The inputs are built before the call and outlive it — a
    scheme's discriminator memo is a cycle of the scheme's own, not of
    a run's.
    """
    collected = []

    def note(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.collect()
    gc.disable()
    gc.callbacks.append(note)
    try:
        run()
        gc.collect()
    finally:
        gc.callbacks.remove(note)
        gc.enable()
    return sum(collected)


@pytest.fixture
def collector_off():
    """A caller that paused the collector itself."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
class TestNoCycles:
    """One run leaves the collector nothing to free."""

    @pytest.mark.parametrize("method", ["seminaive", "naive"])
    @pytest.mark.parametrize("program", [ancestor_program,
                                         nonlinear_ancestor_program])
    def test_evaluate(self, traced, method, program):
        program, database, tracer = program(), _dag(), _tracer(traced)
        assert _left_behind(lambda: evaluate(
            program, database, method=method, tracer=tracer)) == 0

    @pytest.mark.parametrize("scheme", [
        lambda: example3_scheme(ancestor_program(), (0, 1, 2)),
        lambda: rewrite_general(nonlinear_ancestor_program(), (0, 1)),
    ], ids=["example3", "general"])
    def test_simulator(self, traced, scheme):
        scheme, database, tracer = scheme(), _dag(), _tracer(traced)
        assert _left_behind(lambda: run_parallel(
            scheme, database, tracer=tracer)) == 0


def _executors():
    """Each executor as a no-argument call on a small input."""
    program = ancestor_program()
    scheme = example3_scheme(program, (0, 1))
    return {
        "evaluate": lambda: evaluate(program, _tree()),
        "simulator": lambda: run_parallel(scheme, _tree()),
        "mp": lambda: run_multiprocessing(scheme, _tree(), timeout=60),
    }


def _raising_executors():
    """Each executor as a call that raises from inside its pause."""
    program = ancestor_program()
    scheme = example3_scheme(program, (0, 1, 2))
    return {
        "evaluate": (EvaluationError,
                     lambda: evaluate(program, _tree(), method="nosuch")),
        "simulator": (ExecutionError, lambda: run_parallel(
            scheme, _tree(), max_rounds=1)),
        "mp": (ConfigurationError, lambda: run_multiprocessing(
            scheme, _tree(), faults=build_fault_plan(["dup:0.5"]))),
    }


class TestRoundBoundary:
    """Each kept fact leaves the collector at its own round boundary."""

    @pytest.mark.parametrize("name", ["evaluate", "simulator", "mp"])
    def test_answer_untracked_on_return(self, collector_off, name):
        """Under a caller's pause no collection runs after the call, so
        only the executor's own young collections can have untracked
        the answer's tuples."""
        answer = list(_executors()[name]().relation("anc"))
        assert answer
        assert sum(map(gc.is_tracked, answer)) == 0


class TestPauseIsScoped:
    def test_nested_pauses_keep_the_outer_one(self):
        assert gc.isenabled()
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("name", ["evaluate", "simulator", "mp"])
    def test_enabled_after_return(self, name):
        assert gc.isenabled()
        _executors()[name]()
        assert gc.isenabled()

    @pytest.mark.parametrize("name", ["evaluate", "simulator", "mp"])
    def test_enabled_after_raise(self, name):
        error, call = _raising_executors()[name]
        assert gc.isenabled()
        with pytest.raises(error):
            call()
        assert gc.isenabled()

    @pytest.mark.parametrize("name", ["evaluate", "simulator", "mp"])
    def test_a_callers_pause_survives(self, collector_off, name):
        _executors()[name]()
        assert not gc.isenabled()
        error, call = _raising_executors()[name]
        with pytest.raises(error):
            call()
        assert not gc.isenabled()


def _reporting_machine(runtime, *arguments, report, machine, coordinator,
                       **options):
    """A real machine whose start reports ``("start", tag, epoch,
    collector on?)`` from the process that runs it.  In a forked worker
    it then reports ``("collect", tag, epoch, generation)`` for each
    collection the process starts; the resident runs in
    ``coordinator``, the coordinator's process, which collects after
    pooling each RESULT, so no collection is reported there."""
    built = machine(runtime, *arguments, **options)
    start, tag, epoch = built.start, runtime.tag, options.get("epoch", 0)

    def note(phase, info):
        if phase == "start":
            report.put(("collect", tag, epoch, info["generation"]))

    def reporting_start():
        if os.getpid() != coordinator:
            gc.callbacks.append(note)
        report.put(("start", tag, epoch, gc.isenabled()))
        return start()

    built.start = reporting_start
    return built


@pytest.mark.mp
@pytest.mark.faultinjection
class TestMultiprocessing:
    """The coordinator's run leaves no cycles, and its workers — first
    processes and restarts alike — run with the collector off; the
    forked ones never collect, and the resident is stepped under the
    coordinator's own pause."""

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("recovery", ["fail", "restart", "checkpoint"])
    def test_no_cycles(self, traced, recovery):
        scheme = example3_scheme(ancestor_program(), (0, 1, 2))
        database, plan, tracer = _tree(), build_fault_plan([KILL]), _tracer(
            traced)
        outcomes = []

        def run():
            try:
                result = run_multiprocessing(
                    scheme, database, faults=plan, recovery=recovery,
                    tracer=tracer, timeout=60)
            except ExecutionError as error:
                outcomes.append(str(error))
            else:
                outcomes.append(result.restarts)

        assert _left_behind(run) == 0
        if recovery == "fail":
            assert "'1'" in outcomes[0] and "recovery policy" in outcomes[0]
        else:
            assert outcomes == [1]

    def test_workers_and_restarts_run_paused(self, monkeypatch):
        from repro.parallel.mp import runner

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("reporting workers need the fork start method")
        report = multiprocessing.get_context("fork").SimpleQueue()
        monkeypatch.setattr(runner, "WorkerMachine", functools.partial(
            _reporting_machine, report=report, machine=runner.WorkerMachine,
            coordinator=os.getpid()))
        result = run_multiprocessing(
            example3_scheme(ancestor_program(), (0, 1, 2)), _tree(),
            faults=build_fault_plan([KILL]), recovery="restart", timeout=60)
        assert result.restarts == 1
        assert gc.isenabled()
        reports = []
        while not report.empty():
            reports.append(report.get())
        assert sorted(reports) == [
            ("start", "0", 0, False), ("start", "1", 0, False),
            ("start", "1", 1, False), ("start", "2", 0, False)]
