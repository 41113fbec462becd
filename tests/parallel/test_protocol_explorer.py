"""Schedule explorer for the mp protocol.

The worker and coordinator machines of :mod:`repro.parallel.mp.machines`
are wired together in one process, with one FIFO per (producer,
consumer) pair.  That is the executor's transport itself
(:mod:`repro.parallel.mp.channels`): one socket pair per ordered pair
of processes, each FIFO, and an inbox that reads whichever of its
channels is ready, so which FIFO delivers next is the schedule's
choice.  Workers run real
:class:`~repro.parallel.processor.ProcessorRuntime`\\ s on small
ancestor inputs: random trees and DAGs under Examples 2 and 3,
``hash`` and Wolfson's scheme.  A kill happens between two machine
calls — a step boundary — and leaves what the worker already put in
flight, as writing out every backlog before ``SIGKILL`` guarantees; a
respawn reads the dead worker's channels, as a restart inherits
them.

Two properties are checked on every schedule: the coordinator never
sends STOP while a DATA message is in flight or a live worker holds
staged input, and every run ends with exactly the sequential answer or
with an :class:`~repro.errors.ExecutionError` naming its cause.  With
at most two kills per schedule, under each recovery policy, that is
Theorem 1 under failure checked on the machines the executor runs.  The
explicit cases below pin interleavings that real processes reach only
by luck.
"""

import collections

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.engine import evaluate
from repro.errors import ExecutionError
from repro.facts import Database
from repro.obs import RESTORE, WORKER_DOWN, InMemorySink, Tracer
from repro.obs.report import TraceReport
from repro.obs.tracer import ensure_tracer
from repro.parallel import (
    example2_scheme,
    example3_scheme,
    hash_scheme,
    wolfson_scheme,
)
from repro.parallel.mp.machines import (
    COLLECT,
    COORDINATOR,
    DONE,
    SPAWN,
    CoordinatorMachine,
    WorkerMachine,
)
from repro.parallel.mp.protocol import (
    ACK,
    CHECKPOINT,
    DATA,
    REPLAY,
    RESET,
    RESULT,
    TRUNCATE,
)
from repro.parallel.naming import processor_tag
from repro.parallel.processor import ProcessorRuntime
from repro.workloads import (
    ancestor_program,
    random_dag_edges,
    random_tree_edges,
)

PROBE_INTERVAL = 0.02
ACK_TIMEOUT = 1.0

# What an ExecutionError may say to count as naming its cause; "no
# quiescence" and "did not report" are hangs, never an outcome.
_CAUSES = ("recovery policy is 'fail'",
           "death during result collection is not recoverable")


class Cluster:
    """Worker machines and a coordinator machine over explicit FIFOs.

    ``fifos[(producer, consumer)]`` holds the messages ``producer`` put
    for ``consumer`` that nobody has read; the coordinator is
    :data:`COORDINATOR` on either side.  Every method is one atomic
    event of the schedule.
    """

    def __init__(self, parallel, database, recovery="restart",
                 kill_after=None, max_restarts=3, tracer=None):
        self.parallel = parallel
        self.database = database
        self.recovery = recovery
        self.order = sorted(parallel.processors, key=processor_tag)
        self.clock = 0.0
        self.fifos = collections.defaultdict(collections.deque)
        self.workers = {}
        # Exit codes of the workers that are not alive: -9 for a kill,
        # 0 after STOP.
        self.exits = {}
        self.answer = collections.defaultdict(set)
        self.error = None
        # Every SPAWN order carried out, as (proc, epoch, restore), and
        # every message a worker took off its inbox, as (consumer,
        # message).
        self.spawns = []
        self.delivered = []
        # A traced run gives each worker a buffering tracer, as the
        # executor does; its events reach ``tracer`` in TRACE batches.
        self._traced = tracer is not None
        self.coordinator = CoordinatorMachine(
            self.order, recovery=recovery, max_restarts=max_restarts,
            probe_interval=PROBE_INTERVAL, timeout=1e9,
            ack_timeout=ACK_TIMEOUT, kill_after=kill_after or {},
            tracer=ensure_tracer(tracer), started=0.0)
        self._coordinate(self.coordinator.start)

    # -- events ----------------------------------------------------------
    def deliverable(self):
        """The FIFOs whose head a reader can take now."""
        return [key for key, fifo in self.fifos.items() if fifo
                and (key[1] is COORDINATOR or key[1] in self.workers)]

    def deliver(self, producer, consumer):
        message = self.fifos[(producer, consumer)].popleft()
        if consumer is COORDINATOR:
            self._pool(message)
            self._coordinate(
                lambda: self.coordinator.on_message(message, self.clock))
        else:
            self.delivered.append((consumer, message))
            worker = self.workers[consumer]
            self._work(consumer, lambda: worker.on_message(message))

    def step(self, proc):
        self._work(proc, self.workers[proc].step)

    def kill(self, proc):
        del self.workers[proc]
        self.exits[proc] = -9

    def tick(self, seconds=0.0):
        """Advance the clock, then one pass of the coordinator's loop
        head: it polls the workers it watches and acts on the dead, with
        whatever its queue held."""
        self.clock += seconds
        dead = {proc: self.exits[proc] for proc in self.coordinator.watched()
                if proc in self.exits}
        backlog = []
        if dead:
            for key in list(self.fifos):
                if key[1] is COORDINATOR:
                    while self.fifos[key]:
                        backlog.append(self._pool(self.fifos[key].popleft()))
        self._coordinate(
            lambda: self.coordinator.tick(self.clock, dead, backlog))

    # -- driving ---------------------------------------------------------
    @property
    def finished(self):
        return self.error is not None or self.coordinator.phase == DONE

    def fair_round(self, hold=()):
        """Deliver one message from every FIFO, step every busy worker,
        tick; the clock moves only when nothing else did.  ``hold``
        names FIFOs not to deliver and workers to freeze: nothing is
        delivered to them and they do not step."""
        progressed = False
        for key in self.deliverable():
            if self.finished:
                return
            if (key not in hold and key[1] not in hold
                    and key in self.deliverable()):
                self.deliver(*key)
                progressed = True
        for proc in list(self.workers):
            if not self.finished and proc in self.workers \
                    and proc not in hold and self.workers[proc].busy:
                self.step(proc)
                progressed = True
        if not self.finished:
            self.tick(0.0 if progressed else PROBE_INTERVAL)

    def finish(self, rounds=3000):
        for _ in range(rounds):
            if self.finished:
                return
            self.fair_round()
        raise AssertionError(
            f"no termination after {rounds} fair rounds: epoch "
            f"{self.coordinator.epoch}, wave {self.coordinator.sequence}, "
            f"view {self.coordinator.view}")

    def run_until(self, condition, rounds=500, hold=()):
        for _ in range(rounds):
            if condition():
                return
            assert not self.finished, "finished before the condition held"
            self.fair_round(hold)
        raise AssertionError("condition never held")

    def check_outcome(self, program):
        if self.error is not None:
            assert any(cause in str(self.error) for cause in _CAUSES), \
                self.error
            return
        expected = evaluate(program, self.database).relation("anc").as_set()
        assert self.answer["anc"] == expected

    # -- plumbing --------------------------------------------------------
    def _put(self, producer, outputs):
        for destination, message in outputs:
            if message[0] == SPAWN:
                self._spawn(destination, *message[1:])
            else:
                self.fifos[(producer, destination)].append(message)

    def _spawn(self, proc, kill_after, epoch, restore, delay):
        self.clock += delay
        self.exits.pop(proc, None)
        self.spawns.append((proc, epoch, restore))
        runtime = ProcessorRuntime(
            self.parallel.program_for(proc),
            self.parallel.local_database(proc, self.database),
            tracer=Tracer(InMemorySink()) if self._traced else None)
        self.workers[proc] = WorkerMachine(
            runtime, lambda: self.clock,
            [peer for peer in self.order if peer != proc],
            kill_after=kill_after, epoch=epoch,
            checkpoint_interval=1 if self.recovery == "checkpoint" else None,
            restore=restore, replayable=self.recovery != "fail")
        self._work(proc, self.workers[proc].start)

    def _work(self, proc, call):
        machine = self.workers[proc]
        self._put(proc, call())
        if machine.dying:
            self.kill(proc)
        elif machine.stopped:
            del self.workers[proc]
            self.exits[proc] = 0

    def _coordinate(self, call):
        if self.error is not None:
            return
        before = self.coordinator.phase
        try:
            outputs = call()
        except ExecutionError as error:
            self.error = error
            return
        if before != COLLECT and self.coordinator.phase == COLLECT:
            in_flight = [(key, message) for key, fifo in self.fifos.items()
                         for message in fifo
                         if key[1] is not COORDINATOR and message[0] == DATA]
            staged = [proc for proc, worker in self.workers.items()
                      if worker.runtime.has_pending_input()]
            assert not in_flight and not staged, (
                f"quiescence declared with DATA in flight {in_flight} or "
                f"staged input at {staged}")
        self._put(COORDINATOR, outputs)

    def _pool(self, message):
        if message[0] == RESULT:
            for predicate, facts in message[2].items():
                self.answer[predicate].update(facts)
        return message


def _cluster(scheme="example3", processors=3, nodes=12, seed=7,
             shape="tree", **options):
    """Ancestor over a random tree or DAG of ``nodes`` nodes under one
    scheme; Wolfson's is defined for two processors only."""
    program = ancestor_program()
    edges = (random_dag_edges(nodes, parents=2, seed=seed) if shape == "dag"
             else random_tree_edges(nodes, seed=seed))
    database = Database.from_facts({"par": edges})
    procs = tuple(range(processors))
    if scheme == "example2":
        parallel = example2_scheme(program, procs, database)
    elif scheme == "hash":
        parallel = hash_scheme(program, procs)
    elif scheme == "wolfson":
        parallel = wolfson_scheme(program, (0, 1))
    else:
        parallel = example3_scheme(program, procs)
    return Cluster(parallel, database, **options), program


class ProtocolExplorer(RuleBasedStateMachine):
    """Hypothesis picks every event: which FIFO delivers, which worker
    steps or dies, when deaths are noticed and how far the clock
    moves."""

    @initialize(scheme=st.sampled_from(
                    ["example3", "hash", "example2", "wolfson"]),
                processors=st.sampled_from([2, 3]),
                shape=st.sampled_from(["tree", "dag"]),
                nodes=st.integers(4, 12), seed=st.integers(0, 50),
                recovery=st.sampled_from(["restart", "checkpoint", "fail"]))
    def build(self, scheme, processors, shape, nodes, seed, recovery):
        self.cluster, self.program = _cluster(
            scheme, processors, nodes, seed, shape, recovery=recovery)
        self.kills = 0
        self.advanced = 0.0

    def _live(self):
        return not self.cluster.finished

    @precondition(lambda self: self._live() and self.cluster.deliverable())
    @rule(data=st.data())
    def deliver(self, data):
        key = data.draw(st.sampled_from(self.cluster.deliverable()))
        self.cluster.deliver(*key)

    @precondition(lambda self: self._live() and any(
        worker.busy for worker in self.cluster.workers.values()))
    @rule(data=st.data())
    def step(self, data):
        busy = [proc for proc, worker in self.cluster.workers.items()
                if worker.busy]
        self.cluster.step(data.draw(st.sampled_from(busy)))

    @precondition(lambda self: self._live() and self.kills < 2
                  and self.cluster.workers)
    @rule(data=st.data())
    def kill(self, data):
        self.kills += 1
        self.cluster.kill(data.draw(st.sampled_from(
            sorted(self.cluster.workers))))

    @precondition(lambda self: self._live() and any(
        proc in self.cluster.exits
        for proc in self.cluster.coordinator.watched()))
    @rule()
    def detect_death(self):
        self.cluster.tick()

    @rule(seconds=st.sampled_from([0.0, PROBE_INTERVAL / 2, PROBE_INTERVAL]))
    def advance_clock(self, seconds):
        """Move the clock, but in all by less than ``ACK_TIMEOUT``: a
        schedule of nothing else starves every worker, and past the ack
        deadline the coordinator rightly reports them wedged."""
        if self._live() and self.advanced + seconds < ACK_TIMEOUT:
            self.advanced += seconds
            self.cluster.tick(seconds)

    @precondition(lambda self: self._live())
    @rule()
    def fair_round(self):
        """Everything moves once: lets a schedule reach deep into a run
        (past checkpoints, into later waves) before its kills."""
        self.cluster.fair_round()

    def teardown(self):
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.finish()
            cluster.check_outcome(self.program)


ProtocolExplorer.TestCase.settings = settings(
    derandomize=True, max_examples=150, stateful_step_count=60,
    deadline=None, suppress_health_check=list(HealthCheck))
TestProtocolExplorer = ProtocolExplorer.TestCase


# -- pinned interleavings -----------------------------------------------

def _messages(cluster, producer, consumer):
    return list(cluster.fifos[(producer, consumer)])


def _step_until(cluster, proc, condition, steps=100):
    for _ in range(steps):
        if condition():
            return
        cluster.step(proc)
    assert condition(), f"worker {proc} never got there"


def _first_wave(cluster):
    """The first tick after the spawns sends probe wave 1."""
    cluster.tick()
    assert cluster.coordinator.sequence == 1


def test_data_overtaking_reset_is_adopted_and_counted():
    cluster, program = _cluster()
    _first_wave(cluster)
    cluster.kill(1)
    cluster.tick()
    assert cluster.coordinator.epoch == 1
    assert (RESET, 1) in _messages(cluster, COORDINATOR, 0)
    _step_until(cluster, 1, lambda: len(_messages(cluster, 1, 0)) >= 2)
    # The newcomer's epoch marker and first DATA reach survivor 0
    # before the RESET does.
    marker, data = _messages(cluster, 1, 0)[:2]
    assert (marker[0], marker[2], marker[3]) == (DATA, [], 1)
    assert data[0] == DATA and data[2] and data[3] == 1
    cluster.deliver(1, 0)
    cluster.deliver(1, 0)
    survivor = cluster.workers[0]
    assert survivor.epoch == 1
    assert survivor.received == 1 + sum(
        len(facts) for _, facts in data[2])
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None


def test_stale_epoch_notice_is_ignored():
    cluster, program = _cluster()
    _first_wave(cluster)
    cluster.kill(2)
    cluster.tick()
    # Survivor 0 ends a pass before it reads the RESET: its notice
    # carries epoch 0 and reaches a coordinator in epoch 1.
    assert cluster.workers[0].busy
    cluster.step(0)
    while cluster.workers[0].busy:
        cluster.step(0)
    notice = cluster.fifos[(0, COORDINATOR)][-1]
    assert notice[0] == ACK and notice[2] == 0 and notice[6] == 0
    while cluster.fifos[(0, COORDINATOR)]:
        cluster.deliver(0, COORDINATOR)
    assert 0 not in cluster.coordinator.view
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None


def test_kill_in_the_middle_of_a_wave():
    cluster, program = _cluster()
    _first_wave(cluster)
    cluster.deliver(COORDINATOR, 0)
    cluster.deliver(0, COORDINATOR)
    assert cluster.coordinator.watched() == [1, 2]
    cluster.kill(1)
    cluster.tick()
    # The aborted wave's ack is dropped with its epoch.
    assert cluster.coordinator.epoch == 1
    assert cluster.coordinator.watched() == []
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None
    assert cluster.coordinator.restarts == 1


def test_two_deaths_in_one_detection_replay_to_each_other():
    """Worker 0 checkpoints after putting DATA for worker 1; worker 1
    reads it but dies before its own first checkpoint, in the same
    detection as worker 0.  Restored worker 0 will not derive those
    facts again, and restarted worker 1 has lost them: only the REPLAY
    of a newcomer to its fellow casualty brings them back."""
    cluster, program = _cluster(recovery="checkpoint")
    _first_wave(cluster)
    while cluster.workers[0].busy:
        cluster.step(0)
    assert _messages(cluster, 0, 1)
    assert CHECKPOINT in [m[0] for m in _messages(cluster, 0, COORDINATOR)]
    while cluster.fifos[(0, COORDINATOR)]:
        cluster.deliver(0, COORDINATOR)
    while cluster.fifos[(0, 1)]:
        cluster.deliver(0, 1)
    assert 1 not in cluster.coordinator.checkpoints
    cluster.kill(0)
    cluster.kill(1)
    cluster.tick()
    assert cluster.coordinator.epoch == 1
    assert cluster.coordinator.restarts == 2
    assert (REPLAY, 1) in _messages(cluster, COORDINATOR, 0)
    assert (REPLAY, 0) in _messages(cluster, COORDINATOR, 1)
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None


def test_replay_racing_new_data():
    """Newcomer 1 takes survivor 2's new-epoch DATA before survivor 0's
    replay, and the replay before the DATA 0 derives afterwards."""
    cluster, program = _cluster()
    _first_wave(cluster)
    cluster.run_until(
        lambda: cluster.workers[0].stats.sent_by_target.get(1))
    cluster.kill(1)
    cluster.tick()
    for proc in (2, 0):
        while cluster.fifos[(COORDINATOR, proc)]:
            cluster.deliver(COORDINATOR, proc)
        while cluster.fifos[(proc, 1)]:
            cluster.deliver(proc, 1)
        assert cluster.workers[proc].stats.replayed > 0
        while cluster.workers[proc].busy:
            cluster.step(proc)
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None


def test_old_epoch_data_of_a_survivor_blocks_quiescence():
    """Survivor 0's DATA for survivor 2, put in epoch 0, is held back
    while a recovery and many waves go by.  Neither end counts it in
    epoch 1; the epoch marker survivor 0 queued behind it is counted,
    so no wave can balance until both are delivered."""
    cluster, program = _cluster(seed=3)
    held = [(0, 2)]
    _first_wave(cluster)
    cluster.run_until(lambda: cluster.fifos[(0, 2)], hold=held)
    cluster.kill(1)
    cluster.tick()
    for _ in range(200):
        cluster.fair_round(hold=held)
    assert cluster.coordinator.phase != COLLECT and not cluster.finished
    assert cluster.coordinator.sequence > 10
    assert cluster.fifos[(0, 2)][0][3] == 0
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None


def test_kill_during_recovery_is_a_cascading_failure():
    """Both kill thresholds lie past initialization.  Worker 2 is frozen
    while worker 0 crosses its threshold and that death is recovered
    from; released, worker 2 dies at its first step, before it has
    acked a wave of the new epoch, so the recovery window is still
    open: a cascading failure, survived with the exact answer."""
    sink = InMemorySink()
    cluster, program = _cluster(nodes=60, recovery="checkpoint",
                                kill_after={0: 19, 2: 18},
                                tracer=Tracer(sink))
    initial = {proc: worker.runtime.counters.total_firings()
               for proc, worker in cluster.workers.items()}
    assert initial[0] < 19 and initial[2] < 18
    cluster.run_until(lambda: cluster.coordinator.restarts == 1, hold=[2])
    _step_until(cluster, 2, lambda: 2 not in cluster.workers)
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None
    assert cluster.coordinator.restarts == 2
    downs = [(event.proc, event.data["cascading"])
             for event in sink.events if event.kind == WORKER_DOWN]
    assert downs == [("0", False), ("2", True)]


def test_checkpoint_recovery_restores_the_stored_checkpoint():
    """Worker 1 dies right after the coordinator stored its first
    checkpoint: the respawn resumes from exactly that payload, emits
    ``restore``, and the run still ends exact, with sent-logs truncated
    at the checkpoints' watermarks along the way.  The trace report
    renders the whole lifecycle."""
    sink = InMemorySink()
    cluster, program = _cluster(recovery="checkpoint", tracer=Tracer(sink))
    cluster.run_until(lambda: 1 in cluster.coordinator.checkpoints)
    stored = cluster.coordinator.checkpoints[1]
    cluster.kill(1)
    cluster.run_until(lambda: cluster.coordinator.restarts == 1)
    proc, epoch, restore = cluster.spawns[-1]
    assert (proc, epoch) == (1, 1) and restore is stored
    restored = cluster.workers[1].runtime.tracer.sink.events
    assert [event.kind for event in restored] == [RESTORE]
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None
    assert any(message[0] == TRUNCATE
               for _, message in cluster.delivered)
    assert [event.proc for event in sink.events
            if event.kind == RESTORE] == ["1"]
    report = TraceReport(sink.events)
    assert report.summary()["restores"] == 1
    text = report.render()
    assert "failures and recovery:" in text
    for line in ("  CHECKPT  ", "  RESTORE  1  ", "  TRUNCATE "):
        assert line in text, line


def test_step_outlasting_the_ack_deadline_is_wedged():
    cluster, _ = _cluster(processors=2)
    _first_wave(cluster)
    # Worker 1 is inside one long step: its probe stays unread while
    # the clock passes the ack deadline.
    while cluster.fifos[(COORDINATOR, 0)]:
        cluster.deliver(COORDINATOR, 0)
    while cluster.fifos[(0, COORDINATOR)]:
        cluster.deliver(0, COORDINATOR)
    cluster.tick(ACK_TIMEOUT + PROBE_INTERVAL)
    assert isinstance(cluster.error, ExecutionError)
    message = str(cluster.error)
    assert "worker(s) '1' alive but did not ack probe 1" in message
    assert "(wedged?)" in message
    assert "'0' acked wave 1 (epoch 0)" in message
    assert "'1' never acked" in message


def test_kill_fault_stops_the_worker_at_its_threshold():
    """A kill fault is carried out at the first step boundary past the
    threshold: the worker's machine says so, its output stays in
    flight, and the restart policy recovers the exact answer."""
    cluster, program = _cluster(kill_after={1: 1})
    assert 1 not in cluster.workers and cluster.exits[1] == -9
    cluster.finish()
    cluster.check_outcome(program)
    assert cluster.error is None
    assert cluster.coordinator.restarts == 1


def test_machines_import_no_process_queue_signal_or_clock_module():
    """The machines stay pure: every queue, process, signal and clock
    belongs to the I/O loops, so the explorer drives exactly the code
    the executor runs."""
    import ast
    import inspect

    from repro.parallel.mp import machines

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(machines))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert imported, "no absolute import found: the check reads nothing"
    assert not imported & {"multiprocessing", "queue", "os", "signal", "time"}
