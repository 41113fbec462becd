"""Coordinator of the multiprocessing executor.

An I/O loop around one :class:`~.machines.CoordinatorMachine`, which
makes every protocol decision — probe waves and termination, epochs,
recovery, checkpoint slots and deadlines; the invariants are stated in
:mod:`.protocol` and the recovery policies in
``docs/FAULT_TOLERANCE.md``.  The loop forks the workers, polls the
liveness of the ones the machine watches, takes messages off its
inbox, puts what the machine returns on the workers' channels, and
pools each worker's RESULT into the output as soon as it is read.
Workers run free, with no barrier and no throttle: Theorem 2 bounds
total firings under any schedule, so holding one back cannot save
work.

The resident processor.  ``n`` processors run in ``n`` processes: the
coordinator steps the first processor in tag order itself (the
*resident*), with the same :class:`~.worker.WorkerLoop` a worker
process runs, and forks the other ``n − 1``.  The loop takes one
resident step between two ticks of the coordinator machine, and after
each step it reads every message that arrived during it before the tick
judges any ack deadline.  The resident's read ends share the
coordinator's inbox (a DATA message is always the resident's, every
other message the coordinator's), and its traffic with the coordinator
machine passes through a local mailbox with no channel: its RESULT
carries its part of the answer as the runtime's own tuples, never
pickled.
At ``n = 1`` nothing forks.  A kill fault that names the resident
retires it at that step boundary, as a worker kills itself: its
backlogs still go out, its read ends are no longer read, and once the
backlogs are written it counts as dead with exit code ``-9``.  Recovery
then forks its replacement like any other worker's.

Worker start.  Before the first fork the coordinator builds each
processor's :class:`~repro.parallel.processor.ProcessorRuntime` — its
base fragment (paper, Section 3), its compiled plans and, on a traced
run, a buffering tracer.  A forked worker's first process and every
restart are ``fork``\\ s of that same object, never stepped in the
coordinator, so the child inherits the runtime and nothing is packed,
pickled or rebuilt; the resident steps its own, so a replacement for
it forks a runtime built afresh.  Every incarnation's
:class:`~.machines.WorkerMachine`, the resident's and each forked
worker's, first process or restart, is built here by one function,
before the fork that carries it.  The executor therefore needs the
``fork`` start method.  The channels (:mod:`.channels`, one
``AF_UNIX``/``SOCK_SEQPACKET`` socket pair per ordered pair of
processes, as Linux provides them) are created before that first fork
too, so every worker and every restart inherits all of them;
:func:`run_multiprocessing` closes each on return and on raise, after
reaping every worker.  Every fork happens inside
:func:`run_multiprocessing`'s pause of the cyclic collector
(:mod:`repro.engine.collector`), so each worker inherits it.

Python's GIL makes *thread*-level parallelism useless for this
workload; separate processes sidestep it, at the cost of pickling
tuples across channels.  No process runs a thread of its own: every
message is pickled and written, and read and unpickled, by the loop
that sends or takes it.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_module
import socket
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ...engine.collector import collect_young, collector_paused
from ...errors import ConfigurationError
from ...facts.database import Database
from ...facts.relation import Relation
from ...obs.sinks import InMemorySink
from ...obs.tracer import Tracer, ensure_tracer
from ..faults import FaultPlan
from ..metrics import ParallelMetrics
from ..naming import processor_tag
from ..plans import ParallelProgram
from ..processor import ProcessorRuntime
from .channels import Channels, Inbox, Sender
from .machines import COORDINATOR, DONE, SPAWN, CoordinatorMachine, WorkerMachine
from .protocol import DATA, RESULT, WorkerStats
from .worker import WorkerLoop, worker_main

__all__ = ["MPResult", "default_ack_deadline", "run_multiprocessing"]

ProcessorId = Hashable

#: One coordinator phase: its name, then wall and coordinator-process
#: CPU seconds since the run began.
Phase = Tuple[str, float, float]


def default_ack_deadline(processors: int) -> float:
    """The default wedged-worker deadline, scaled to the run's shape.

    A worker that stays alive but does not ack a probe wave for this
    many seconds is declared wedged.  The floor covers interpreter
    start-up and scheduler noise; every extra processor adds probe
    fan-out and channels to poll.
    """
    return 15.0 + 0.5 * processors


@dataclass
class MPResult:
    """Outcome of a multiprocessing execution.

    Attributes:
        output: pooled answer, one relation per derived predicate.
        metrics: counters comparable with the simulator's (per-round
            fields stay empty — real execution has no global rounds).
        stats: raw per-worker counter snapshots.
        wall_seconds: end-to-end wall-clock time including process
            start-up and termination detection.
        phases: the coordinator's phases in the order they ended, each
            ``(name, wall seconds, CPU seconds)`` since the run began,
            the CPU being the coordinator process's
            (``time.process_time``): ``forked`` (the first forks are
            done), ``result <tag>`` as each RESULT is pooled,
            ``pooled`` (every part is in the answer) and ``returned``.
    """

    output: Database
    metrics: ParallelMetrics
    stats: Dict[ProcessorId, WorkerStats]
    wall_seconds: float
    phases: List[Phase] = field(default_factory=list)

    @property
    def restarts(self) -> int:
        """Workers restarted by the recovery policy (0 if undisturbed)."""
        return self.metrics.restarts

    def relation(self, predicate: str) -> Relation:
        """Convenience accessor for a pooled output relation."""
        return self.output.relation(predicate)


class _Resident(WorkerLoop):
    """The processor the coordinator steps itself: the
    :class:`~.worker.WorkerLoop` every worker runs, in the coordinator's
    process.

    It reports to the coordinator machine by appending
    ``(COORDINATOR, message)`` to ``mailbox``, and its read ends are
    among ``inbox``'s.  After a kill fault it is *retiring*: its read
    ends are no longer read, and once its backlogs are written it is
    dead with exit code ``-9``, as a worker that kills itself.
    """

    __slots__ = ("reads", "inbox", "exitcode", "retiring")

    def __init__(self, machine: WorkerMachine, senders: Dict[object, Sender],
                 reads: List[socket.socket], inbox: Inbox,
                 mailbox: Deque[Tuple[object, tuple]],
                 cpu_started: float) -> None:
        super().__init__(machine, senders,
                         lambda message: mailbox.append((COORDINATOR,
                                                         message)),
                         cpu_started)
        self.reads = reads
        self.inbox = inbox
        self.exitcode: Optional[int] = None
        self.retiring = False

    def poll(self) -> Optional[int]:
        """The exit code once the resident is gone, else None; a
        retiring resident dies when its last backlog is written."""
        if self.retiring and not any(sender.backlogged
                                     for sender in self.senders.values()):
            self.retiring = False
            self.exitcode = -9
        return self.exitcode

    def _let_go(self, machine: WorkerMachine) -> None:
        super()._let_go(machine)
        if machine.dying:
            # As a worker kills itself: everything put is on its way,
            # and what its channels hold is left to its replacement.
            self.retiring = True
            self.inbox.stop_reading(self.reads)
        elif machine.stopped:
            self.exitcode = 0


@collector_paused()
def run_multiprocessing(program: ParallelProgram, database: Database,
                        probe_interval: float = 0.02,
                        timeout: float = 120.0,
                        tracer: Optional[Tracer] = None,
                        recovery: str = "fail",
                        faults: Optional[FaultPlan] = None,
                        max_restarts: int = 3,
                        ack_timeout: Optional[float] = None,
                        checkpoint_interval: int = 4) -> MPResult:
    """Execute a rewritten program on ``n`` OS processes: this one,
    which steps the first processor, and a ``fork`` per other processor
    of a runtime built here once (see the module docstring).

    Args:
        program: the rewritten program.
        database: the global extensional input.
        probe_interval: the *fallback* period of the quiescence probe
            waves (must be ``> 0``).  A wave normally follows the
            previous one as soon as the workers' passive notices say
            the cluster may be idle (see :mod:`.protocol`); the
            coordinator waits the full interval only when no notice
            does.  It also bounds failure-detection latency (a dead
            worker is noticed within about two intervals).
        timeout: overall wall-clock limit (must be ``> 0``).
        tracer: optional :class:`~repro.obs.Tracer`.  Workers buffer
            typed events and stream them back as ``("trace", ...)``
            batches; the coordinator forwards them into the tracer's
            sink alongside its own lifecycle/probe/recovery events.
        recovery: ``"fail"`` — a dead worker aborts the run with a
            precise error; ``"restart"`` — dead workers are respawned
            from their base fragments and peers replay their sent-logs
            (the recovered answer is exactly the undisturbed one);
            ``"checkpoint"`` — dead workers are respawned from their
            last coordinator-held checkpoint and peers replay only the
            unacknowledged suffix of their sent-logs (same answer,
            strictly less re-derivation and replay).
        faults: optional :class:`~repro.parallel.faults.FaultPlan` of
            kills to inject.  Kill faults are one-shot: restarted
            workers are spawned unarmed.  Channel faults are a
            simulator model; a plan with any is rejected.
        max_restarts: total worker restarts allowed before giving up
            (must be ``>= 0``).
        ack_timeout: seconds a live worker may go without acking a
            probe before the run is declared wedged; ``None`` (the
            default) derives the deadline from the run's shape via
            :func:`default_ack_deadline`.
        checkpoint_interval: bursts between worker checkpoints under
            ``recovery="checkpoint"`` (must be ``>= 1``); ignored by
            the other policies.  A burst is a run of steps that ends
            when the worker has no staged input left.

    Raises:
        ConfigurationError: on an invalid parameter value, a fault
            plan with channel faults or a kill naming no processor, a
            platform without the ``fork`` start method or without
            ``AF_UNIX``/``SOCK_SEQPACKET`` sockets, or a soft
            ``RLIMIT_NOFILE`` below the ``2·n·(n+1)`` descriptors the
            channels of ``n`` processors need.  Each is raised before
            any process is forked.
        ExecutionError: on worker crash, unrecovered death, wedged
            worker or timeout.
    """
    if recovery not in ("fail", "restart", "checkpoint"):
        raise ConfigurationError(
            f"unknown recovery policy {recovery!r}: expected 'fail', "
            "'restart' or 'checkpoint'")
    if max_restarts < 0:
        raise ConfigurationError(
            f"max_restarts must be >= 0, got {max_restarts}")
    if checkpoint_interval < 1:
        raise ConfigurationError(
            f"checkpoint_interval must be >= 1 burst, got "
            f"{checkpoint_interval}")
    if ack_timeout is not None and ack_timeout <= 0:
        raise ConfigurationError(
            f"ack deadline must be positive, got {ack_timeout}")
    if probe_interval <= 0:
        raise ConfigurationError(
            f"probe_interval must be positive seconds, got {probe_interval}")
    if timeout <= 0:
        raise ConfigurationError(
            f"timeout must be positive seconds, got {timeout}")
    if faults is not None and faults.channel_state() is not None:
        raise ConfigurationError(
            "channel faults (drop/delay/dup) are a simulator model; the "
            "mp executor's channels are reliable and it injects only "
            "kill faults")
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            "the mp executor forks its workers from runtimes the "
            "coordinator builds, and this platform has no 'fork' start "
            "method")
    started = time.perf_counter()
    cpu_started = time.process_time()
    phases: List[Phase] = []
    tracer = ensure_tracer(tracer)
    tracing = tracer.enabled
    context = multiprocessing.get_context("fork")

    order = sorted(program.processors, key=processor_tag)
    tags = {proc: processor_tag(proc) for proc in order}
    if ack_timeout is None:
        ack_timeout = default_ack_deadline(len(order))
    channels = Channels(order, COORDINATOR)
    processes: Dict[ProcessorId, multiprocessing.Process] = {}
    try:
        machine = CoordinatorMachine(
            order, recovery=recovery, max_restarts=max_restarts,
            probe_interval=probe_interval, timeout=timeout,
            ack_timeout=ack_timeout,
            kill_after=(faults.kill_thresholds(tags)
                        if faults is not None else {}),
            tracer=tracer, started=started)

        def runtime_of(proc: ProcessorId) -> ProcessorRuntime:
            return ProcessorRuntime(
                program.program_for(proc),
                program.local_database(proc, database),
                tracer=(Tracer(InMemorySink(), clock=time.monotonic)
                        if tracing else None))

        # Never stepped here: a forked worker and all its restarts fork
        # its entry.  The resident takes its own out and steps it.
        runtimes = {proc: runtime_of(proc) for proc in order}
        interval = checkpoint_interval if recovery == "checkpoint" else None

        def machine_of(runtime: ProcessorRuntime, spawn: tuple
                       ) -> WorkerMachine:
            """The machine of one incarnation, built here before it
            forks or is stepped, from the SPAWN that orders it."""
            _, kill_after, epoch, restore, _ = spawn
            return WorkerMachine(
                runtime, time.perf_counter,
                [peer for peer in order if peer != runtime.program.processor],
                kill_after=kill_after, epoch=epoch,
                checkpoint_interval=interval, restore=restore,
                replayable=recovery != "fail")

        # Each worker's ends, built once: every incarnation of a worker
        # forks the same never-used objects.
        to_workers = channels.senders(COORDINATOR)
        worker_ends = {}
        for proc in order:
            senders = channels.senders(proc)
            to_coordinator = senders.pop(COORDINATOR)
            worker_ends[proc] = (
                channels.inbox(proc, [*senders.values(), to_coordinator]),
                senders, to_coordinator)
        # The resident's channels from and to its peers, and one inbox
        # over them and the coordinator's own.
        home = order[0]
        home_senders = channels.senders(home)
        del home_senders[COORDINATOR]
        home_reads = channels.read_ends(home, order[1:])
        inbox = Inbox([*channels.read_ends(COORDINATOR), *home_reads],
                      [*to_workers.values(), *home_senders.values()])
        mailbox: Deque[Tuple[object, tuple]] = collections.deque()
        output = Database()
        pooled: Dict[str, Relation] = {}
        for predicate in program.derived:
            arity = program.program_for(home).arities[predicate]
            pooled[predicate] = Relation(predicate, arity)
            output.attach(pooled[predicate])
        pooled_tuples = 0

        def mark(phase: str) -> None:
            phases.append((phase, time.perf_counter() - started,
                           time.process_time() - cpu_started))

        if tracing:
            tracer.run_start(scheme=program.scheme + "+mp",
                             processors=[tags[p] for p in order],
                             executor="mp", recovery=recovery,
                             ack_deadline=round(ack_timeout, 3))

        def carry_out(actions: List[tuple]) -> None:
            """Hand the machine's messages to the resident or put them
            on a worker's channel; fork the workers it spawns.

            A restart reads its predecessor's channels: what was sent to
            the dead worker is still valid input (monotonicity).
            """
            for proc, message in actions:
                if message[0] != SPAWN:
                    if proc == home and resident.machine is not None:
                        mailbox.append((home, message))
                    else:
                        to_workers[proc].put(message)
                    continue
                _, _, epoch, restore, delay = message
                predecessor = processes.pop(proc, None)
                if predecessor is not None:
                    predecessor.join(timeout=1.0)
                    predecessor.close()
                if delay:
                    time.sleep(delay)
                if proc not in runtimes:
                    # The resident's own runtime has been stepped.
                    runtimes[proc] = runtime_of(proc)
                process = context.Process(
                    target=_run_worker,
                    args=(machine_of(runtimes[proc], message),
                          *worker_ends[proc]),
                    daemon=True)
                process.start()
                processes[proc] = process
                if not tracing:
                    continue
                if epoch:
                    tracer.worker_restart(tags[proc], epoch=epoch,
                                          restored=restore is not None)
                else:
                    tracer.worker_spawn(tags[proc])

        def pool(message: tuple) -> tuple:
            """Union a RESULT's rows into the output as it is read, so one
            worker's rows go in while another still sends its own."""
            nonlocal pooled_tuples
            if message[0] == RESULT:
                for predicate, relation in pooled.items():
                    facts = message[2].pop(predicate, ())
                    relation.update(facts)
                    pooled_tuples += len(facts)
                    # Drop the payload's duplicates before the collection.
                    del facts
                # What the RESULT added leaves the collector while in cache
                # (repro.engine.collector).
                collect_young()
                mark(f"result {tags[message[1]]}")
            return message

        def settle() -> None:
            """Pass the resident's traffic with the coordinator machine
            both ways until neither has anything more for the other."""
            while mailbox:
                target, message = mailbox.popleft()
                if target is not COORDINATOR:
                    if resident.machine is not None:
                        resident.receive(message)
                    continue
                # The resident's RESULT carries its part as plain lists,
                # and its runtime is released by now, so the union
                # reuses the runtime's memory rather than growing the heap.
                carry_out(machine.on_message(pool(message),
                                             time.perf_counter()))

        def dispatch(message: tuple) -> None:
            """A message off the inbox: DATA is the resident's (and is
            lost with it once it is gone), anything else the machine's."""
            if message[0] == DATA:
                if resident.machine is not None:
                    resident.receive(message)
                return
            carry_out(machine.on_message(pool(message), time.perf_counter()))

        def drain(backlog: Optional[List[tuple]] = None) -> None:
            """Take every message that is ready; with ``backlog``, keep
            the coordinator's for the tick that reports a death."""
            while True:
                try:
                    message = inbox.get(timeout=0)
                except queue_module.Empty:
                    return
                if backlog is None or message[0] == DATA:
                    dispatch(message)
                else:
                    backlog.append(pool(message))

        spawns = dict(machine.start())
        home_spawn = spawns.pop(home)
        carry_out(list(spawns.items()))
        mark("forked")
        if tracing:
            tracer.worker_spawn(tags[home])
        resident = _Resident(machine_of(runtimes.pop(home), home_spawn),
                             home_senders, home_reads, inbox, mailbox,
                             cpu_started)
        resident.start()
        while machine.phase != DONE:
            if resident.busy:
                # One resident step between two ticks; what arrived
                # during it is read before any deadline is judged.
                resident.step()
                drain()
            settle()
            now = time.perf_counter()
            dead = {}
            for proc in machine.watched():
                process = processes.get(proc)
                if process is None:
                    code = resident.poll()
                elif process.is_alive():
                    code = None
                else:
                    code = process.exitcode
                if code is not None:
                    dead[proc] = code
            backlog: List[tuple] = []
            if dead:
                drain(backlog)
            actions = machine.tick(now, dead, backlog)
            carry_out(actions)
            settle()
            if actions or machine.phase == DONE or resident.busy:
                continue
            waited = time.perf_counter()
            try:
                message = inbox.get(timeout=machine.wait(now))
            except queue_module.Empty:
                continue
            finally:
                if resident.machine is not None:
                    resident.machine.stats.inbox_wait_s += (
                        time.perf_counter() - waited)
            dispatch(message)
            settle()
        mark("pooled")
        for process in processes.values():
            process.join(timeout=5.0)
    finally:
        for process in processes.values():
            if process.is_alive():
                process.terminate()
        for process in processes.values():
            process.join(timeout=5.0)
            if process.exitcode is None:
                process.kill()
                process.join()
            process.close()
        channels.close()

    metrics = ParallelMetrics(scheme=program.scheme + "+mp",
                              processors=tuple(order))
    metrics.control_messages = machine.probes_sent
    metrics.pooled_tuples = pooled_tuples
    metrics.restarts = machine.restarts
    metrics.recovery_seconds = machine.recovery_seconds
    # Coordinator-side total: a worker's own checkpoint_bytes counter
    # dies with it, the slot ledger does not.
    metrics.checkpoint_bytes = machine.checkpoint_bytes
    stats = machine.results
    for proc in order:
        worker_stats = stats[proc]
        metrics.log_truncated += worker_stats.log_truncated
        metrics.firings[proc] = worker_stats.firings
        metrics.probes[proc] = worker_stats.probes
        metrics.received[proc] = worker_stats.received
        metrics.duplicates_dropped[proc] = worker_stats.duplicates_dropped
        metrics.self_delivered[proc] = worker_stats.self_delivered
        metrics.replayed[proc] = worker_stats.replayed
        for target, count in worker_stats.sent_by_target.items():
            metrics.sent[(proc, target)] += count
        for target, count in worker_stats.messages_by_target.items():
            metrics.channel_messages[(proc, target)] += count
        for target, nbytes in worker_stats.bytes_by_target.items():
            metrics.channel_bytes[(proc, target)] += nbytes

    wall_seconds = time.perf_counter() - started
    if tracing:
        tracer.run_end(firings=metrics.total_firings(),
                       sent=metrics.total_sent(),
                       control_messages=machine.probes_sent,
                       restarts=machine.restarts,
                       wall_seconds=wall_seconds)
    mark("returned")
    return MPResult(output=output, metrics=metrics, stats=stats,
                    wall_seconds=wall_seconds, phases=phases)


def _run_worker(machine, inbox, senders, to_coordinator) -> None:
    """A forked worker's body: :func:`~.worker.worker_main`, then its
    last messages written out before the process exits (peers need
    nothing more once STOP is out: quiescence means no DATA is
    unread)."""
    try:
        worker_main(machine, inbox, senders, to_coordinator)
    finally:
        to_coordinator.write_out()
