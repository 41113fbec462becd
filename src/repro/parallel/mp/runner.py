"""Coordinator of the multiprocessing executor.

An I/O loop around one :class:`~.machines.CoordinatorMachine`, which
makes every protocol decision — probe waves and termination, epochs,
recovery, checkpoint slots and deadlines; the invariants are stated in
:mod:`.protocol` and the recovery policies in
``docs/FAULT_TOLERANCE.md``.  The loop forks the workers, polls the
liveness of the ones the machine watches, takes messages off the
coordinator queue, puts what the machine returns on the workers'
inboxes, and pools each worker's RESULT into the output as soon as it
is dequeued.  Workers run free, with no barrier and no throttle:
Theorem 2 bounds total firings under any schedule, so holding one back
cannot save work.

Worker start.  Before the first fork the coordinator builds each
processor's :class:`~repro.parallel.processor.ProcessorRuntime` — its
base fragment (paper, Section 3), its compiled plans and, on a traced
run, a buffering tracer — and never steps it.  A worker's first process
and every restart are ``fork``s of that same object, so the child
inherits the runtime and nothing is packed, pickled or rebuilt.  The
executor therefore needs the ``fork`` start method.
The channels (:mod:`.channels`, one ``AF_UNIX``/``SOCK_SEQPACKET``
socket pair per ordered pair of processes, as Linux provides them) are
created before that first fork too, so every worker
and every restart inherits all of them; :func:`run_multiprocessing`
closes each on return and on raise, after reaping every worker.
Every fork happens inside :func:`run_multiprocessing`'s pause of the cyclic
collector (:mod:`repro.engine.collector`), so each worker inherits it.

Python's GIL makes *thread*-level parallelism useless for this
workload; separate processes sidestep it, at the cost of pickling
tuples across channels.  No process runs a thread of its own: every
message is pickled and written, and read and unpickled, by the loop
that sends or takes it.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

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
from .channels import Channels
from .machines import COORDINATOR, DONE, SPAWN, CoordinatorMachine
from .protocol import RESULT, WorkerStats
from .worker import worker_main

__all__ = ["MPResult", "default_ack_deadline", "run_multiprocessing"]

ProcessorId = Hashable


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
    """

    output: Database
    metrics: ParallelMetrics
    stats: Dict[ProcessorId, WorkerStats]
    wall_seconds: float

    @property
    def restarts(self) -> int:
        """Workers restarted by the recovery policy (0 if undisturbed)."""
        return self.metrics.restarts

    def relation(self, predicate: str) -> Relation:
        """Convenience accessor for a pooled output relation."""
        return self.output.relation(predicate)


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
    """Execute a rewritten program on real OS processes, each a ``fork``
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
        # Never stepped here: a worker and all its restarts fork this one.
        runtimes = {
            proc: ProcessorRuntime(
                program.program_for(proc),
                program.local_database(proc, database),
                tracer=(Tracer(InMemorySink(), clock=time.monotonic)
                        if tracing else None))
            for proc in order}
        # The coordinator's ends, and each worker's, built once: every
        # incarnation of a worker forks the same never-used objects.
        to_workers = channels.senders(COORDINATOR)
        inbox = channels.inbox(COORDINATOR, to_workers.values())
        worker_ends = {}
        for proc in order:
            senders = channels.senders(proc)
            to_coordinator = senders.pop(COORDINATOR)
            worker_ends[proc] = (
                channels.inbox(proc, [*senders.values(), to_coordinator]),
                senders, to_coordinator)
        interval = checkpoint_interval if recovery == "checkpoint" else None
        output = Database()
        pooled: Dict[str, Relation] = {}
        for predicate in program.derived:
            arity = program.program_for(order[0]).arities[predicate]
            pooled[predicate] = Relation(predicate, arity)
            output.attach(pooled[predicate])
        pooled_tuples = 0

        if tracing:
            tracer.run_start(scheme=program.scheme + "+mp",
                             processors=[tags[p] for p in order],
                             executor="mp", recovery=recovery,
                             ack_deadline=round(ack_timeout, 3))

        def carry_out(actions: List[tuple]) -> None:
            """Put the machine's messages; fork the workers it spawns.

            A restart reads its predecessor's channels: what was sent to
            the dead worker is still valid input (monotonicity).
            """
            for proc, message in actions:
                if message[0] != SPAWN:
                    to_workers[proc].put(message)
                    continue
                _, kill_after, epoch, restore, delay = message
                predecessor = processes.pop(proc, None)
                if predecessor is not None:
                    predecessor.join(timeout=1.0)
                    predecessor.close()
                if delay:
                    time.sleep(delay)
                process = context.Process(
                    target=_run_worker,
                    args=(runtimes[proc], *worker_ends[proc], kill_after,
                          epoch, interval, restore, recovery != "fail"),
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
            return message

        def drain() -> List[tuple]:
            backlog = []
            while True:
                try:
                    backlog.append(pool(inbox.get(timeout=0)))
                except queue_module.Empty:
                    return backlog

        carry_out(machine.start())
        while machine.phase != DONE:
            now = time.perf_counter()
            dead = {proc: processes[proc].exitcode
                    for proc in machine.watched()
                    if not processes[proc].is_alive()}
            actions = machine.tick(now, dead, drain() if dead else ())
            if not actions and machine.phase != DONE:
                try:
                    message = inbox.get(timeout=machine.wait(now))
                except queue_module.Empty:
                    continue
                actions = machine.on_message(pool(message), now)
            carry_out(actions)
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
    return MPResult(output=output, metrics=metrics, stats=stats,
                    wall_seconds=wall_seconds)


def _run_worker(runtime, inbox, senders, to_coordinator, *options) -> None:
    """A forked worker's body: :func:`~.worker.worker_main`, then its
    last messages written out before the process exits (peers need
    nothing more once STOP is out: quiescence means no DATA is
    unread)."""
    try:
        worker_main(runtime, inbox, senders, to_coordinator, *options)
    finally:
        to_coordinator.join_thread()
