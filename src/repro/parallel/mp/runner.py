"""Coordinator of the multiprocessing executor.

Forks one OS process per processor of a rewritten program, wires a
queue per channel, and detects global quiescence with a counting
double-probe (Mattern-style): two consecutive probe waves in which no
worker's activity counter moved, the global sent/received counters
balance, and no worker reports staged-but-unprocessed input imply that
no data message can be in flight and no work remains, i.e. the paper's
termination condition — all processors idle and all channels empty.
The full invariant argument lives in :mod:`.protocol`.  Waves are
event-driven: between two of them the coordinator waits only until the
workers' passive notices (sent when a worker goes idle) show a
balanced, pending-free cluster, or — the fallback — for
``probe_interval``; so a run ends a couple of queue round trips after
its last firing rather than one to two sleeps after it.  Each worker's
RESULT is unioned into the output as soon as it is dequeued.

Workers run free, with no barrier and no throttle: Theorem 2 bounds
total firings under any schedule, so holding one back cannot save
work.

Fault tolerance.  The coordinator polls ``Process.is_alive`` inside the
ack-collection loop, so a worker that dies *silently* (``SIGKILL``, OOM
kill, an injected fault) is detected within about one probe interval
instead of hanging the run to the global timeout.  What happens next is
the ``recovery`` policy:

* ``"fail"`` (default) — raise :class:`~repro.errors.ExecutionError`
  naming the dead worker and its exit code;
* ``"restart"`` — exploit Theorem 1 plus monotonicity: respawn the
  worker from its base fragment, bump the *recovery epoch* (survivors
  zero their quiescence counters — see :mod:`.protocol` for why), and
  ask every survivor to replay its per-target sent-log to the newcomer.
  Re-derivation is idempotent and duplicates are discarded by the
  receiving step, so the recovered run's answer equals an undisturbed
  one exactly;
* ``"checkpoint"`` — like ``"restart"``, but workers additionally ship
  a consistent snapshot of their derived state to the coordinator every
  ``checkpoint_interval`` bursts — runs of steps, each ending when the
  worker has no staged input left (see :mod:`.worker` and
  :mod:`.checkpoint`).  A dead
  worker respawns *from its last checkpoint* instead of its base
  fragment, so it re-derives only the work since the snapshot; the
  checkpoint's per-sender watermarks let every peer truncate its
  sent-log down to the unacknowledged suffix, so replays shrink the
  same way.  When several workers die at once, each restored newcomer
  also replays its restored log to the others.  Answers and total
  firings still equal an undisturbed run.

Every restart of the same worker after the first is preceded by an
exponentially growing backoff sleep (base :data:`_BACKOFF_BASE`, cap
:data:`_BACKOFF_CAP`), so a flapping processor cannot hot-loop the
spawn path; the global ``max_restarts`` budget still bounds the total.

A worker that is alive but fails to ack for the ack deadline is
reported as wedged (that is a bug or a deadlock, not a crash — restart
cannot be assumed safe, so this always raises).  Every error raised on
a deadline — wedged worker, no quiescence, missing final reports —
ends with the protocol state it expired in: the epoch, the probe wave
and each worker's freshest ack (:func:`_describe_acks`), so a hang
names its own cause.  The default deadline
is not a constant: :func:`default_ack_deadline` scales it with the
processor count, and the resolved value is logged on the trace's
``run_start`` event.

Worker start.  Before the first fork the coordinator builds each
processor's :class:`~repro.parallel.processor.ProcessorRuntime` — its
base fragment (paper, Section 3), its compiled plans and, on a traced
run, a buffering tracer — and never steps it.  A worker's first process
and every restart are ``fork``s of that same object, so the child
inherits the runtime and nothing is packed, pickled or rebuilt.  The
executor therefore needs the ``fork`` start method (Linux, macOS).
Every fork happens inside :func:`run_multiprocessing`'s pause of the cyclic
collector (:mod:`repro.engine.collector`), so each worker inherits it.

Python's GIL makes *thread*-level parallelism useless for this
workload; separate processes sidestep it, at the cost of pickling
tuples across queues.  The executor demonstrates that the rewritten
programs really run asynchronously and terminate; throughput studies
are the simulator's job.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ...engine.collector import collect_young, collector_paused
from ...errors import ConfigurationError, ExecutionError
from ...facts.database import Database
from ...facts.packing import ensure_facts
from ...facts.relation import Relation
from ...obs.sinks import InMemorySink
from ...obs.tracer import Tracer, ensure_tracer
from ..faults import FaultPlan
from ..metrics import ParallelMetrics
from ..naming import processor_tag
from ..plans import ParallelProgram
from ..processor import ProcessorRuntime
from .checkpoint import approx_checkpoint_bytes
from .protocol import (
    ACK,
    CHECKPOINT,
    ERROR,
    PROBE,
    REPLAY,
    RESET,
    RESULT,
    STOP,
    TRACE,
    TRUNCATE,
    WorkerStats,
)
from .worker import worker_main

__all__ = ["MPResult", "default_ack_deadline", "run_multiprocessing"]

ProcessorId = Hashable

# Restart backoff: before the n-th respawn of the same worker (n >= 2)
# the coordinator sleeps min(base * 2**(n-2), cap) seconds.  The first
# restart is immediate — one-shot injected kills and isolated crashes
# should recover as fast as the detector allows.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 1.0


def default_ack_deadline(processors: int) -> float:
    """The default wedged-worker deadline, scaled to the run's shape.

    A worker that stays alive but does not ack a probe wave for this
    many seconds is declared wedged.  The floor covers interpreter
    start-up and scheduler noise; every extra processor adds probe
    fan-out and queue contention.
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


# A worker's quiescence counters as an ack or notice reports them:
# (sent, received, activity, pending).
_Counters = Tuple[int, int, int, bool]

# One accepted ack: the epoch and probe wave it answered, then the
# worker's counters.
_Ack = Tuple[int, int, _Counters]


def _quiet(counters: Dict[ProcessorId, _Counters], workers: int) -> bool:
    """One entry per worker, ``Σ sent == Σ received``, no ``pending``."""
    return (len(counters) == workers
            and sum(entry[0] for entry in counters.values())
            == sum(entry[1] for entry in counters.values())
            and not any(entry[3] for entry in counters.values()))


def _describe_acks(tags: Dict[ProcessorId, str],
                   last_acks: Dict[ProcessorId, _Ack],
                   epoch: int, wave: int) -> str:
    """The protocol state a deadline expired in, for its error message.

    One clause per worker with the freshest ack the coordinator
    accepted from it: a worker whose ack is older than ``wave`` stopped
    answering there, unequal ``sent``/``received`` totals mean tuples
    in flight (or lost), ``pending`` means staged input nobody stepped
    on.
    """
    clauses = []
    for proc, tag in tags.items():
        ack = last_acks.get(proc)
        if ack is None:
            clauses.append(f"{tag!r} never acked")
            continue
        ack_epoch, ack_wave, (sent, received, activity, pending) = ack
        clauses.append(
            f"{tag!r} acked wave {ack_wave} (epoch {ack_epoch}): "
            f"sent={sent} received={received} activity={activity} "
            f"pending={pending}")
    return (f"state at expiry: epoch {epoch}, probe wave {wave}; "
            + "; ".join(clauses))


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
            plan with channel faults, or a platform without the
            ``fork`` start method.
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
            "mp executor's queues are reliable and it injects only kill "
            "faults")
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
    if faults is not None:
        known = set(tags.values())
        for kill in faults.kills:
            if kill.processor not in known:
                raise ExecutionError(
                    f"kill fault names unknown processor "
                    f"{kill.processor!r}; known: {sorted(known)}")
    # Never stepped here: a worker and all its restarts fork this one.
    runtimes = {
        proc: ProcessorRuntime(
            program.program_for(proc), program.local_database(proc, database),
            tracer=(Tracer(InMemorySink(), clock=time.monotonic)
                    if tracing else None))
        for proc in order}
    inboxes = {proc: context.Queue() for proc in order}
    coordinator_queue = context.Queue()

    if tracing:
        tracer.run_start(scheme=program.scheme + "+mp",
                         processors=[tags[p] for p in order], executor="mp",
                         recovery=recovery,
                         ack_deadline=round(ack_timeout, 3))

    processes: Dict[ProcessorId, multiprocessing.Process] = {}
    epoch = 0
    restarts = 0
    restart_counts: Dict[ProcessorId, int] = {}
    checkpoints: Dict[ProcessorId, Dict[str, object]] = {}
    checkpoint_bytes_total = 0
    # recovery_seconds: death detection -> the next fully-acked probe
    # wave (every worker back in the protocol).  A death while recovery
    # is still pending (cascading failure) extends the same window.
    recovery_pending = False
    recovery_started = 0.0
    recovery_seconds_total = 0.0
    sequence = 0
    last_acks: Dict[ProcessorId, _Ack] = {}

    def expired(what: str) -> ExecutionError:
        """The error for a deadline that ran out, state dump included."""
        return ExecutionError(
            f"{what}; {_describe_acks(tags, last_acks, epoch, sequence)}")

    def spawn(proc: ProcessorId, armed: bool,
              restore: Optional[Dict[str, object]] = None) -> None:
        """Start (or restart) the worker of ``proc``.

        Restarted workers reuse their original inbox queue — messages
        already enqueued for the dead predecessor are still valid input
        (monotonicity) — and are spawned with ``armed=False`` so an
        injected kill fires at most once per processor.  Under
        ``recovery="checkpoint"`` a restart passes the dead worker's
        last checkpoint payload as ``restore``, so the newcomer resumes
        from the snapshot instead of the base fragment.
        """
        kill = (faults.kill_for(tags[proc])
                if armed and faults is not None else None)
        interval = checkpoint_interval if recovery == "checkpoint" else None
        process = context.Process(
            target=worker_main,
            args=(runtimes[proc], inboxes[proc], inboxes, coordinator_queue,
                  kill.after_firings if kill is not None else None, epoch,
                  interval, restore, recovery != "fail"),
            daemon=True)
        process.start()
        processes[proc] = process

    def absorb_checkpoint(message: tuple, fanout: bool = True) -> None:
        """Store a worker's latest checkpoint; fan out truncations.

        Each watermark in the payload tells one peer how far its
        sent-log toward the checkpointing worker is already covered by
        the snapshot; a ``(TRUNCATE, proc, stamp)`` lets that peer drop
        the covered prefix.  Inbox FIFO order guarantees the peer sees
        the TRUNCATE before any later REPLAY request for ``proc``, so
        replays are exactly the post-truncation suffix.
        """
        nonlocal checkpoint_bytes_total
        _, proc, payload = message
        checkpoints[proc] = payload
        checkpoint_bytes_total += approx_checkpoint_bytes(payload)
        if not fanout:
            return
        for sender, stamp in payload["watermarks"].items():
            inbox = inboxes.get(sender)
            if inbox is not None:
                inbox.put((TRUNCATE, proc, stamp))

    def absorb_control(message: tuple, fanout: bool = True) -> bool:
        """Handle an ERROR, TRACE or CHECKPOINT the same way in every
        coordinator loop; False for any other message."""
        tag = message[0]
        if tag == ERROR:
            raise ExecutionError(
                f"worker {tags[message[1]]!r} crashed:\n{message[2]}")
        if tag == TRACE:
            for payload in message[2]:
                tracer.ingest(payload)
            return True
        if tag == CHECKPOINT:
            absorb_checkpoint(message, fanout)
            return True
        return False

    def fail_dead(dead: List[ProcessorId], reason: str) -> None:
        names = ", ".join(
            f"{tags[proc]!r} (exit code {processes[proc].exitcode})"
            for proc in dead)
        raise ExecutionError(
            f"worker{'s' if len(dead) > 1 else ''} {names} died without "
            f"reporting an error; {reason}")

    def handle_dead(dead: List[ProcessorId]) -> None:
        """Apply the recovery policy to silently-dead workers."""
        nonlocal epoch, restarts, recovery_pending, recovery_started
        # A death detected while a previous recovery is still pending
        # (peers mid-replay, newcomer mid-catch-up) is a *cascading*
        # failure; the trace marks it so soak runs can tell the two
        # apart.
        cascading = recovery_pending
        if tracing:
            for proc in dead:
                tracer.worker_down(tags[proc],
                                   exitcode=processes[proc].exitcode,
                                   epoch=epoch, cascading=cascading)
        if recovery == "fail":
            fail_dead(dead, "recovery policy is 'fail'")
        if restarts + len(dead) > max_restarts:
            fail_dead(dead, f"max_restarts={max_restarts} exhausted")
        restarts += len(dead)
        if not recovery_pending:
            recovery_pending = True
            recovery_started = time.perf_counter()
        epoch += 1
        # Survivors first zero their quiescence counters at the new
        # epoch, then replay their sent-logs to every newcomer; inbox
        # FIFO order (per producer: all of these come from this
        # coordinator) guarantees each survivor processes its RESET
        # before the probes of the next wave and before the REPLAY
        # below.  It does not order the RESET against the newcomer's
        # first DATA — a different producer — which is why a worker
        # adopts a later epoch from DATA as well (see .protocol).
        survivors = [proc for proc in order if proc not in dead]
        for proc in survivors:
            inboxes[proc].put((RESET, epoch))
        for proc in dead:
            processes[proc].join(timeout=1.0)
            count = restart_counts.get(proc, 0) + 1
            restart_counts[proc] = count
            if count > 1:
                # Per-worker exponential backoff: a flapping processor
                # cannot hot-loop the spawn path, and repeated deaths
                # burn wall-clock instead of churning the cluster.
                time.sleep(min(_BACKOFF_BASE * 2.0 ** (count - 2),
                               _BACKOFF_CAP))
            restore = (checkpoints.get(proc)
                       if recovery == "checkpoint" else None)
            spawn(proc, armed=False, restore=restore)
            if tracing:
                tracer.worker_restart(tags[proc], epoch=epoch,
                                      restored=restore is not None)
        # Newcomers replay too, to every *other* casualty: one restored
        # from a checkpoint holds its predecessor's sent-log, whose
        # entries past a fellow casualty's own checkpoint neither side
        # will derive again (both restored ``t_out``s hold them).  A
        # newcomer from its base fragment has an empty log and re-derives.
        for proc in order:
            for casualty in dead:
                if casualty != proc:
                    inboxes[proc].put((REPLAY, casualty))

    workers_started = False
    try:
        for proc in order:
            spawn(proc, armed=True)
            if tracing:
                tracer.worker_spawn(tags[proc])
        workers_started = True

        probes_sent = 0
        previous: Optional[Dict[ProcessorId, _Counters]] = None
        # The coordinator's view between waves: the latest current-epoch
        # ack or passive notice from each worker.  It only decides when
        # the next wave goes out (see .protocol, "Passive notices").
        view: Dict[ProcessorId, _Counters] = {}

        def note(message: tuple) -> bool:
            """Absorb ``message``; True iff it was a current-epoch ack
            or notice, now folded into ``view``."""
            if absorb_control(message) or message[0] != ACK:
                return False
            # (ACK, proc, seq, sent, received, activity, epoch, pending)
            if message[6] != epoch:
                return False
            view[message[1]] = message[3:6] + message[7:]
            return True

        deadline = started + timeout
        while True:
            if time.perf_counter() > deadline:
                raise expired(f"no quiescence within {timeout} seconds")
            sequence += 1
            for proc in order:
                inboxes[proc].put((PROBE, sequence))
                probes_sent += 1
            if tracing:
                tracer.probe(seq=sequence, wave=len(order))
            snapshot: Dict[ProcessorId, _Counters] = {}
            wave_started = time.perf_counter()
            recovered = False
            while len(snapshot) < len(order):
                now = time.perf_counter()
                if now > deadline:
                    raise expired(f"no quiescence within {timeout} seconds")
                dead = [proc for proc in order
                        if proc not in snapshot
                        and not processes[proc].is_alive()]
                if dead:
                    # Prefer a worker's own crash report when one is
                    # already queued (a polite crash exits 0 after
                    # posting ERROR; only truly silent deaths recover).
                    # A checkpoint that raced the death is still the
                    # latest one: absorbing it (and letting peers
                    # truncate) comes before deciding how to respawn.
                    while True:
                        try:
                            absorb_control(coordinator_queue.get_nowait())
                        except queue_module.Empty:
                            break
                    handle_dead(dead)
                    recovered = True
                    break
                if now - wave_started > ack_timeout:
                    missing = ", ".join(repr(tags[proc]) for proc in order
                                        if proc not in snapshot)
                    raise expired(
                        f"worker(s) {missing} alive but did not ack probe "
                        f"{sequence} within {ack_timeout} seconds (wedged?)")
                try:
                    message = coordinator_queue.get(
                        timeout=min(probe_interval, deadline - now))
                except queue_module.Empty:
                    continue
                if note(message) and message[2] == sequence:
                    proc = message[1]
                    snapshot[proc] = view[proc]
                    last_acks[proc] = (epoch, sequence, snapshot[proc])
            if recovered:
                # The aborted wave's counters are meaningless across the
                # epoch change; restart the double-probe from scratch.
                previous = None
                view.clear()
                continue
            if recovery_pending:
                # First fully-acked wave after a death: every worker
                # (newcomers included) is back in the protocol, so the
                # recovery window closes here.
                recovery_seconds_total += time.perf_counter() - recovery_started
                recovery_pending = False
            unchanged = previous is not None and all(
                snapshot[p][2] == previous[p][2] for p in order)
            # ``pending`` must be clear too (inside _quiet): two waves
            # can be acked from one drain pass, before a step (.protocol).
            if unchanged and _quiet(snapshot, len(order)):
                break
            previous = snapshot
            # Send the next wave as soon as the view is quiet: at once
            # when this wave was (no notice has superseded its acks),
            # else on the notice that makes it so.  ``probe_interval``
            # is only the fallback when no such notice comes.
            wait_until = min(time.perf_counter() + probe_interval, deadline)
            while not _quiet(view, len(order)):
                remaining = wait_until - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    message = coordinator_queue.get(timeout=remaining)
                except queue_module.Empty:
                    break
                note(message)

        for proc in order:
            inboxes[proc].put((STOP,))
        # Results are pooled as they are dequeued, so one worker's rows
        # are unioned in while the other is still packing its own.
        output = Database()
        pooled: Dict[str, Relation] = {}
        for predicate in program.derived:
            arity = program.program_for(order[0]).arities[predicate]
            pooled[predicate] = Relation(predicate, arity)
            output.attach(pooled[predicate])
        pooled_tuples = 0
        stats: Dict[ProcessorId, WorkerStats] = {}
        while len(stats) < len(order):
            now = time.perf_counter()
            if now > deadline:
                silent = ", ".join(repr(tags[proc]) for proc in order
                                   if proc not in stats)
                raise expired(
                    f"workers did not report within {timeout} seconds "
                    f"(no result from {silent})")
            # A worker that exits non-zero here died between quiescence
            # and its final report; its peers have already been told to
            # stop, so replay targets are gone and restart is no longer
            # possible — fail precisely instead.
            dead = [proc for proc in order
                    if proc not in stats
                    and not processes[proc].is_alive()
                    and processes[proc].exitcode not in (None, 0)]
            if dead:
                fail_dead(dead, "death during result collection is not "
                                "recoverable")
            try:
                message = coordinator_queue.get(
                    timeout=min(0.1, deadline - now))
            except queue_module.Empty:
                continue
            # Workers have been told to stop; a late checkpoint keeps its
            # slot current but skips the truncation fan-out (nobody will
            # read it).
            if absorb_control(message, fanout=False):
                continue
            if message[0] == RESULT:
                _, proc, worker_outputs, worker_stats = message
                for predicate, relation in pooled.items():
                    facts = ensure_facts(worker_outputs.pop(predicate, ()))
                    relation.update(facts)
                    pooled_tuples += len(facts)
                    # Drop the payload's duplicates before the collection.
                    del facts
                stats[proc] = worker_stats
                # What the RESULT added leaves the collector while in
                # cache (repro.engine.collector).
                collect_young()
                if tracing:
                    tracer.worker_exit(tags[proc],
                                       firings=worker_stats.firings,
                                       probes=worker_stats.probes,
                                       received=worker_stats.received)
        for process in processes.values():
            process.join(timeout=5.0)
    finally:
        if workers_started or processes:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()

    metrics = ParallelMetrics(scheme=program.scheme + "+mp",
                              processors=tuple(order))
    metrics.control_messages = probes_sent
    metrics.pooled_tuples = pooled_tuples
    metrics.restarts = restarts
    metrics.recovery_seconds = recovery_seconds_total
    # Coordinator-side total: a worker's own checkpoint_bytes counter
    # dies with it, the slot ledger does not.
    metrics.checkpoint_bytes = checkpoint_bytes_total
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
                       control_messages=probes_sent,
                       restarts=restarts,
                       wall_seconds=wall_seconds)
    return MPResult(output=output, metrics=metrics, stats=stats,
                    wall_seconds=wall_seconds)
