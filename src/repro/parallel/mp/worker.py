"""The worker process of the multiprocessing executor.

Each worker owns one :class:`~repro.parallel.processor.ProcessorRuntime`
and a queue per peer.  It drains its inbox, steps the semi-naive loop on
whatever arrived (receives are asynchronous — the paper's stipulation),
routes new tuples through the compiled
:class:`~repro.parallel.routing.RouterTable`, and answers the
coordinator's quiescence probes with its counters (see
:mod:`.protocol` for the probe/ack invariants).  It also volunteers the
same counters as a *passive notice* whenever a pass of its loop did
work and left no staged input, so the coordinator can send the next
probe wave the moment the cluster may be idle instead of on a timer.

The step loop.  Each pass of the worker's loop takes at most one step.
It drains the inbox first — without blocking while staged input
remains, so whatever peers sent meanwhile joins the next step's batch
— then runs one semi-naive step and routes its emissions before the
next drain: self-deliveries are staged at once, and each peer's share
of the step goes on the peer's queue as one multi-predicate ``data``
message (one queue put, one pickle).  No tuple waits in this worker
for a later step, so a peer can work on a step's output while this
worker computes the next, and there is no outbound buffer to flush at
a probe, a checkpoint or a kill.  A *burst* is a run of passes that
step; it ends at a pass that steps and leaves no staged input.  On the
wire every ``(predicate, facts)`` pair of
:data:`~repro.facts.packing.PACK_MIN_FACTS` or more facts travels as
packed column buffers (:mod:`repro.facts.packing`); all accounting
counts the unpacked facts.  The quiescence counters are incremented at
enqueue time, symmetric with the receiver counting at dequeue time
(see :mod:`.protocol`).

Fault tolerance.  Under a recovery policy that can replay
(``"restart"``, ``"checkpoint"``) a worker keeps a *sent-log*: per peer
and predicate, the set of facts it has routed there, in first-send order
(an insertion-ordered dict doubling as the dedup set), each entry
carrying the channel stamp of the last message that carried the fact.
A fact enters the log when its message is put on the queue, and a
step's output is on the queue before the next message is read, so
every reader of the log sees exactly what reached the wire.  When the
coordinator restarts a dead peer it asks the survivors to ``replay``
their logs to it; combined with the restarted worker re-deriving its
own outputs from its base fragment (``recovery="restart"``) or
resuming from its last checkpoint (``recovery="checkpoint"``),
monotonicity plus duplicate-dropping makes the recovered run's answer
identical to an undisturbed one (Theorem 1 under failure).  Under the
default ``recovery="fail"`` a death ends the run, so nothing is ever
replayed: the worker writes no log and no per-fact stamps
(``sent_log_facts`` reads 0) and pays nothing for a recovery that
cannot happen.

Checkpointing (``recovery="checkpoint"``).  Every
``checkpoint_interval`` bursts the worker snapshots its
runtime (:meth:`~repro.parallel.processor.ProcessorRuntime.
export_state`), counters, sent-log and per-sender watermarks into a
:class:`~.checkpoint.WorkerCheckpoint` and ships it to the coordinator,
which fans the watermarks back out as ``truncate`` messages — peers
then drop the acknowledged prefix of their logs, so log memory and
replay cost stop growing with total derived facts.  A worker spawned
with a ``restore`` payload loads the snapshot instead of running its
initialization rules (its init output is already inside the restored
``t_out``).  A snapshot is cut at the end of a burst, after its last
step's output is on the wire, so whatever its predecessor derived
later the newcomer derives again.

Replay equivalence of the deduplicated log: receivers discard
duplicates (the difference step of the paper's receiving rules), so
replaying each logged fact once is indistinguishable to the receiver
from replaying the raw historical send sequence — any extra copies in
that sequence would have been dropped on arrival anyway.  Deduplication
also bounds the log: per peer it can never exceed this worker's own
``t_out`` sizes (times fan-out), whatever the restart history did;
the bound is reported as ``sent_log_facts`` in
:class:`~.protocol.WorkerStats`.  ``reset`` messages carry the new
recovery epoch; see :mod:`.protocol` for why quiescence counters must
be zeroed at that cut.  A ``data`` message from a *later* epoch than
the worker's own makes it adopt that epoch on the spot: the newcomer
that sent it and the coordinator that is about to announce it are
different producers, and an inbox is FIFO per producer only.

Fault injection.  A worker armed with a kill fault (``kill_after``)
delivers a real ``SIGKILL`` to itself once its firing count crosses the
threshold.  Kills are the only fault the mp executor injects: its
channels are ``multiprocessing`` queues, already reliable, so channel
faults are a simulator model (:mod:`repro.parallel.faults`).  The
suicide happens at a step boundary after flushing the queue feeder
threads, so the shared queue locks are never torn down mid-write — the
failure is silent at the protocol level (no ``error`` message) but
clean at the OS level, which is exactly the scenario the coordinator's
liveness probing exists for.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import traceback
from time import perf_counter
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ...facts.packing import is_packed, maybe_pack, packed_fact_count
from ..metrics import approx_batch_bytes
from ..naming import processor_tag
from ..processor import EmissionBatch, ProcessorRuntime
from .checkpoint import (
    Stamp,
    WorkerCheckpoint,
    approx_checkpoint_bytes,
    decode_checkpoint,
    encode_checkpoint,
)
from .protocol import (
    ACK,
    CHECKPOINT,
    DATA,
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

__all__ = ["worker_main"]

ProcessorId = Hashable

# Adaptive idle poll bounds.  ``Queue.get(timeout)`` wakes as soon as a
# message arrives, so a long timeout costs no latency — it only sets
# how often an idle worker spins through an empty loop.  The poll
# starts snappy, doubles on every fully idle pass (nothing drained,
# nothing stepped) and snaps back to the minimum on any activity.
_POLL_MIN_SECONDS = 0.0005
_POLL_MAX_SECONDS = 0.04

def worker_main(runtime: ProcessorRuntime, inbox,
                peer_queues: Mapping[ProcessorId, object],
                coordinator_queue,
                kill_after: Optional[int] = None,
                epoch: int = 0,
                checkpoint_interval: Optional[int] = None,
                restore: Optional[Dict[str, object]] = None,
                replayable: bool = True) -> None:
    """Entry point of a worker process, forked from the coordinator.

    Args:
        runtime: this processor's runtime, built by the coordinator and
            never stepped.  On a traced run its tracer buffers events in
            an :class:`~repro.obs.sinks.InMemorySink`; the worker streams
            them to the coordinator as ``("trace", ...)`` batches.
        inbox: this worker's receive queue.
        peer_queues: send queues of every processor (self included).
        coordinator_queue: queue for acks/results to the coordinator.
        kill_after: firing count at which this worker kills itself
            (an injected kill fault), or ``None``.
        epoch: recovery epoch to start in (non-zero for workers spawned
            as replacements after a failure).
        checkpoint_interval: when set (``recovery="checkpoint"``), ship
            a checkpoint to the coordinator every this many bursts
            (see the module docstring).
        restore: optional encoded checkpoint payload
            (:func:`~.checkpoint.encode_checkpoint`); when given, the
            worker resumes from the snapshot instead of firing its
            initialization rules.
        replayable: whether the run's recovery policy can ever ask for
            a replay (the coordinator passes ``recovery != "fail"``).
            When False the worker keeps no sent-log and no per-fact
            stamps.
    """
    program = runtime.program
    me = program.processor
    tag = runtime.tag
    tracer = runtime.tracer
    trace = tracer.enabled
    stats = WorkerStats()
    activity = 0
    # Per-epoch quiescence counters: zeroed on RESET so the global
    # sent/received balance survives the loss of a dead peer's counters.
    epoch_sent = 0
    epoch_received = 0
    # Channel stamps: the incarnation is the epoch this worker process
    # was *spawned* in — it never moves with later RESETs, so stamps of
    # successive incarnations of one processor are strictly ordered —
    # and out_seq counts messages per target channel.
    incarnation = epoch
    out_seq: Dict[ProcessorId, int] = {}
    # Highest stamp dequeued per sender; published in checkpoints so the
    # coordinator can fan out sent-log truncations (see .protocol).
    watermarks: Dict[ProcessorId, Stamp] = {}
    # Per-peer, per-predicate log of everything ever routed there, for
    # replay on a peer's restart.  The inner dict is insertion-ordered
    # and keyed by fact, so it deduplicates while preserving first-send
    # order; the value is the stamp of the last message that carried
    # the fact.  See the module docstring for why the deduplicated log
    # is replay-equivalent and memory-bounded.
    sent_log: Dict[ProcessorId, Dict[str, Dict[tuple, Stamp]]] = {}
    bursts_since_checkpoint = 0

    def flush_trace() -> None:
        if trace and tracer.sink.events:
            coordinator_queue.put(
                (TRACE, me,
                 [event.to_dict() for event in tracer.sink.drain()]))

    try:
        router = program.router_table()

        def maybe_die() -> None:
            """Carry out an armed kill fault (a genuine self-SIGKILL).

            Called only at step boundaries; flushes this process's
            buffered queue writes first so no peer is left blocked on a
            lock the dying feeder thread held (and so the sent-log
            matches what actually reached the wire).
            """
            if kill_after is None:
                return
            if runtime.counters.total_firings() < kill_after:
                return
            for peer_queue in peer_queues.values():
                peer_queue.close()
                peer_queue.join_thread()
            coordinator_queue.close()
            coordinator_queue.join_thread()
            os.kill(os.getpid(), signal.SIGKILL)

        def send_now(target: ProcessorId,
                     pairs: List[Tuple[str, List[tuple]]],
                     replay: bool = False) -> None:
            """Put one data message on ``target``'s queue.

            ``pairs`` is the multi-predicate payload
            ``[(predicate, facts), ...]``; batches worth packing cross
            the wire as column buffers.  All tuple counters are
            incremented here — the enqueue point — and count facts, not
            bytes, matching the receiver's dequeue-side accounting (see
            :mod:`.protocol`).
            """
            nonlocal activity, epoch_sent
            wire_pairs = [(predicate, maybe_pack(facts))
                          for predicate, facts in pairs]
            seq = out_seq.get(target, 0) + 1
            out_seq[target] = seq
            stamp = (incarnation, seq)
            peer_queues[target].put((DATA, me, wire_pairs, epoch, stamp))
            if replayable:
                # Log every fact with its carrying stamp: once the
                # receiver's watermark passes it, the entry is
                # truncatable.
                log_by_pred = sent_log.setdefault(target, {})
                for predicate, facts in pairs:
                    log = log_by_pred.setdefault(predicate, {})
                    for fact in facts:
                        log[fact] = stamp
            count = sum(len(facts) for _, facts in pairs)
            stats.sent_by_target[target] = (
                stats.sent_by_target.get(target, 0) + count)
            stats.messages_by_target[target] = (
                stats.messages_by_target.get(target, 0) + 1)
            stats.bytes_by_target[target] = (
                stats.bytes_by_target.get(target, 0)
                + approx_batch_bytes(wire_pairs))
            epoch_sent += count
            activity += count
            if replay:
                stats.replayed += count
            elif trace:
                target_tag = processor_tag(target)
                for predicate, facts in pairs:
                    tracer.tuple_sent(tag, target_tag, predicate,
                                      count=len(facts))

        def route(emissions: List[EmissionBatch]) -> None:
            """Partition a step's emissions: stage this worker's share
            and put each peer's share on its queue as one message."""
            nonlocal activity
            started = perf_counter()
            remote: Dict[ProcessorId, List[Tuple[str, List[tuple]]]] = {}
            for predicate, facts in emissions:
                buckets, _ = router.partition(predicate, facts)
                for target, bucket in buckets.items():
                    if target == me:
                        runtime.receive(predicate, bucket, remote=False)
                        stats.self_delivered += len(bucket)
                        activity += len(bucket)
                    else:
                        remote.setdefault(target, []).append(
                            (predicate, bucket))
            for target, pairs in remote.items():
                send_now(target, pairs)
            stats.send_s += perf_counter() - started

        def report(seq: int) -> None:
            """Put this worker's quiescence counters on the coordinator
            queue: the ack of probe ``seq``, or with ``seq == 0`` a
            passive notice (see :mod:`.protocol`)."""
            coordinator_queue.put(
                (ACK, me, seq, epoch_sent, epoch_received, activity,
                 epoch, runtime.has_pending_input()))

        def replay_to(target: ProcessorId) -> None:
            """Re-send the remaining sent-log of ``target`` (its restart).

            Under ``recovery="checkpoint"`` truncation has already
            removed the acknowledged prefix, so "the remaining log" is
            exactly the unacknowledged suffix, sent as one message.
            """
            log = sent_log.get(target)
            if not log:
                return
            pairs = [(predicate, list(facts))
                     for predicate, facts in log.items() if facts]
            if not pairs:
                return
            send_now(target, pairs, replay=True)
            if trace:
                tracer.replay(tag, processor_tag(target),
                              sum(len(facts) for _, facts in pairs))

        def truncate_log(target: ProcessorId, stamp: Stamp) -> None:
            """Drop log entries for ``target`` acknowledged by ``stamp``.

            Entries at or below the watermark go.  Rebuilding the dict
            preserves the first-send order of the kept suffix.
            """
            log_by_pred = sent_log.get(target)
            if not log_by_pred:
                return
            removed = 0
            for predicate, log in list(log_by_pred.items()):
                kept = {fact: s for fact, s in log.items() if s > stamp}
                removed += len(log) - len(kept)
                log_by_pred[predicate] = kept
            if removed:
                stats.log_truncated += removed
                if trace:
                    tracer.log_truncate(tag, processor_tag(target), removed)

        def take_checkpoint() -> None:
            """Snapshot and ship recoverable state to the coordinator.

            Called only at the end of a burst, with every step's output
            already on the wire, so the snapshot is the consistent cut
            :mod:`.checkpoint` documents.
            """
            in_facts, out_facts, staged = runtime.export_state()
            snapshot = WorkerCheckpoint(
                epoch=epoch,
                in_facts=in_facts,
                out_facts=out_facts,
                staged=staged,
                counters=runtime.counters.as_dict(),
                duplicates_dropped=runtime.duplicates_dropped,
                received=stats.received,
                self_delivered=stats.self_delivered,
                sent_log=sent_log,
                watermarks=watermarks,
            )
            payload = encode_checkpoint(snapshot)
            coordinator_queue.put((CHECKPOINT, me, payload))
            if trace:
                tracer.checkpoint(tag, snapshot.fact_count(),
                                  approx_checkpoint_bytes(payload), epoch)

        if restore is not None:
            # Resume from the predecessor's checkpoint: load state and
            # counters, adopt its sent-log and watermarks, and skip
            # initialize() — the init-rule output is already inside the
            # restored t_out relations (and was already routed).
            snapshot = decode_checkpoint(restore)
            runtime.import_state(snapshot.in_facts, snapshot.out_facts,
                                 snapshot.staged,
                                 counters=snapshot.counters,
                                 duplicates_dropped=snapshot.duplicates_dropped)
            stats.received = snapshot.received
            stats.self_delivered = snapshot.self_delivered
            for target, by_pred in snapshot.sent_log.items():
                sent_log[target] = {predicate: dict(entries)
                                    for predicate, entries in by_pred.items()}
            watermarks.update(snapshot.watermarks)
            if trace:
                tracer.restore(tag, snapshot.fact_count(), epoch)
        else:
            route(runtime.initialize_batches())
        maybe_die()
        running = True
        idle_poll = _POLL_MIN_SECONDS
        pending = runtime.has_pending_input()
        while running:
            # Drain everything currently queued.  Block briefly only
            # when there is nothing to step: with staged input left, what
            # has arrived joins the next step and nothing is waited for.
            drained_any = False
            while True:
                timeout = 0.0 if drained_any or pending else idle_poll
                waited = perf_counter()
                try:
                    message = inbox.get(timeout=timeout)
                except queue_module.Empty:
                    break
                finally:
                    if timeout:
                        stats.inbox_wait_s += perf_counter() - waited
                kind = message[0]
                if kind == DATA:
                    _, sender, pairs, msg_epoch, stamp = message
                    if msg_epoch > epoch:
                        # A newcomer's DATA overtook the RESET that
                        # announces its epoch (different producers, see
                        # .protocol): adopt it now, exactly as that
                        # RESET would, so these facts are counted on
                        # both ends.  The RESET is then a no-op.
                        epoch = msg_epoch
                        epoch_sent = 0
                        epoch_received = 0
                    count = 0
                    for predicate, payload in pairs:
                        # Packed batches stay in wire form: the runtime
                        # decodes them columnwise at the next step, so
                        # no per-fact tuple loop runs here.
                        if is_packed(payload):
                            runtime.receive_packed(predicate, payload,
                                                   remote=True)
                            received = packed_fact_count(payload)
                        else:
                            runtime.receive(predicate, payload, remote=True)
                            received = len(payload)
                        count += received
                        if trace:
                            tracer.tuple_received(tag, processor_tag(sender),
                                                  predicate, count=received)
                    current = watermarks.get(sender)
                    if current is None or stamp > current:
                        watermarks[sender] = stamp
                    stats.received += count
                    if msg_epoch == epoch:
                        epoch_received += count
                    activity += count
                    drained_any = True
                elif kind == PROBE:
                    _, seq = message
                    stats.firings = runtime.counters.total_firings()
                    stats.probes = runtime.counters.probes
                    stats.iterations = runtime.counters.iterations
                    stats.duplicates_dropped = runtime.duplicates_dropped
                    report(seq)
                    if trace:
                        tracer.probe(tag, seq=seq, activity=activity)
                        flush_trace()
                elif kind == RESET:
                    # A stale RESET can linger in a dead worker's inbox
                    # and be read by its replacement (which spawns in a
                    # later epoch); epochs must never regress.
                    _, new_epoch = message
                    if new_epoch > epoch:
                        epoch = new_epoch
                        epoch_sent = 0
                        epoch_received = 0
                elif kind == REPLAY:
                    _, target = message
                    replay_to(target)
                    drained_any = True
                elif kind == TRUNCATE:
                    _, target, stamp = message
                    truncate_log(target, stamp)
                    drained_any = True
                elif kind == STOP:
                    running = False
                    break
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown message tag {kind!r}")
            if not running:
                break
            # One step, its output routed before the next drain.  Events
            # of a step are labelled with the worker-local iteration
            # number — real execution has no global rounds.
            stepped = runtime.has_pending_input()
            if stepped:
                if trace:
                    tracer.current_round = runtime.counters.iterations + 1
                started = perf_counter()
                emissions = runtime.step_batches()
                elapsed = perf_counter() - started
                stats.step_s += elapsed
                stats.longest_step_s = max(stats.longest_step_s, elapsed)
                activity += sum(len(facts) for _, facts in emissions)
                route(emissions)
                maybe_die()
            pending = stepped and runtime.has_pending_input()
            if stepped and not pending:
                # The burst ended: no step is in progress and every
                # step's output is on the wire — the consistent cut the
                # restore semantics rely on.
                if checkpoint_interval is not None:
                    bursts_since_checkpoint += 1
                    if bursts_since_checkpoint >= checkpoint_interval:
                        bursts_since_checkpoint = 0
                        take_checkpoint()
            if drained_any or stepped:
                if not pending:
                    # Idle after doing work: a passive notice lets the
                    # coordinator start its next probe wave now instead
                    # of at its fallback period (a hint, never a wave
                    # member — see .protocol).
                    report(0)
                idle_poll = _POLL_MIN_SECONDS
            else:
                idle_poll = min(idle_poll * 2, _POLL_MAX_SECONDS)

        stats.firings = runtime.counters.total_firings()
        stats.probes = runtime.counters.probes
        stats.iterations = runtime.counters.iterations
        stats.duplicates_dropped = runtime.duplicates_dropped
        stats.sent_log_facts = sum(
            len(facts) for log in sent_log.values() for facts in log.values())
        flush_trace()
        # A relation is a set and the coordinator pools into one: no
        # order to establish, and the packed columns pickle far smaller.
        outputs = {pred: maybe_pack(list(runtime.output_relation(pred)))
                   for pred in program.out_names}
        coordinator_queue.put((RESULT, me, outputs, stats))
    except Exception:  # pragma: no cover - crash path
        coordinator_queue.put((ERROR, me, traceback.format_exc()))
