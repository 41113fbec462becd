"""The mp protocol as two pure state machines.

:class:`WorkerMachine` makes every protocol decision of one worker and
:class:`CoordinatorMachine` every decision of the coordinator; the
invariants they keep are stated once, in :mod:`.protocol`.  Neither
touches a channel, a process, a signal or a clock: each call takes the
message, the death or the time it reacts to and returns the
``(destination, message)`` pairs to put.  A destination is a processor
id, or :data:`COORDINATOR` for a worker's acks, trace batches,
checkpoints and result.  The I/O loops (:class:`.worker.WorkerLoop`,
:func:`.runner.run_multiprocessing`) only carry these pairs, and the
schedule explorer (``tests/parallel/test_protocol_explorer.py``) wires
the same machines together over FIFOs whose interleaving it chooses.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ...errors import ExecutionError
from ...obs.tracer import Tracer
from ..metrics import approx_batch_bytes
from ..naming import processor_tag
from ..processor import EmissionBatch, ProcessorRuntime
from .checkpoint import (
    Stamp,
    WorkerCheckpoint,
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

__all__ = ["BETWEEN", "COLLECT", "COORDINATOR", "DONE", "SPAWN", "WAVE",
           "CoordinatorMachine", "WorkerMachine"]

ProcessorId = Hashable
Output = Tuple[object, tuple]


class _Coordinator:
    """The destination of worker outputs bound for the coordinator."""

    def __repr__(self) -> str:
        return "COORDINATOR"


COORDINATOR = _Coordinator()

# ``(proc, (SPAWN, kill_after, epoch, restore, delay))``: not a message
# but an order to the coordinator's loop — after ``delay`` seconds, fork
# ``proc``'s worker in ``epoch``, armed with ``kill_after`` and resuming
# from the checkpoint blob ``restore`` (or its base fragment).
SPAWN = "spawn"

# Restart backoff: before the n-th respawn of the same worker (n >= 2)
# the coordinator waits min(base * 2**(n-2), cap) seconds.  The first
# restart is immediate — one-shot injected kills and isolated crashes
# should recover as fast as the detector allows.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 1.0


class WorkerMachine:
    """Every protocol decision of one worker.

    A :class:`~.worker.WorkerLoop` calls :meth:`start` once,
    :meth:`on_message` for each message drained and :meth:`step` once
    per pass, and puts what each returns.  After any call that sets
    :attr:`dying` or :attr:`stopped` it lets go of the machine: a
    worker process then kills itself once its channels' backlogs are
    written, or exits.

    Args:
        runtime: this processor's runtime, never stepped.
        clock: seconds for :class:`~.protocol.WorkerStats` timings.
        peers: every other processor of the run.
        kill_after: firing count at which the worker is to die (an
            injected kill fault), or ``None``.
        epoch: recovery epoch to start in.
        checkpoint_interval: bursts between checkpoints, or ``None``.
        restore: checkpoint blob to resume from, or ``None``.
        replayable: whether a replay can ever be asked for; when False
            no sent-log is kept.
    """

    def __init__(self, runtime: ProcessorRuntime, clock: Callable[[], float],
                 peers: Sequence[ProcessorId],
                 kill_after: Optional[int] = None, epoch: int = 0,
                 checkpoint_interval: Optional[int] = None,
                 restore: Optional[bytes] = None,
                 replayable: bool = True) -> None:
        self.runtime = runtime
        self.me = runtime.program.processor
        self.stats = WorkerStats()
        self.epoch = epoch
        # Per-epoch quiescence counters, zeroed when the epoch moves.
        self.sent = 0
        self.received = 0
        self.activity = 0
        self.stopped = False
        self.dying = False
        self._clock = clock
        self._peers = list(peers)
        self._kill_after = kill_after
        self._checkpoint_interval = checkpoint_interval
        self._restore = restore
        self._replayable = replayable
        self._tracer = runtime.tracer
        self._trace = self._tracer.enabled
        # Channel stamps: the incarnation is the epoch this worker was
        # *spawned* in, so successive incarnations' stamps are ordered.
        self._incarnation = epoch
        self._out_seq: Dict[ProcessorId, int] = {}
        # Highest stamp dequeued per sender, published in checkpoints.
        self._watermarks: Dict[ProcessorId, Stamp] = {}
        # Per-peer, per-predicate log of everything routed there: an
        # insertion-ordered dict keyed by fact (so deduplicated, in
        # first-send order) whose value is the stamp of the last
        # message that carried the fact.
        self._sent_log: Dict[ProcessorId, Dict[str, Dict[tuple, Stamp]]] = {}
        self._bursts = 0
        # Whether this pass drained data, a replay or a truncation.
        self._worked = False

    @property
    def busy(self) -> bool:
        """True iff this pass has work for :meth:`step`: it drained
        something that counts, or staged input awaits a step."""
        return self._worked or self.runtime.has_pending_input()

    def start(self) -> List[Output]:
        """Resume from the checkpoint, or fire the initialization rules
        and route their output."""
        # A newcomer's markers follow whatever its predecessor put.
        out = self._markers() if self.epoch else []
        if self._restore is not None:
            self._load(decode_checkpoint(self._restore))
        else:
            out += self._route(self.runtime.initialize_batches())
        self._check_kill()
        return out

    def on_message(self, message: tuple) -> List[Output]:
        """React to one message taken off the inbox."""
        kind = message[0]
        if kind == DATA:
            return self._ingest(*message[1:])
        if kind == PROBE:
            self._sync_stats()
            out = [self._report(message[1])]
            if self._trace:
                self._tracer.probe(self.runtime.tag, seq=message[1],
                                   activity=self.activity)
            return out + self._flush_trace()
        if kind == RESET:
            # A stale RESET can linger in a dead worker's inbox and be
            # read by its replacement: epochs never regress.
            return self._adopt(message[1])
        if kind == REPLAY:
            self._worked = True
            return self._replay(message[1])
        if kind == TRUNCATE:
            self._worked = True
            self._truncate(message[1], message[2])
            return []
        if kind == STOP:
            self.stopped = True
            return self._result()
        raise ValueError(f"unknown message tag {kind!r}")

    def step(self) -> List[Output]:
        """End a pass: one semi-naive step on the staged input, its
        output routed, then a checkpoint at the end of a burst and a
        passive notice if the pass worked and left nothing staged."""
        runtime = self.runtime
        stepped = runtime.has_pending_input()
        out: List[Output] = []
        if stepped:
            if self._trace:
                # Real execution has no global rounds: label the step's
                # events with the worker-local iteration number.
                self._tracer.current_round = runtime.counters.iterations + 1
            started = self._clock()
            emissions = runtime.step_batches()
            elapsed = self._clock() - started
            self.stats.step_s += elapsed
            self.stats.longest_step_s = max(self.stats.longest_step_s,
                                            elapsed)
            self.activity += sum(len(facts) for _, facts in emissions)
            out = self._route(emissions)
            if self._check_kill():
                return out
        pending = runtime.has_pending_input()
        if (stepped and not pending
                and self._checkpoint_interval is not None):
            # The burst ended with every step's output on the wire: the
            # consistent cut a checkpoint needs.
            self._bursts += 1
            if self._bursts >= self._checkpoint_interval:
                self._bursts = 0
                out.append(self._checkpoint())
        if (stepped or self._worked) and not pending:
            out.append(self._report(0))
        self._worked = False
        return out

    # -- epochs and counters ---------------------------------------------
    def _adopt(self, epoch: int) -> List[Output]:
        """Enter a later recovery epoch: zero the quiescence counters
        and mark every channel."""
        if epoch <= self.epoch:
            return []
        self.epoch = epoch
        self.sent = 0
        self.received = 0
        return self._markers()

    def _markers(self) -> List[Output]:
        """An epoch marker for every peer: a DATA message with no facts
        that counts as one unit.  It reaches the peer after everything
        put before it, so no wave balances while that is in flight
        (see :mod:`.protocol`)."""
        self.sent += len(self._peers)
        self.activity += len(self._peers)
        return [(peer, (DATA, self.me, [], self.epoch, self._stamp(peer)))
                for peer in self._peers]

    def _stamp(self, target: ProcessorId) -> Stamp:
        seq = self._out_seq.get(target, 0) + 1
        self._out_seq[target] = seq
        return (self._incarnation, seq)

    def _report(self, seq: int) -> Output:
        """The ack of probe ``seq``, or with ``seq == 0`` a notice."""
        return (COORDINATOR, (ACK, self.me, seq, self.sent, self.received,
                              self.activity, self.epoch,
                              self.runtime.has_pending_input()))

    def _check_kill(self) -> bool:
        """Arm :attr:`dying` once the firing count crosses the kill
        threshold; only ever called at a step boundary."""
        if (self._kill_after is not None
                and self.runtime.counters.total_firings() >= self._kill_after):
            self.dying = True
        return self.dying

    def _sync_stats(self) -> None:
        counters = self.runtime.counters
        self.stats.firings = counters.total_firings()
        self.stats.probes = counters.probes
        self.stats.iterations = counters.iterations
        self.stats.duplicates_dropped = self.runtime.duplicates_dropped

    def _flush_trace(self) -> List[Output]:
        if not (self._trace and self._tracer.sink.events):
            return []
        events = [event.to_dict() for event in self._tracer.sink.drain()]
        return [(COORDINATOR, (TRACE, self.me, events))]

    def _result(self) -> List[Output]:
        self._sync_stats()
        self.stats.sent_log_facts = sum(
            len(facts) for log in self._sent_log.values()
            for facts in log.values())
        # The worker's part of the answer: its ``t_in`` plus the facts
        # no route took.  A relation is a set and the coordinator pools
        # into one: no order to establish.
        outputs = {pred: list(self.runtime.output_relation(pred))
                   for pred in self.runtime.program.out_names}
        return self._flush_trace() + [
            (COORDINATOR, (RESULT, self.me, outputs, self.stats))]

    # -- the data plane --------------------------------------------------
    def _ingest(self, sender: ProcessorId,
                pairs: Sequence[Tuple[str, object]], epoch: int,
                stamp: Stamp) -> List[Output]:
        # A newcomer's DATA can overtake the RESET announcing its epoch
        # (different producers): adopt the epoch here so these facts
        # are counted on both ends; the RESET is then a no-op.
        out = self._adopt(epoch)
        count = 0
        for predicate, facts in pairs:
            self.runtime.receive(predicate, facts, remote=True)
            count += len(facts)
            if self._trace:
                self._tracer.tuple_received(
                    self.runtime.tag, processor_tag(sender), predicate,
                    count=len(facts))
        current = self._watermarks.get(sender)
        if current is None or stamp > current:
            self._watermarks[sender] = stamp
        self.stats.received += count
        # An epoch marker carries no facts and counts as one unit.
        units = count if pairs else 1
        if epoch == self.epoch:
            self.received += units
        self.activity += units
        self._worked = True
        return out

    def _route(self, emissions: List[EmissionBatch]) -> List[Output]:
        """Stage this worker's share of a step's emissions and address
        each peer's share to it as one message (the runtime has already
        split them by target)."""
        started = self._clock()
        remote: Dict[ProcessorId, List[Tuple[str, List[tuple]]]] = {}
        for predicate, routed in emissions:
            for target, bucket in routed.buckets.items():
                if target == self.me:
                    self.runtime.receive(predicate, bucket, remote=False)
                    self.stats.self_delivered += len(bucket)
                    self.activity += len(bucket)
                else:
                    remote.setdefault(target, []).append((predicate, bucket))
        out = [self._data(target, pairs) for target, pairs in remote.items()]
        self.stats.send_s += self._clock() - started
        return out

    def _data(self, target: ProcessorId, pairs: List[Tuple[str, List[tuple]]],
              replay: bool = False) -> Output:
        """One DATA message to ``target``, counted as enqueued: the
        loop puts it before it reads another message."""
        stamp = self._stamp(target)
        if self._replayable:
            log_by_pred = self._sent_log.setdefault(target, {})
            for predicate, facts in pairs:
                log = log_by_pred.setdefault(predicate, {})
                for fact in facts:
                    log[fact] = stamp
        count = sum(len(facts) for _, facts in pairs)
        stats = self.stats
        stats.sent_by_target[target] = (stats.sent_by_target.get(target, 0)
                                        + count)
        stats.messages_by_target[target] = (
            stats.messages_by_target.get(target, 0) + 1)
        stats.bytes_by_target[target] = (stats.bytes_by_target.get(target, 0)
                                         + approx_batch_bytes(pairs))
        self.sent += count
        self.activity += count
        if replay:
            stats.replayed += count
        elif self._trace:
            target_tag = processor_tag(target)
            for predicate, facts in pairs:
                self._tracer.tuple_sent(self.runtime.tag, target_tag,
                                        predicate, count=len(facts))
        return (target, (DATA, self.me, pairs, self.epoch, stamp))

    # -- the recovery and checkpoint planes ------------------------------
    def _replay(self, target: ProcessorId) -> List[Output]:
        """Re-send the remaining sent-log of ``target`` as one message:
        after truncation, exactly its unacknowledged suffix."""
        pairs = [(predicate, list(facts))
                 for predicate, facts in self._sent_log.get(target, {}).items()
                 if facts]
        if not pairs:
            return []
        out = [self._data(target, pairs, replay=True)]
        if self._trace:
            self._tracer.replay(self.runtime.tag, processor_tag(target),
                                sum(len(facts) for _, facts in pairs))
        return out

    def _truncate(self, target: ProcessorId, stamp: Stamp) -> None:
        """Drop the log entries for ``target`` at or below ``stamp``,
        keeping the suffix in first-send order."""
        removed = 0
        log_by_pred = self._sent_log.get(target, {})
        for predicate, log in list(log_by_pred.items()):
            kept = {fact: s for fact, s in log.items() if s > stamp}
            removed += len(log) - len(kept)
            log_by_pred[predicate] = kept
        if removed:
            self.stats.log_truncated += removed
            if self._trace:
                self._tracer.log_truncate(self.runtime.tag,
                                          processor_tag(target), removed)

    def _checkpoint(self) -> Output:
        in_facts, out_facts, staged = self.runtime.export_state()
        snapshot = WorkerCheckpoint(
            epoch=self.epoch, in_facts=in_facts, out_facts=out_facts,
            staged=staged, kept=self.runtime.kept_facts(),
            counters=self.runtime.counters.as_dict(),
            duplicates_dropped=self.runtime.duplicates_dropped,
            received=self.stats.received,
            self_delivered=self.stats.self_delivered,
            sent_log=self._sent_log, watermarks=self._watermarks)
        blob = encode_checkpoint(snapshot)
        if self._trace:
            self._tracer.checkpoint(self.runtime.tag, snapshot.fact_count(),
                                    len(blob), self.epoch)
        return (COORDINATOR, (CHECKPOINT, self.me, dict(self._watermarks),
                              blob))

    def _load(self, snapshot: WorkerCheckpoint) -> None:
        """Resume from a predecessor's checkpoint instead of firing the
        init rules, whose output was already routed and is inside the
        restored state."""
        self.runtime.import_state(
            snapshot.in_facts, snapshot.out_facts, snapshot.staged,
            counters=snapshot.counters,
            duplicates_dropped=snapshot.duplicates_dropped,
            kept=snapshot.kept)
        self.stats.received = snapshot.received
        self.stats.self_delivered = snapshot.self_delivered
        for target, by_pred in snapshot.sent_log.items():
            self._sent_log[target] = {
                predicate: dict(entries)
                for predicate, entries in by_pred.items()}
        self._watermarks.update(snapshot.watermarks)
        if self._trace:
            self._tracer.restore(self.runtime.tag, snapshot.fact_count(),
                                 self.epoch)


# A worker's quiescence counters as an ack or notice reports them:
# (sent, received, activity, pending).
_Counters = Tuple[int, int, int, bool]

# The coordinator's phases: a probe wave is out; waiting to send the
# next one; STOP is out and results are coming in; every result is in.
WAVE, BETWEEN, COLLECT, DONE = "wave", "between", "collect", "done"


def _quiet(counters: Mapping[ProcessorId, _Counters], workers: int) -> bool:
    """One entry per worker, ``Σ sent == Σ received``, no ``pending``."""
    return (len(counters) == workers
            and sum(entry[0] for entry in counters.values())
            == sum(entry[1] for entry in counters.values())
            and not any(entry[3] for entry in counters.values()))


class CoordinatorMachine:
    """Every protocol decision of the coordinator.

    The coordinator's loop calls :meth:`start` once, then repeatedly
    :meth:`tick` with the deaths it saw among :meth:`watched` (and the
    messages it drained before acting on them), and :meth:`on_message`
    for each message it takes off its inbox, blocking at most
    :meth:`wait` seconds; it carries out what each returns until
    :attr:`phase` is ``DONE``.  Every error of the run is raised here as
    an :class:`~repro.errors.ExecutionError`.

    Args:
        order: the processors, in tag order.
        recovery: ``"fail"``, ``"restart"`` or ``"checkpoint"``.
        max_restarts: total restarts allowed.
        probe_interval: fallback seconds between probe waves.
        timeout: seconds the whole run may take.
        ack_timeout: seconds a live worker may leave a wave unacked.
        kill_after: injected kill thresholds by processor (first
            incarnations only).
        tracer: the run's tracer.
        started: the clock reading the run started at.
    """

    def __init__(self, order: Sequence[ProcessorId], recovery: str,
                 max_restarts: int, probe_interval: float, timeout: float,
                 ack_timeout: float, kill_after: Mapping[ProcessorId, int],
                 tracer: Tracer, started: float) -> None:
        self.order = list(order)
        self.tags = {proc: processor_tag(proc) for proc in self.order}
        self.recovery = recovery
        self.max_restarts = max_restarts
        self.probe_interval = probe_interval
        self.timeout = timeout
        self.ack_timeout = ack_timeout
        self.deadline = started + timeout
        self._kill_after = kill_after
        self._tracer = tracer
        self.phase = BETWEEN
        self.epoch = 0
        self.sequence = 0
        self.probes_sent = 0
        self.restarts = 0
        self.recovery_seconds = 0.0
        self.checkpoint_bytes = 0
        self.results: Dict[ProcessorId, WorkerStats] = {}
        self.checkpoints: Dict[ProcessorId, bytes] = {}
        # The view between waves: the latest current-epoch ack or notice
        # of each worker.  It decides when a wave goes out, never
        # whether termination holds.
        self.view: Dict[ProcessorId, _Counters] = {}
        self._snapshot: Dict[ProcessorId, _Counters] = {}
        self._previous: Optional[Dict[ProcessorId, _Counters]] = None
        # The freshest accepted ack per worker: (epoch, wave, counters).
        self._last_acks: Dict[ProcessorId, Tuple[int, int, _Counters]] = {}
        self._restart_counts: Dict[ProcessorId, int] = {}
        self._wave_started = started
        self._wait_until = started
        # Death detection -> the next fully-acked wave; a death while
        # it is open (cascading failure) extends the same window.
        self._recovery_started: Optional[float] = None

    def start(self) -> List[Output]:
        """Spawn every worker, armed; the first wave follows at the
        next :meth:`tick`."""
        return [(proc, (SPAWN, self._kill_after.get(proc), 0, None, 0.0))
                for proc in self.order]

    def watched(self) -> List[ProcessorId]:
        """The workers whose death matters now: those the current wave
        still waits for, or those whose result is still missing."""
        if self.phase == WAVE:
            return [proc for proc in self.order if proc not in self._snapshot]
        if self.phase == COLLECT:
            return [proc for proc in self.order if proc not in self.results]
        return []

    def wait(self, now: float) -> float:
        """Seconds the loop may block on its inbox before the next
        :meth:`tick`."""
        if self.phase == BETWEEN:
            limit = self._wait_until
        elif self.phase == WAVE:
            limit = min(now + self.probe_interval, self.deadline)
        else:
            limit = min(now + 0.1, self.deadline)
        return max(0.0, limit - now)

    def tick(self, now: float,
             dead: Optional[Mapping[ProcessorId, Optional[int]]] = None,
             backlog: Sequence[tuple] = ()) -> List[Output]:
        """Check the deadlines and apply the recovery policy.

        Args:
            now: the clock.
            dead: exit codes of the :meth:`watched` workers found dead.
            backlog: what the loop drained from its inbox after seeing
                them die (a crash report or a checkpoint can be there).
        """
        if now > self.deadline:
            if self.phase in (COLLECT, DONE):
                silent = ", ".join(repr(self.tags[proc]) for proc in self.order
                                   if proc not in self.results)
                raise self._expired(
                    f"workers did not report within {self.timeout} seconds "
                    f"(no result from {silent})")
            raise self._expired(f"no quiescence within {self.timeout} seconds")
        if dead:
            return self._on_deaths(dead, backlog, now)
        if self.phase == WAVE and now - self._wave_started > self.ack_timeout:
            missing = ", ".join(repr(self.tags[proc]) for proc in self.order
                                if proc not in self._snapshot)
            raise self._expired(
                f"worker(s) {missing} alive but did not ack probe "
                f"{self.sequence} within {self.ack_timeout} seconds (wedged?)")
        if self.phase == BETWEEN and now >= self._wait_until:
            return self._next_wave(now)
        return []

    def on_message(self, message: tuple, now: float) -> List[Output]:
        """React to one message from a worker."""
        kind = message[0]
        proc = message[1]
        if kind == ERROR:
            raise ExecutionError(
                f"worker {self.tags[proc]!r} crashed:\n{message[2]}")
        if kind == TRACE:
            for payload in message[2]:
                self._tracer.ingest(payload)
            return []
        if kind == CHECKPOINT:
            return self._store_checkpoint(proc, message[2], message[3])
        if kind == RESULT:
            stats = message[3]
            self.results[proc] = stats
            if self._tracer.enabled:
                self._tracer.worker_exit(
                    self.tags[proc], firings=stats.firings,
                    probes=stats.probes, received=stats.received)
            if len(self.results) == len(self.order):
                self.phase = DONE
            return []
        # (ACK, proc, seq, sent, received, activity, epoch, pending)
        if kind != ACK or message[6] != self.epoch:
            return []
        counters = message[3:6] + message[7:]
        self.view[proc] = counters
        if self.phase == WAVE and message[2] == self.sequence:
            self._snapshot[proc] = counters
            self._last_acks[proc] = (self.epoch, self.sequence, counters)
            if len(self._snapshot) == len(self.order):
                return self._wave_done(now)
        elif self.phase == BETWEEN and _quiet(self.view, len(self.order)):
            return self._next_wave(now)
        return []

    # -- waves -----------------------------------------------------------
    def _next_wave(self, now: float) -> List[Output]:
        self.sequence += 1
        self.phase = WAVE
        self._snapshot = {}
        self._wave_started = now
        self.probes_sent += len(self.order)
        if self._tracer.enabled:
            self._tracer.probe(seq=self.sequence, wave=len(self.order))
        return [(proc, (PROBE, self.sequence)) for proc in self.order]

    def _wave_done(self, now: float) -> List[Output]:
        """Decide on a fully acked wave: STOP if it is balanced, clear
        and unchanged from the one before; else the next wave, at once
        if the view is quiet, otherwise on the notice that makes it so
        or after ``probe_interval``."""
        if self._recovery_started is not None:
            # Every worker, newcomers included, is back in the protocol.
            self.recovery_seconds += now - self._recovery_started
            self._recovery_started = None
        snapshot, previous = self._snapshot, self._previous
        unchanged = previous is not None and all(
            snapshot[proc][2] == previous[proc][2] for proc in self.order)
        if unchanged and _quiet(snapshot, len(self.order)):
            self.phase = COLLECT
            return [(proc, (STOP,)) for proc in self.order]
        self._previous = snapshot
        if _quiet(self.view, len(self.order)):
            return self._next_wave(now)
        self.phase = BETWEEN
        self._wait_until = min(now + self.probe_interval, self.deadline)
        return []

    def _expired(self, what: str) -> ExecutionError:
        """The error for a deadline that ran out, with the protocol
        state it expired in: a worker whose ack is older than the wave
        stopped answering there, unequal totals mean tuples in flight,
        ``pending`` means staged input nobody stepped on."""
        clauses = []
        for proc, tag in self.tags.items():
            ack = self._last_acks.get(proc)
            if ack is None:
                clauses.append(f"{tag!r} never acked")
                continue
            ack_epoch, ack_wave, (sent, received, activity, pending) = ack
            clauses.append(
                f"{tag!r} acked wave {ack_wave} (epoch {ack_epoch}): "
                f"sent={sent} received={received} activity={activity} "
                f"pending={pending}")
        return ExecutionError(
            f"{what}; state at expiry: epoch {self.epoch}, probe wave "
            f"{self.sequence}; " + "; ".join(clauses))

    # -- recovery --------------------------------------------------------
    def _store_checkpoint(self, proc: ProcessorId,
                          watermarks: Mapping[ProcessorId, Stamp],
                          blob: bytes) -> List[Output]:
        """Keep a worker's latest checkpoint blob, undecoded, and tell
        each sender how far the snapshot covers its sent-log.  Once STOP
        is out nobody reads a truncation, so none is sent."""
        self.checkpoints[proc] = blob
        self.checkpoint_bytes += len(blob)
        if self.phase in (COLLECT, DONE):
            return []
        return [(sender, (TRUNCATE, proc, stamp))
                for sender, stamp in watermarks.items()
                if sender in self.tags]

    def _fail(self, dead: Mapping[ProcessorId, Optional[int]],
              reason: str) -> ExecutionError:
        names = ", ".join(f"{self.tags[proc]!r} (exit code {code})"
                          for proc, code in dead.items())
        return ExecutionError(
            f"worker{'s' if len(dead) > 1 else ''} {names} died without "
            f"reporting an error; {reason}")

    def _on_deaths(self, dead: Mapping[ProcessorId, Optional[int]],
                   backlog: Sequence[tuple], now: float) -> List[Output]:
        # A crash report already queued wins over the silent death (a
        # polite crash exits 0 after posting ERROR), and a checkpoint
        # that raced the death is still the latest one.  The acks of
        # the aborted wave mean nothing across the coming epoch.
        out: List[Output] = []
        for message in backlog:
            if message[0] != ACK:
                out += self.on_message(message, now)
        if self.phase in (COLLECT, DONE):
            # Peers are told to stop, so nobody could replay to a
            # newcomer: a death before the result cannot be recovered.
            lost = {proc: code for proc, code in dead.items()
                    if proc not in self.results and code not in (None, 0)}
            if lost:
                raise self._fail(lost, "death during result collection is "
                                       "not recoverable")
            return out
        cascading = self._recovery_started is not None
        if self._tracer.enabled:
            for proc, code in dead.items():
                self._tracer.worker_down(self.tags[proc], exitcode=code,
                                         epoch=self.epoch,
                                         cascading=cascading)
        if self.recovery == "fail":
            raise self._fail(dead, "recovery policy is 'fail'")
        if self.restarts + len(dead) > self.max_restarts:
            raise self._fail(dead, f"max_restarts={self.max_restarts} "
                                   "exhausted")
        self.restarts += len(dead)
        if self._recovery_started is None:
            self._recovery_started = now
        self.epoch += 1
        # Survivors zero their counters at the new epoch before the next
        # wave's probes and before the REPLAYs below (one producer, so
        # in order); the newcomers' DATA is another producer's, hence
        # epoch adoption from DATA.
        out += [(proc, (RESET, self.epoch)) for proc in self.order
                if proc not in dead]
        for proc in dead:
            count = self._restart_counts.get(proc, 0) + 1
            self._restart_counts[proc] = count
            # Per-worker exponential backoff: a flapping processor cannot
            # hot-loop the spawn path.
            delay = (min(_BACKOFF_BASE * 2.0 ** (count - 2), _BACKOFF_CAP)
                     if count > 1 else 0.0)
            restore = (self.checkpoints.get(proc)
                       if self.recovery == "checkpoint" else None)
            out.append((proc, (SPAWN, None, self.epoch, restore, delay)))
        # Newcomers replay too, to every *other* casualty: one restored
        # from a checkpoint holds its predecessor's sent-log, whose
        # entries past a fellow casualty's own checkpoint neither side
        # will derive again.
        out += [(proc, (REPLAY, casualty)) for proc in self.order
                for casualty in dead if casualty != proc]
        # The aborted wave's counters are meaningless across the epoch
        # change: the double probe restarts at the next tick.
        self._previous = None
        self.view.clear()
        self.phase = BETWEEN
        self._wait_until = now
        return out
