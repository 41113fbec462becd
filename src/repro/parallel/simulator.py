"""A deterministic simulated cluster for rewritten programs.

The abstract architecture of Section 3: a set of processors, a reliable
channel ``ij`` for every ordered pair, asynchronous receives.  The
simulation is round-based — every round each processor ingests whatever
reached it, fires its processing rules semi-naively on the new tuples,
and the resulting outputs are routed for delivery at the next round.
Rounds make every metric exactly reproducible; message *delay* can be
injected (each in-flight tuple is independently held back a round) to
exercise the asynchrony the paper claims the schemes tolerate.

Termination is the condition that all processors are idle and all
channels empty.  The simulator sees this globally; optionally it also
runs Safra's token-ring termination-detection algorithm — the "standard
algorithm of Distributed Computing" the paper defers to [5, 7] — and
reports its control-message overhead and detection delay.

Two synchronisation regimes are supported (see
``docs/EXECUTION_MODES.md``).  ``sync="bsp"`` is the historical
round-barriered execution above.  ``sync="ssp"`` is a stale-synchronous
tick engine: each processor advances its own clock (one unit per
semi-naive step), steps cost ticks proportional to the work they
perform divided by the processor's modelled ``capacity``, and a
processor may run ahead of the slowest processor that still holds
pending work by at most ``staleness`` steps before it is throttled.
Because the discriminating-function partition makes every derivation
set-monotone and non-redundant, firing on stale deltas can only delay
tuples, never corrupt them — the pooled answer is identical to BSP and
to sequential evaluation (Theorem 1), while skewed workloads keep fast
processors busy instead of idling at barriers.

Fault injection (see :mod:`repro.parallel.faults`) shares its spec
language with the multiprocessing executor: kill faults discard a
processor's runtime state once its firing count crosses the threshold
(round granularity here, step granularity in mp), and channel faults
drop/delay/duplicate individual in-flight tuples from a seeded RNG.
Under ``recovery="restart"`` a killed processor is rebuilt from its
base fragment at the next round and its peers replay their per-target
sent-logs to it — the same monotonicity-backed protocol the mp
executor uses, so recovered outputs match undisturbed ones exactly.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..engine.counters import EvalCounters
from ..errors import ExecutionError
from ..facts.database import Database
from ..facts.relation import Fact, Relation
from ..obs.tracer import Tracer, ensure_tracer
from .faults import DELAY, DROP, DUPLICATE, FaultPlan
from .metrics import ParallelMetrics, approx_batch_bytes
from .naming import processor_tag
from .plans import ParallelProgram
from .processor import EmissionBatch, ProcessorRuntime

if TYPE_CHECKING:  # an optional argument's type, not a dependency
    from ..network.netgraph import NetworkGraph

__all__ = ["ParallelResult", "SimulatedCluster", "run_parallel"]

ProcessorId = Hashable
# One in-flight batch: (dest, sender, pred, tuples).  A batch is what one
# routing call put on one channel for one predicate; it is only taken
# apart where a per-tuple decision (injected delay or channel fault) is
# owed.
Message = Tuple[ProcessorId, ProcessorId, str, List[Fact]]


@dataclass
class ParallelResult:
    """Outcome of a simulated parallel execution.

    Attributes:
        output: pooled answer — one relation per derived predicate
            (the paper's final pooling step).
        metrics: all counters observed during the run.
        counters: per-processor engine counters.
    """

    output: Database
    metrics: ParallelMetrics
    counters: Dict[ProcessorId, EvalCounters]

    def relation(self, predicate: str) -> Relation:
        """Convenience accessor for a pooled output relation."""
        return self.output.relation(predicate)


class _SafraDetector:
    """Safra's token-based termination detection over a processor ring."""

    def __init__(self, ring: Sequence[ProcessorId]) -> None:
        self.ring = tuple(ring)
        self.colors = {proc: "white" for proc in self.ring}
        self.counts = {proc: 0 for proc in self.ring}
        self.holder_index = 0
        self.token_value = 0
        self.token_color = "white"
        self.hops = 0
        self.detected = False

    def on_send(self, sender: ProcessorId, count: int) -> None:
        self.counts[sender] += count

    def on_receive(self, receiver: ProcessorId, count: int) -> None:
        if count > 0:
            self.counts[receiver] -= count
            self.colors[receiver] = "black"

    def advance(self, idle: Dict[ProcessorId, bool]) -> None:
        """Move the token one hop if its holder is idle this round."""
        if self.detected:
            return
        holder = self.ring[self.holder_index]
        if not idle.get(holder, False):
            return
        if self.holder_index == 0:
            # The initiator's own count enters the test *fresh* (it may
            # have changed since the probe started); adding it at probe
            # start instead would allow false detections.
            if (self.hops >= len(self.ring)
                    and self.token_color == "white"
                    and self.colors[holder] == "white"
                    and self.token_value + self.counts[holder] == 0):
                self.detected = True
                return
            # Start a new probe: fresh white token, whitened initiator.
            self.token_value = 0
            self.token_color = "white"
            self.colors[holder] = "white"
            self.holder_index = 1 % len(self.ring)
            self.hops += 1
            return
        self.token_value += self.counts[holder]
        if self.colors[holder] == "black":
            self.token_color = "black"
        self.colors[holder] = "white"
        self.holder_index = (self.holder_index + 1) % len(self.ring)
        self.hops += 1


class SimulatedCluster:
    """Executes a :class:`ParallelProgram` over an input database.

    Args:
        program: the rewritten program.
        database: the global extensional input.
        delay_probability: chance that an in-flight tuple is held back
            one extra round (asynchrony injection; 0 = synchronous BSP).
        seed: RNG seed for delay injection.
        detect_termination: additionally run Safra's algorithm and
            record its control-message overhead.
        reorder: allow the planner's greedy body reordering.
        max_rounds: safety valve against non-terminating executions.
        network: optional :class:`~repro.network.netgraph.NetworkGraph`
            restricting which channels exist (Definition 3 — no
            indirect routing).  A send over a missing channel raises
            :class:`~repro.errors.ExecutionError`; running a program on
            its own derived minimal network must therefore succeed
            (Section 5's "adapt the parallel execution onto an existing
            parallel architecture").
        tracer: optional :class:`~repro.obs.Tracer`.  The simulator is
            round-based and fully deterministic, so the tracer should
            carry no clock: equal seeds then yield byte-identical
            event streams.
        faults: optional :class:`~repro.parallel.faults.FaultPlan` to
            inject (kills at round granularity, per-tuple channel
            drop/delay/duplicate from the plan's own seeded RNG).
        recovery: ``"fail"`` — an injected kill aborts the run with
            :class:`~repro.errors.ExecutionError`; ``"restart"`` — the
            killed processor is rebuilt from its base fragment and its
            peers replay their sent-logs to it.
        sync: ``"bsp"`` (default) — barriered rounds; ``"ssp"`` — the
            stale-synchronous tick engine (see the module docstring and
            ``docs/EXECUTION_MODES.md``).
        staleness: SSP lead bound — a processor may start a step only
            while its clock is less than ``staleness`` ahead of the
            slowest processor that still holds work.  Must be ``>= 1``
            (the slowest work-holder itself always has lag 0 and can
            step, which is what makes SSP live).  Ignored under BSP.
        capacity: optional per-processor speed map (processor *tag* ->
            work-units per tick, default 1.0) for the SSP cost model; a
            step performing ``w`` work occupies ``ceil(max(w, 1) /
            capacity)`` ticks.  Lets experiments model deliberately
            slow processors.  SSP only.
    """

    def __init__(self, program: ParallelProgram, database: Database,
                 delay_probability: float = 0.0, seed: int = 0,
                 detect_termination: bool = False, reorder: bool = True,
                 max_rounds: int = 1_000_000,
                 network: Optional["NetworkGraph"] = None,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None,
                 recovery: str = "fail",
                 sync: str = "bsp",
                 staleness: int = 2,
                 capacity: Optional[Mapping[str, float]] = None) -> None:
        if recovery not in ("fail", "restart"):
            raise ExecutionError(
                f"unknown recovery policy {recovery!r}: expected 'fail' or "
                "'restart'")
        if sync not in ("bsp", "ssp"):
            raise ExecutionError(
                f"unknown sync mode {sync!r}: expected 'bsp' or 'ssp'")
        if sync == "ssp":
            if staleness < 1:
                raise ExecutionError(
                    "ssp requires staleness >= 1: the slowest work-holding "
                    "processor has lag 0 and must always be allowed to step")
            if detect_termination:
                raise ExecutionError(
                    "Safra's detector is defined over barriered rounds; "
                    "detect_termination requires sync='bsp'")
        elif capacity:
            raise ExecutionError(
                "per-processor capacity modelling is part of the SSP cost "
                "model; pass sync='ssp' to use it")
        self.program = program
        self.database = database
        self.delay_probability = delay_probability
        self.detect_termination = detect_termination
        self.max_rounds = max_rounds
        self.network = network
        self.tracer = ensure_tracer(tracer)
        self.recovery = recovery
        self.sync = sync
        self.staleness = staleness
        self._reorder = reorder
        self._rng = random.Random(seed)
        self._order = sorted(program.processors, key=processor_tag)
        self._tags = {proc: processor_tag(proc) for proc in self._order}
        self._capacity: Dict[str, float] = dict(capacity) if capacity else {}
        known_tags = set(self._tags.values())
        for tag, speed in self._capacity.items():
            if tag not in known_tags:
                raise ExecutionError(
                    f"capacity names unknown processor {tag!r}; known: "
                    f"{sorted(known_tags)}")
            if speed <= 0:
                raise ExecutionError(
                    f"capacity of {tag!r} must be positive, got {speed!r}")
        self.runtimes: Dict[ProcessorId, ProcessorRuntime] = {}
        self._routers = {}
        for proc in self._order:
            local = program.local_database(proc, database)
            self.runtimes[proc] = ProcessorRuntime(
                program.program_for(proc), local, reorder=reorder,
                tracer=self.tracer)
            self._routers[proc] = program.program_for(proc).router_table()
        self.metrics = ParallelMetrics(
            scheme=program.scheme, processors=tuple(self._order),
            sync=sync, staleness=staleness if sync == "ssp" else None)
        self._detector = (_SafraDetector(self._order)
                          if detect_termination else None)
        # Fault injection state: kill thresholds by processor (one-shot),
        # the channel-fault decider, and per-channel sent-logs for replay.
        self._kill_after: Dict[ProcessorId, int] = {}
        self._channel_faults = None
        self._sent_log: Dict[Tuple[ProcessorId, ProcessorId],
                             List[EmissionBatch]] = {}
        if faults is not None:
            known = {tag: proc for proc, tag in self._tags.items()}
            for kill in faults.kills:
                if kill.processor not in known:
                    raise ExecutionError(
                        f"kill fault names unknown processor "
                        f"{kill.processor!r}; known: {sorted(known)}")
                self._kill_after[known[kill.processor]] = kill.after_firings
            self._channel_faults = faults.channel_state()

    # ------------------------------------------------------------------
    def _route(self, sender: ProcessorId,
               emissions: Sequence[EmissionBatch]) -> List[Message]:
        """Apply the sending rules of ``sender`` to its new outputs.

        Each predicate's batch is partitioned into per-target buffers
        by the sender's compiled :class:`~.routing.RouterTable` in one
        pass; all counters (``sent``, ``self_delivered``,
        ``broadcast_tuples``) are bumped by bucket size, so totals are
        identical to the historical per-fact walk.  Each ``(sender,
        target, predicate)`` bucket travels as one message, counts as
        one in the ``channel_messages``/``channel_bytes`` accounting
        and becomes one counted ``tuple_sent`` event.
        """
        messages: List[Message] = []
        router = self._routers[sender]
        metrics = self.metrics
        tracing = self.tracer.enabled
        total_remote = 0
        for predicate, facts in emissions:
            buckets, broadcasts = router.partition(predicate, facts)
            metrics.broadcast_tuples += broadcasts
            for target, bucket in buckets.items():
                count = len(bucket)
                if target == sender:
                    metrics.self_delivered[sender] += count
                else:
                    if (self.network is not None
                            and not self.network.has_edge(sender, target)):
                        raise ExecutionError(
                            f"channel {sender!r} -> {target!r} needed for a "
                            f"{predicate} tuple is absent from the imposed "
                            "network graph (Definition 3 forbids indirect "
                            "routing)")
                    channel = (sender, target)
                    metrics.sent[channel] += count
                    metrics.channel_messages[channel] += 1
                    metrics.channel_bytes[channel] += approx_batch_bytes(
                        ((predicate, bucket),))
                    total_remote += count
                    if self._kill_after:
                        # Sent-logs only accumulate while a kill fault is
                        # armed; replay needs them, undisturbed runs don't.
                        self._sent_log.setdefault(channel, []).append(
                            (predicate, bucket))
                    if tracing:
                        self.tracer.tuple_sent(self._tags[sender],
                                               self._tags[target], predicate,
                                               count=count)
                messages.append((target, sender, predicate, bucket))
        if self._detector is not None:
            self._detector.on_send(sender, total_remote)
        return messages

    def _deliver(self, messages: List[Message]
                 ) -> Tuple[List[Message], Dict[ProcessorId, int]]:
        """Deliver in-flight messages, possibly holding some back.

        Returns the held-back messages and the per-processor count of
        remote tuples delivered this round.
        """
        held: List[Message] = []
        remote_received: Dict[ProcessorId, int] = {}
        if self.delay_probability <= 0.0 and self._channel_faults is None:
            # Fault-free fast path: no per-tuple RNG draw is owed, so
            # batches are delivered whole — one ``receive`` call and one
            # counted ``tuple_received`` event per ``(dest, sender,
            # pred)``.
            tracing = self.tracer.enabled
            groups = _merged(((destination, sender, predicate), facts)
                             for destination, sender, predicate, facts
                             in messages)
            for (destination, sender, predicate), facts in groups.items():
                remote = destination != sender
                self.runtimes[destination].receive(predicate, facts,
                                                   remote=remote)
                if remote:
                    remote_received[destination] = (
                        remote_received.get(destination, 0) + len(facts))
                    if tracing:
                        self.tracer.tuple_received(self._tags[destination],
                                                   self._tags[sender],
                                                   predicate,
                                                   count=len(facts))
            if self._detector is not None:
                for proc, count in remote_received.items():
                    self._detector.on_receive(proc, count)
            return held, remote_received
        for destination, sender, predicate, facts in messages:
            remote = destination != sender
            late: List[Fact] = []
            for fact in facts:
                if (self.delay_probability > 0.0
                        and self._rng.random() < self.delay_probability):
                    late.append(fact)
                    continue
                copies = 1
                if self._channel_faults is not None and remote:
                    verdict = self._channel_faults.decide(
                        self._tags[sender], self._tags[destination])
                    if verdict == DROP:
                        continue
                    if verdict == DELAY:
                        late.append(fact)
                        continue
                    if verdict == DUPLICATE:
                        copies = 2
                for _ in range(copies):
                    self.runtimes[destination].receive(predicate, [fact],
                                                       remote=remote)
                    if remote:
                        remote_received[destination] = (
                            remote_received.get(destination, 0) + 1)
                        if self.tracer.enabled:
                            self.tracer.tuple_received(
                                self._tags[destination], self._tags[sender],
                                predicate)
            if late:
                held.append((destination, sender, predicate, late))
        if self._detector is not None:
            for proc, count in remote_received.items():
                self._detector.on_receive(proc, count)
        return held, remote_received

    def _apply_kills(self, in_flight: List[Message]) -> None:
        """Fire armed kill faults whose firing threshold was crossed.

        Called at round boundaries.  Under ``recovery="fail"`` the
        first kill aborts the run; under ``"restart"`` the processor's
        runtime is rebuilt from its base fragment (all derived state is
        lost, modelling a process death), peers replay their sent-logs
        to it, and its initialization rules re-fire.  Kills are
        one-shot: a restarted processor is never re-killed.
        """
        tracing = self.tracer.enabled
        for proc, threshold in list(self._kill_after.items()):
            firings = self.runtimes[proc].counters.total_firings()
            if firings < threshold:
                continue
            del self._kill_after[proc]
            tag = self._tags[proc]
            if tracing:
                self.tracer.worker_down(tag, firings=firings,
                                        round=self.metrics.rounds)
            if self.recovery != "restart":
                raise ExecutionError(
                    f"processor {tag!r} killed by injected fault after "
                    f"{firings} firings (recovery policy is 'fail')")
            local = self.program.local_database(proc, self.database)
            self.runtimes[proc] = ProcessorRuntime(
                self.program.program_for(proc), local,
                reorder=self._reorder, tracer=self.tracer)
            self.metrics.restarts += 1
            if tracing:
                self.tracer.worker_restart(tag, round=self.metrics.rounds)
            for src in self._order:
                if src == proc:
                    continue
                log = self._sent_log.get((src, proc), [])
                if not log:
                    continue
                replay_pairs = _merged(log)
                in_flight.extend((proc, src, predicate, facts)
                                 for predicate, facts in log)
                count = sum(len(facts) for _, facts in log)
                self.metrics.sent[(src, proc)] += count
                # A replay burst travels as one coalesced message.
                self.metrics.channel_messages[(src, proc)] += 1
                self.metrics.channel_bytes[(src, proc)] += approx_batch_bytes(
                    replay_pairs.items())
                self.metrics.replayed[src] += count
                if self._detector is not None:
                    self._detector.on_send(src, count)
                if tracing:
                    self.tracer.replay(self._tags[src], tag, count)
            in_flight.extend(
                self._route(proc, self.runtimes[proc].initialize_batches()))

    def run(self) -> ParallelResult:
        """Execute to quiescence and pool the answers.

        Raises:
            ExecutionError: if ``max_rounds`` is exceeded, or an
                injected kill fires under ``recovery="fail"``.
        """
        if self.sync == "ssp":
            return self._run_ssp()
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.run_start(scheme=self.program.scheme,
                             processors=[self._tags[p] for p in self._order],
                             executor="simulator")
            tracer.current_round = 0
            for proc in self._order:
                tracer.worker_spawn(self._tags[proc])
        in_flight: List[Message] = []
        for proc in self._order:
            emissions = self.runtimes[proc].initialize_batches()
            in_flight.extend(self._route(proc, emissions))

        quiescent_round: Optional[int] = None
        while True:
            data_pending = bool(in_flight) or any(
                self.runtimes[p].has_pending_input() for p in self._order)
            if not data_pending and quiescent_round is None:
                quiescent_round = self.metrics.rounds
            if not data_pending and (self._detector is None
                                     or self._detector.detected):
                break
            if self.metrics.rounds >= self.max_rounds:
                raise ExecutionError(
                    f"no quiescence after {self.max_rounds} rounds")

            self.metrics.rounds += 1
            if tracing:
                tracer.round_start(self.metrics.rounds)
            in_flight, delivered = self._deliver(in_flight)

            round_work: Dict[ProcessorId, float] = {}
            round_sent: Dict[ProcessorId, int] = {}
            round_received: Dict[ProcessorId, int] = {}
            idle: Dict[ProcessorId, bool] = {}
            for proc in self._order:
                runtime = self.runtimes[proc]
                before_work = runtime.work_done()
                emissions = runtime.step_batches()
                idle[proc] = not emissions and not runtime.has_pending_input()
                messages = self._route(proc, emissions)
                in_flight.extend(messages)
                round_work[proc] = runtime.work_done() - before_work
                round_sent[proc] = sum(
                    len(facts) for destination, _, _, facts in messages
                    if destination != proc)
                round_received[proc] = delivered.get(proc, 0)
            self.metrics.per_round_work.append(round_work)
            self.metrics.per_round_sent.append(round_sent)
            self.metrics.per_round_received.append(round_received)
            if tracing:
                tracer.round_end(
                    self.metrics.rounds,
                    work={self._tags[p]: round_work[p] for p in self._order},
                    sent={self._tags[p]: round_sent[p] for p in self._order},
                    received={self._tags[p]: round_received[p]
                              for p in self._order})

            if self._kill_after:
                self._apply_kills(in_flight)

            if self._detector is not None:
                hops_before = self._detector.hops
                self._detector.advance(idle)
                if tracing and self._detector.hops > hops_before:
                    tracer.probe(algorithm="safra-token",
                                 hops=self._detector.hops,
                                 detected=self._detector.detected)

        if self._detector is not None:
            self.metrics.control_messages = self._detector.hops
            if quiescent_round is not None:
                self.metrics.detection_rounds = (
                    self.metrics.rounds - quiescent_round)
        # Derive barrier busy/idle accounting from the per-round loads:
        # each round lasts as long as its most loaded processor, everyone
        # else waits at the barrier for the difference.  This puts BSP in
        # the same busy/idle/ticks currency the SSP engine measures
        # natively, so utilisation is comparable across modes.
        for round_work in self.metrics.per_round_work:
            peak = max((round_work.get(p, 0.0) for p in self._order),
                       default=0.0)
            if peak <= 0:
                continue
            self.metrics.ticks += int(math.ceil(peak))
            for proc in self._order:
                work = round_work.get(proc, 0.0)
                self.metrics.busy[proc] += int(work)
                self.metrics.idle[proc] += int(math.ceil(peak)) - int(work)
        return self._finish()

    # ------------------------------------------------------------------
    # Stale-synchronous (SSP) tick engine
    # ------------------------------------------------------------------
    def _schedule_ssp(self, messages: Sequence[Message], base_tick: int,
                      deliveries: Dict[int, List[Message]],
                      inflight_to: Counter) -> None:
        """Schedule routed messages for future delivery.

        Arrival is ``base_tick + 1`` (a channel hop costs one tick);
        injected delay — probabilistic or from a channel fault — pushes
        single tuples further out, drop discards here (so a scheduled
        tuple is always eventually delivered), duplicate schedules two
        copies.  A batch splits only by arrival tick.
        """
        undisturbed = (self.delay_probability <= 0.0
                       and self._channel_faults is None)
        for destination, sender, predicate, facts in messages:
            if undisturbed:
                deliveries.setdefault(base_tick + 1, []).append(
                    (destination, sender, predicate, facts))
                inflight_to[destination] += len(facts)
                continue
            by_arrival: Dict[int, List[Fact]] = {}
            for fact in facts:
                arrival = base_tick + 1
                if (self.delay_probability > 0.0
                        and self._rng.random() < self.delay_probability):
                    arrival += 1
                copies = 1
                if self._channel_faults is not None and destination != sender:
                    verdict = self._channel_faults.decide(
                        self._tags[sender], self._tags[destination])
                    if verdict == DROP:
                        continue
                    if verdict == DELAY:
                        arrival += 2
                    elif verdict == DUPLICATE:
                        copies = 2
                by_arrival.setdefault(arrival, []).extend([fact] * copies)
            for arrival, due in by_arrival.items():
                deliveries.setdefault(arrival, []).append(
                    (destination, sender, predicate, due))
                inflight_to[destination] += len(due)

    def _deliver_ssp(self, messages: Sequence[Message],
                     inflight_to: Counter) -> None:
        """Stage due messages, batched per ``(dest, sender, pred)``."""
        tracing = self.tracer.enabled
        for destination, _sender, _predicate, facts in messages:
            inflight_to[destination] -= len(facts)
        groups = _merged(((destination, sender, predicate), facts)
                         for destination, sender, predicate, facts in messages)
        for (destination, sender, predicate), facts in groups.items():
            remote = destination != sender
            self.runtimes[destination].receive(predicate, facts, remote=remote)
            if remote and tracing:
                self.tracer.tuple_received(
                    self._tags[destination], self._tags[sender], predicate,
                    count=len(facts))

    def _apply_kill_ssp(self, proc: ProcessorId, tick: int,
                        deliveries: Dict[int, List[Message]],
                        inflight_to: Counter,
                        clock: Dict[ProcessorId, int],
                        busy_until: Dict[ProcessorId, int]) -> None:
        """Fire one armed kill at a step boundary of the SSP engine.

        Same restart-and-replay protocol as the BSP path, adapted to the
        tick clock: the rebuilt processor's SSP clock restarts at 0,
        which can only *lower* the horizon — peers over-throttle rather
        than race ahead of a recovering processor, which is the sound
        direction.
        """
        firings = self.runtimes[proc].counters.total_firings()
        tag = self._tags[proc]
        tracing = self.tracer.enabled
        del self._kill_after[proc]
        if tracing:
            self.tracer.worker_down(tag, firings=firings, tick=tick)
        if self.recovery != "restart":
            raise ExecutionError(
                f"processor {tag!r} killed by injected fault after "
                f"{firings} firings (recovery policy is 'fail')")
        local = self.program.local_database(proc, self.database)
        self.runtimes[proc] = ProcessorRuntime(
            self.program.program_for(proc), local,
            reorder=self._reorder, tracer=self.tracer)
        self.metrics.restarts += 1
        clock[proc] = 0
        if tracing:
            self.tracer.worker_restart(tag, tick=tick)
        for src in self._order:
            if src == proc:
                continue
            log = self._sent_log.get((src, proc), [])
            if not log:
                continue
            replay_pairs = _merged(log)
            deliveries.setdefault(tick + 1, []).extend(
                (proc, src, predicate, facts) for predicate, facts in log)
            count = sum(len(facts) for _, facts in log)
            inflight_to[proc] += count
            self.metrics.sent[(src, proc)] += count
            self.metrics.channel_messages[(src, proc)] += 1
            self.metrics.channel_bytes[(src, proc)] += approx_batch_bytes(
                replay_pairs.items())
            self.metrics.replayed[src] += count
            if tracing:
                self.tracer.replay(self._tags[src], tag, count)
        self._schedule_ssp(
            self._route(proc, self.runtimes[proc].initialize_batches()),
            tick, deliveries, inflight_to)
        busy_until[proc] = tick + 1  # re-initialization occupies one tick

    def _run_ssp(self) -> ParallelResult:
        """Execute under bounded staleness until global quiescence.

        The engine advances a global tick.  Each processor is either
        *busy* (inside a step whose cost is ``ceil(max(work, 1) /
        capacity)`` ticks), *idle* (no staged input), *stalled*
        (staged input but throttled by the staleness bound), or starts
        a new step.  The horizon is the minimum clock over processors
        that still hold work — staged input, a step in progress, or
        in-flight messages headed their way; processors without work
        are excluded so a finished processor can never throttle the
        rest (and an idle cluster terminates).  A processor may start
        a step only while ``clock - horizon < staleness``.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        metrics = self.metrics
        if tracing:
            tracer.run_start(scheme=self.program.scheme,
                             processors=[self._tags[p] for p in self._order],
                             executor="simulator")
            for proc in self._order:
                tracer.worker_spawn(self._tags[proc])

        deliveries: Dict[int, List[Message]] = {}
        inflight_to: Counter = Counter()
        clock: Dict[ProcessorId, int] = {p: 0 for p in self._order}
        busy_until: Dict[ProcessorId, int] = {p: 1 for p in self._order}
        stalled_now: Set[ProcessorId] = set()
        for proc in self._order:
            # Initialization rules fire at tick 0 and occupy it.
            emissions = self.runtimes[proc].initialize_batches()
            self._schedule_ssp(self._route(proc, emissions), 0,
                               deliveries, inflight_to)
            metrics.busy[proc] += 1

        tick = 1
        while True:
            if tick > self.max_rounds:
                raise ExecutionError(
                    f"no quiescence after {self.max_rounds} ticks")
            arrivals = deliveries.pop(tick, None)
            if arrivals:
                self._deliver_ssp(arrivals, inflight_to)

            busy = {p: busy_until[p] > tick for p in self._order}
            if self._kill_after:
                for proc in list(self._kill_after):
                    threshold = self._kill_after[proc]
                    if (not busy[proc] and self.runtimes[proc].counters
                            .total_firings() >= threshold):
                        self._apply_kill_ssp(proc, tick, deliveries,
                                             inflight_to, clock, busy_until)
                        busy[proc] = True

            pending = {p: self.runtimes[p].has_pending_input()
                       for p in self._order}
            holders = [p for p in self._order
                       if busy[p] or pending[p] or inflight_to[p] > 0]
            if not holders:
                break
            horizon = min(clock[p] for p in holders)

            for proc in self._order:
                if busy[proc]:
                    metrics.busy[proc] += 1
                    continue
                runtime = self.runtimes[proc]
                if not pending[proc]:
                    metrics.idle[proc] += 1
                    stalled_now.discard(proc)
                    continue
                lag = clock[proc] - horizon
                if lag >= self.staleness:
                    metrics.stalled[proc] += 1
                    if proc not in stalled_now:
                        stalled_now.add(proc)
                        if tracing:
                            tracer.worker_stalled(
                                self._tags[proc], lag,
                                staged=runtime.staged_size(), tick=tick)
                    continue
                stalled_now.discard(proc)
                lead = clock[proc] + 1 - horizon
                if lead > metrics.max_staleness_lag:
                    metrics.max_staleness_lag = lead
                before = runtime.work_done()
                emissions = runtime.step_batches()
                work = runtime.work_done() - before
                speed = self._capacity.get(self._tags[proc], 1.0)
                duration = max(1, int(math.ceil(max(work, 1.0) / speed)))
                clock[proc] += 1
                busy_until[proc] = tick + duration
                metrics.busy[proc] += 1
                # Emissions travel once the step completes: schedule
                # against the step's last busy tick.
                self._schedule_ssp(self._route(proc, emissions),
                                   tick + duration - 1, deliveries,
                                   inflight_to)
            tick += 1

        metrics.ticks = tick
        metrics.rounds = max(clock.values(), default=0)
        return self._finish()

    # ------------------------------------------------------------------
    def _finish(self) -> ParallelResult:
        """Harvest counters, pool the answers, close the trace."""
        tracer = self.tracer
        tracing = tracer.enabled
        counters = {p: self.runtimes[p].counters for p in self._order}
        for proc in self._order:
            self.metrics.firings[proc] = counters[proc].total_firings()
            self.metrics.probes[proc] = counters[proc].probes
            self.metrics.received[proc] = self.runtimes[proc].received_remote
            self.metrics.duplicates_dropped[proc] = (
                self.runtimes[proc].duplicates_dropped)
            if tracing:
                tracer.worker_exit(self._tags[proc],
                                   firings=self.metrics.firings[proc],
                                   probes=self.metrics.probes[proc],
                                   received=self.metrics.received[proc])
        output = Database()
        for predicate in self.program.derived:
            arity = self.program.program_for(self._order[0]).arities[predicate]
            pooled = Relation(predicate, arity)
            for proc in self._order:
                pooled.update(self.runtimes[proc].output_relation(predicate))
                self.metrics.pooled_tuples += len(
                    self.runtimes[proc].output_relation(predicate))
            output.attach(pooled)
        if tracing:
            tracer.run_end(rounds=self.metrics.rounds,
                           firings=self.metrics.total_firings(),
                           sent=self.metrics.total_sent(),
                           pooled=self.metrics.pooled_tuples)
        return ParallelResult(output=output, metrics=self.metrics,
                              counters=counters)


def _merged(batches: Iterable[Tuple[Hashable, List[Fact]]]
            ) -> Dict[Hashable, List[Fact]]:
    """Batches concatenated per key, keys and tuples in arrival order.

    A lone batch is passed through as it is; two under one key (a
    replay beside a routing call) merge into a new list, never in
    place — a batch may also sit in a sent-log.
    """
    merged: Dict[Hashable, List[Fact]] = {}
    copied: Set[Hashable] = set()
    for key, facts in batches:
        group = merged.get(key)
        if group is None:
            merged[key] = facts
        elif key in copied:
            group.extend(facts)
        else:
            merged[key] = group + facts
            copied.add(key)
    return merged


def run_parallel(program: ParallelProgram, database: Database,
                 **options: object) -> ParallelResult:
    """Convenience wrapper: build a cluster and run it to completion."""
    return SimulatedCluster(program, database, **options).run()
