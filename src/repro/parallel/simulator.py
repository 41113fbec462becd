"""A deterministic simulated cluster for rewritten programs.

The abstract architecture of Section 3: a set of processors, a reliable
channel ``ij`` for every ordered pair, asynchronous receives.  The
simulator runs it in the paper's rounds: at every tick each processor
ingests whatever reached it and, if it has new tuples, fires its
processing rules semi-naively on them once; the outputs are routed for
delivery at the next tick.  So every tick is one barriered round, and
its per-processor loads feed the makespan model of
:class:`~.metrics.ParallelMetrics`.  Ticks make every metric exactly
reproducible; message *delay* can be injected (a tuple is held back one
extra tick, drawn once at send) to exercise the asynchrony the paper
claims the schemes tolerate.

Termination is the condition that all processors are idle and all
channels empty.  The simulator sees this globally; optionally it also
runs Safra's token-ring termination-detection algorithm — the
"standard algorithm of Distributed Computing" the paper defers to
[5, 7] — and reports its control-message overhead and detection delay.

Fault injection (see :mod:`repro.parallel.faults`) is per-tuple
channel faults only: drop, delay or duplicate a tuple at send time, from
a seeded RNG.  Worker kills and their recovery belong to the
multiprocessing executor, whose protocol machines the schedule explorer
checks (``tests/parallel/test_protocol_explorer.py``); a plan holding a
kill is a :class:`~repro.errors.ConfigurationError` here.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from ..engine.collector import collect_young, collector_paused
from ..engine.counters import EvalCounters
from ..errors import ConfigurationError, ExecutionError
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
# One in-flight batch: (dest, sender, pred, tuples) — what one routing
# call put on one channel for one predicate.
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
        delay_probability: chance in ``[0, 1]`` that a tuple takes one
            extra tick, drawn once at send (asynchrony injection).
        seed: RNG seed for delay injection.
        detect_termination: additionally run Safra's algorithm and
            record its control-message overhead.
        max_rounds: safety valve against non-terminating executions,
            in ticks.
        network: optional :class:`~repro.network.netgraph.NetworkGraph`
            restricting which channels exist (Definition 3 — no
            indirect routing).  A send over a missing channel raises
            :class:`~repro.errors.ExecutionError`; running a program on
            its own derived minimal network must therefore succeed
            (Section 5's "adapt the parallel execution onto an existing
            parallel architecture").
        tracer: optional :class:`~repro.obs.Tracer`.  The simulator is
            tick-based and fully deterministic, so the tracer should
            carry no clock: equal seeds then yield byte-identical
            event streams.
        faults: optional :class:`~repro.parallel.faults.FaultPlan` of
            channel faults to inject (per-tuple drop/delay/duplicate
            from the plan's own seeded RNG).

    Raises:
        ConfigurationError: on a delay probability outside ``[0, 1]``,
            or a fault plan holding a kill (an mp-only fault).
    """

    def __init__(self, program: ParallelProgram, database: Database,
                 delay_probability: float = 0.0, seed: int = 0,
                 detect_termination: bool = False,
                 max_rounds: int = 1_000_000,
                 network: Optional["NetworkGraph"] = None,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        if faults is not None and faults.kills:
            raise ConfigurationError(
                "the simulator injects channel faults only: a kill fault "
                "needs real worker processes "
                "(repro.parallel.mp.run_multiprocessing)")
        if not 0.0 <= delay_probability <= 1.0:
            raise ConfigurationError(
                f"delay_probability must be in [0, 1], got "
                f"{delay_probability!r}")
        self.program = program
        self.delay_probability = delay_probability
        self.detect_termination = detect_termination
        self.max_rounds = max_rounds
        self.network = network
        self.tracer = ensure_tracer(tracer)
        self._rng = random.Random(seed)
        self._order = sorted(program.processors, key=processor_tag)
        self._tags = {proc: processor_tag(proc) for proc in self._order}
        self.runtimes: Dict[ProcessorId, ProcessorRuntime] = {}
        for proc in self._order:
            local = program.local_database(proc, database)
            self.runtimes[proc] = ProcessorRuntime(
                program.program_for(proc), local, tracer=self.tracer)
        self.metrics = ParallelMetrics(
            scheme=program.scheme, processors=tuple(self._order))
        self._detector = (_SafraDetector(self._order)
                          if detect_termination else None)
        self._channel_faults = (faults.channel_state()
                                if faults is not None else None)

    # ------------------------------------------------------------------
    def _route(self, sender: ProcessorId,
               emissions: Sequence[EmissionBatch]) -> List[Message]:
        """Put the per-target buckets of ``sender``'s new outputs on
        their channels.

        The runtime has already split each predicate's batch by target
        (:class:`~.processor.Routed`); ``sent`` and ``self_delivered``
        are bumped by bucket size.  Each ``(sender, target, predicate)``
        bucket travels as one message, counts as one in the
        ``channel_messages``/``channel_bytes`` accounting and becomes
        one counted ``tuple_sent`` event.
        """
        messages: List[Message] = []
        metrics = self.metrics
        tracing = self.tracer.enabled
        total_remote = 0
        for predicate, routed in emissions:
            for target, bucket in routed.buckets.items():
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
                    if tracing:
                        self.tracer.tuple_sent(self._tags[sender],
                                               self._tags[target], predicate,
                                               count=count)
                messages.append((target, sender, predicate, bucket))
        if self._detector is not None:
            self._detector.on_send(sender, total_remote)
        return messages

    def _schedule(self, messages: Sequence[Message], base_tick: int,
                  deliveries: Dict[int, List[Message]],
                  inflight_to: Counter) -> None:
        """Schedule routed messages for future delivery.

        Arrival is ``base_tick + 1`` (a channel hop costs one tick).
        Injected delay and channel faults are decided here, once per
        tuple: ``delay_probability`` adds one tick, a channel ``delay``
        two, a drop discards (so a scheduled tuple is always delivered;
        the lost tuple joins its sender's part of the answer) and a
        duplicate schedules two copies.  A batch splits only by arrival
        tick.
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
            dropped: List[Fact] = []
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
                        dropped.append(fact)
                        continue
                    if verdict == DELAY:
                        arrival += 2
                    elif verdict == DUPLICATE:
                        copies = 2
                by_arrival.setdefault(arrival, []).extend([fact] * copies)
            if dropped:
                self.runtimes[sender].keep(predicate, dropped)
            for arrival, due in by_arrival.items():
                deliveries.setdefault(arrival, []).append(
                    (destination, sender, predicate, due))
                inflight_to[destination] += len(due)

    def _deliver(self, messages: Sequence[Message],
                 inflight_to: Counter) -> Dict[ProcessorId, int]:
        """Stage due messages per ``(dest, sender, pred)``; return the
        per-processor count of remote tuples delivered."""
        tracing = self.tracer.enabled
        remote_received: Dict[ProcessorId, int] = {}
        for destination, _sender, _predicate, facts in messages:
            inflight_to[destination] -= len(facts)
        groups = _merged(((destination, sender, predicate), facts)
                         for destination, sender, predicate, facts in messages)
        for (destination, sender, predicate), facts in groups.items():
            remote = destination != sender
            self.runtimes[destination].receive(predicate, facts, remote=remote)
            if remote:
                remote_received[destination] = (
                    remote_received.get(destination, 0) + len(facts))
                if tracing:
                    self.tracer.tuple_received(
                        self._tags[destination], self._tags[sender],
                        predicate, count=len(facts))
        if self._detector is not None:
            for proc, count in remote_received.items():
                self._detector.on_receive(proc, count)
        return remote_received

    @collector_paused()
    def run(self) -> ParallelResult:
        """Execute to quiescence and pool the answers.

        Tick 0 fires the initialization rules.  At every later tick the
        due messages are delivered, and each processor with staged input
        takes one step; the others are idle.  The run ends at the first
        tick at which no processor has staged input and no message is in
        flight (and, with Safra's detector, once it has detected that).

        Raises:
            ExecutionError: if ``max_rounds`` ticks pass without
                quiescence.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.run_start(scheme=self.program.scheme,
                             processors=[self._tags[p] for p in self._order],
                             executor="simulator")
            tracer.current_round = 0
            for proc in self._order:
                tracer.worker_spawn(self._tags[proc])

        deliveries: Dict[int, List[Message]] = {}
        inflight_to: Counter = Counter()
        for proc in self._order:
            emissions = self.runtimes[proc].initialize_batches()
            self._schedule(self._route(proc, emissions), 0, deliveries,
                           inflight_to)

        quiescent_tick: Optional[int] = None
        tick = 1
        while True:
            if not any(inflight_to[p] > 0
                       or self.runtimes[p].has_pending_input()
                       for p in self._order):
                if quiescent_tick is None:
                    quiescent_tick = tick - 1
                if self._detector is None or self._detector.detected:
                    break
            if tick > self.max_rounds:
                raise ExecutionError(
                    f"no quiescence after {self.max_rounds} ticks")
            if tracing:
                tracer.round_start(tick)
            received = self._deliver(deliveries.pop(tick, []), inflight_to)

            tick_work: Dict[ProcessorId, float] = {}
            tick_sent: Dict[ProcessorId, int] = {}
            idle: Dict[ProcessorId, bool] = {}
            for proc in self._order:
                runtime = self.runtimes[proc]
                if not runtime.has_pending_input():
                    idle[proc] = True
                    continue
                before = runtime.work_done()
                emissions = runtime.step_batches()
                tick_work[proc] = runtime.work_done() - before
                idle[proc] = not emissions and not runtime.has_pending_input()
                messages = self._route(proc, emissions)
                self._schedule(messages, tick, deliveries, inflight_to)
                tick_sent[proc] = sum(
                    len(facts) for destination, _, _, facts in messages
                    if destination != proc)
                # The step's facts leave the collector while in cache.
                collect_young()
            self._record_round(tick, tick_work, tick_sent, received)

            if self._detector is not None:
                hops_before = self._detector.hops
                self._detector.advance(idle)
                if tracing and self._detector.hops > hops_before:
                    tracer.probe(algorithm="safra-token",
                                 hops=self._detector.hops,
                                 detected=self._detector.detected)
            tick += 1

        if self._detector is not None:
            self.metrics.control_messages = self._detector.hops
            self.metrics.detection_rounds = tick - 1 - quiescent_tick
        self.metrics.rounds = tick - 1
        return self._finish()

    def _record_round(self, tick: int, work: Dict[ProcessorId, float],
                      sent: Dict[ProcessorId, int],
                      received: Dict[ProcessorId, int]) -> None:
        """Record one round's per-processor loads for the cost model."""
        metrics = self.metrics
        round_work = {p: work.get(p, 0) for p in self._order}
        round_sent = {p: sent.get(p, 0) for p in self._order}
        round_received = {p: received.get(p, 0) for p in self._order}
        metrics.per_round_work.append(round_work)
        metrics.per_round_sent.append(round_sent)
        metrics.per_round_received.append(round_received)
        if self.tracer.enabled:
            tags = self._tags
            self.tracer.round_end(
                tick, work={tags[p]: n for p, n in round_work.items()},
                sent={tags[p]: n for p, n in round_sent.items()},
                received={tags[p]: n for p, n in round_received.items()})

    # ------------------------------------------------------------------
    def _finish(self) -> ParallelResult:
        """Harvest counters, pool the answers, close the trace."""
        tracer = self.tracer
        tracing = tracer.enabled
        counters = {p: self.runtimes[p].counters for p in self._order}
        for proc in self._order:
            self.metrics.broadcast_tuples += self.runtimes[proc].broadcast_tuples
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
        # Final pooling: the union of the processors' parts, each its
        # ``t_in`` plus the facts no route took.
        output = Database()
        for predicate in self.program.derived:
            arity = self.program.program_for(self._order[0]).arities[predicate]
            pooled = Relation(predicate, arity)
            for proc in self._order:
                part = self.runtimes[proc].output_relation(predicate)
                pooled.update(part)
                self.metrics.pooled_tuples += len(part)
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

    A lone batch is passed through as it is; a later batch under the
    same key (a delayed batch beside an undelayed one) is appended to
    the first, a list built for this delivery alone.
    """
    merged: Dict[Hashable, List[Fact]] = {}
    for key, facts in batches:
        group = merged.get(key)
        if group is None:
            merged[key] = facts
        else:
            group.extend(facts)
    return merged


def run_parallel(program: ParallelProgram, database: Database,
                 **options: object) -> ParallelResult:
    """Convenience wrapper: build a cluster and run it to completion."""
    return SimulatedCluster(program, database, **options).run()
