"""Per-processor runtime: the semi-naive loop of one ``Q_i``.

A :class:`ProcessorRuntime` owns the local database of one processor —
its base fragments and its ``t_in``/``t_out`` relations — and exposes
the two operations the abstract architecture of Section 3 needs:
*initialize* (fire the initialization rules once) and *step* (ingest
received tuples, fire the processing rules semi-naively on the new
ones, and emit the generated output tuples, split by target).  The
semi-naive state over ``t_in`` is the sequential engine's own
:class:`~repro.engine.seminaive.DeltaLoop`, fed by the receive stage.

The runtime applies the sending rules itself, through its program's
:class:`~.routing.RouterTable`, and stores each derived fact once:

* where a fact goes to at most one processor (one point-to-point
  route: Examples 1 and 3, ``hash``, Wolfson's scheme) a step's
  produced batch is routed before any dedup.  The share addressed to
  this processor is emitted as it is and deduplicated once, when it is
  ingested into ``t_in``; each remote share is deduplicated against
  ``t_out``, which holds only the facts already sent;
* where one fact can have several targets (Example 2's broadcast, the
  general rewrite's routes) a fact must be deduplicated once before it
  is split: the batch goes through ``t_out`` first and the fresh facts
  are routed.

Facts that no route takes stay in a small ``kept`` relation.  A
processor's part of the answer (:meth:`ProcessorRuntime.output_relation`)
is its ``t_in`` plus ``kept``, and the union of the parts is the
paper's final pooling ``t(W) :- t_out^i(W)``.

Receives are asynchronous (the paper stresses this): a step simply
consumes whatever has been staged so far and never waits for any
particular sender.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..engine.counters import EvalCounters
from ..engine.planner import compile_plan
from ..engine.seminaive import DeltaLoop, run_plans
from ..facts.database import Database
from ..facts.packing import packed_fact_count, packed_rows
from ..facts.relation import Fact, Relation
from ..obs.tracer import Tracer, ensure_tracer
from .naming import processor_tag
from .plans import ProcessorProgram

__all__ = ["ProcessorRuntime", "Routed"]

ProcessorId = Hashable
Buckets = Dict[ProcessorId, List[Fact]]


class Routed:
    """One predicate's emitted tuples, already split by target.

    :attr:`buckets` maps each target to its share, in first-seen target
    order: what the executors send.  Iterating yields every tuple a
    caller that routes for itself has to route: the fresh tuples of a
    multi-target predicate (the ones no route takes included), or the
    buckets one after the other.
    """

    __slots__ = ("buckets", "_facts")

    def __init__(self, buckets: Buckets,
                 facts: Optional[List[Fact]] = None) -> None:
        self.buckets = buckets
        self._facts = facts

    def __iter__(self) -> Iterator[Fact]:
        if self._facts is not None:
            return iter(self._facts)
        return chain.from_iterable(self.buckets.values())

    def __len__(self) -> int:
        if self._facts is not None:
            return len(self._facts)
        return sum(map(len, self.buckets.values()))


Emission = Tuple[str, Fact]  # (derived predicate, tuple)
EmissionBatch = Tuple[str, Routed]  # (derived predicate, routed tuples)


class ProcessorRuntime:
    """Executable state of one processor.

    Args:
        program: the processor's rewritten program.
        local_base: the processor's local database
            (:meth:`~.plans.ParallelProgram.local_database`; consumed:
            the runtime takes ownership of it).
        counters: optional externally owned counters.
        tracer: optional :class:`~repro.obs.Tracer`; every firing,
            duplicate drop and staged receive becomes a typed event.
    """

    def __init__(self, program: ProcessorProgram, local_base: Database,
                 counters: Optional[EvalCounters] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.program = program
        self.tracer = ensure_tracer(tracer)
        self.tag = processor_tag(program.processor)
        self.counters = counters if counters is not None else EvalCounters()
        self.working = local_base
        self.duplicates_dropped = 0
        self.received_total = 0
        self.received_remote = 0
        self.emitted = 0
        self.broadcast_tuples = 0

        self._out_to_pred: Dict[str, str] = {}
        self._out: Dict[str, Relation] = {}
        self._kept: Dict[str, Relation] = {}
        # Staged input per predicate: ``(tuples, remote)`` chunks in
        # arrival order.
        self._staged: Dict[str, List[Tuple[List[Fact], bool]]] = {}

        for pred, iname in program.in_names.items():
            self.working.declare(iname, program.arities[pred])
            self._staged[pred] = []
        for pred, oname in program.out_names.items():
            self._out[pred] = self.working.declare(oname, program.arities[pred])
            self._out_to_pred[oname] = pred
            self._kept[pred] = Relation(pred, program.arities[pred])
        self._router = program.router_table()
        self._route_first = {pred for pred in program.out_names
                             if self._router.single_target(pred)}
        # Where that one target is this processor whatever the fact,
        # the whole batch is the own share, with nothing to split.
        self._all_own = {pred for pred in self._route_first
                         if self._router.sole_target(pred)
                         == program.processor}

        self._init_plans = [compile_plan(rule) for rule in program.init_rules]
        self._loop = DeltaLoop(self.working, program.in_names.values(),
                               program.processing_rules)

    # ------------------------------------------------------------------
    # The five execution steps (operational form)
    # ------------------------------------------------------------------
    def initialize(self) -> List[Emission]:
        """Fire the initialization rules once; return the tuples to
        route, this processor's own share included."""
        return _flatten(self.initialize_batches())

    def initialize_batches(self) -> List[EmissionBatch]:
        """:meth:`initialize`, the tuples kept as one :class:`Routed`
        per derived predicate (what the executors send).

        Whatever ``t_out`` starts with goes out first: the facts a
        derived predicate starts with, at the one processor
        :meth:`~.plans.ParallelProgram.local_database` seeds them into.
        They are routed like produced facts, and count no firing, as in
        sequential evaluation.
        """
        seeds: Dict[str, List[Fact]] = {}
        for pred, out in self._out.items():
            if out:
                seeds[self.program.out_names[pred]] = list(out)
                out.clear()
        return self._emit(seeds) + self._emit(run_plans(
            self._init_plans, self.working, self.counters, self.tracer,
            self.tag))

    def _emit(self, produced: Dict[str, List[Fact]]) -> List[EmissionBatch]:
        """Route each head's produced batch and store each fact once.

        A single-target predicate is routed first: the own share is
        emitted as produced (``t_in`` deduplicates it at ingest; the
        whole batch, unsplit, where every fact is bound here) and
        each remote share keeps the facts that are new to ``t_out``.  A
        multi-target predicate is deduplicated into ``t_out`` first and
        its fresh facts (first-occurrence order) are split.  The facts
        no route takes join ``kept``.
        """
        emitted: List[EmissionBatch] = []
        me = self.program.processor
        for head, facts in produced.items():
            pred = self._out_to_pred[head]
            out = self._out[pred]
            if pred in self._all_own:
                routed, unrouted = Routed({me: facts}), None
            elif pred in self._route_first:
                buckets, _, unrouted = self._router.split(pred, facts)
                for target, bucket in list(buckets.items()):
                    if target != me:
                        fresh = out.add_new_many(bucket)
                        if fresh:
                            buckets[target] = fresh
                        else:
                            del buckets[target]
                routed = Routed(buckets)
            else:
                fresh = out.add_new_many(facts)
                buckets, broadcasts, unrouted = self._router.split(pred, fresh)
                self.broadcast_tuples += broadcasts
                routed = Routed(buckets, fresh)
            if unrouted:
                self._kept[pred].update(unrouted)
            count = len(routed)
            if count:
                self.emitted += count
                emitted.append((pred, routed))
        return emitted

    def receive(self, predicate: str, facts: Sequence[Fact],
                remote: bool = True) -> None:
        """Stage tuples arriving on this processor's channels.

        Args:
            predicate: the derived predicate the tuples belong to.
            facts: the tuples.
            remote: False for self-deliveries, which cost no
                communication (Example 1's zero-communication schemes
                deliver everything this way) and whose duplicates are
                not counted in :attr:`duplicates_dropped`.
        """
        if facts:
            self._staged[predicate].append((list(facts), remote))
        self.received_total += len(facts)
        if remote:
            self.received_remote += len(facts)

    def receive_packed(self, predicate: str, payload: Tuple,
                       remote: bool = True) -> None:
        """:meth:`receive` for a packed-column payload (see
        :mod:`repro.facts.packing`): its columns are decoded and
        transposed into one staged chunk.
        """
        count = packed_fact_count(payload)
        if count:
            self._staged[predicate].append((list(packed_rows(payload)),
                                            remote))
        self.received_total += count
        if remote:
            self.received_remote += count

    def has_pending_input(self) -> bool:
        """True iff staged tuples await the next step."""
        return any(self._staged.values())

    def keep(self, predicate: str, facts: Sequence[Fact]) -> None:
        """Put tuples that no channel will deliver (a dropped message)
        into this processor's part of the answer."""
        self._kept[predicate].update(facts)

    def step(self) -> List[Emission]:
        """Run one semi-naive round over the staged input.

        Returns the generated output tuples to route, this
        processor's own share included.  With no staged input the
        processor is idle and emits nothing.
        """
        return _flatten(self.step_batches())

    def step_batches(self) -> List[EmissionBatch]:
        """:meth:`step`, the tuples kept as one :class:`Routed` per
        derived predicate (what the executors send)."""
        # Ingest: new tuples are the next deltas, duplicates are discarded
        # by the difference operation of the paper's receiving step.  One
        # ``add_new_many`` per staged chunk, in arrival order: first
        # occurrence wins, and a tuple that arrived over a channel when
        # ``t_in`` already held it is a drop, exactly the per-fact
        # ``add`` accounting.  The own share's duplicates never crossed
        # a channel and are not counted.
        tracer = self.tracer
        tracing = tracer.enabled
        in_names = self.program.in_names
        full = self._loop.full
        fresh_of: Dict[str, List[Fact]] = {}
        for pred, chunks in self._staged.items():
            if not chunks:
                continue
            relation = full[in_names[pred]]
            fresh: List[Fact] = []
            dropped = 0
            for facts, remote in chunks:
                arrived = relation.add_new_many(facts)
                if remote:
                    dropped += len(facts) - len(arrived)
                if fresh:
                    fresh += arrived
                else:
                    fresh = arrived
            chunks.clear()
            if fresh:
                fresh_of[in_names[pred]] = fresh
            if dropped:
                self.duplicates_dropped += dropped
                if tracing:
                    tracer.tuple_dropped(self.tag, pred, count=dropped)
        self._loop.advance(fresh_of)
        if not fresh_of:
            return []

        self.counters.iterations += 1
        return self._emit(run_plans(self._loop.plans, self.working,
                                    self.counters, tracer, self.tag))

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def export_state(self) -> Tuple[Dict[str, List[Fact]],
                                    Dict[str, List[Fact]],
                                    Dict[str, List[Fact]]]:
        """Snapshot the derived state for a checkpoint.

        Returns ``(in_facts, out_facts, staged)``: the full input
        relations, the output relations (the facts already sent) and
        any staged-but-unprocessed tuples.  Taken at a burst boundary
        (no step in progress) this is a consistent cut of the
        processor: every fact in ``in_facts`` has already fired as a
        delta, so the deltas need not travel.  :meth:`kept_facts` is
        the rest of the processor's part of the answer.
        """
        staged: Dict[str, List[Fact]] = {
            pred: [fact for facts, _remote in chunks for fact in facts]
            for pred, chunks in self._staged.items() if chunks}
        full = self._loop.full
        return ({pred: list(full[iname])
                 for pred, iname in self.program.in_names.items()},
                {pred: list(rel) for pred, rel in self._out.items()},
                staged)

    def kept_facts(self) -> Dict[str, List[Fact]]:
        """The facts no route took, per derived predicate (checkpoint
        support beside :meth:`export_state`)."""
        return {pred: list(rel) for pred, rel in self._kept.items() if rel}

    def import_state(self, in_facts: Dict[str, Sequence[Fact]],
                     out_facts: Dict[str, Sequence[Fact]],
                     staged: Dict[str, Sequence[Fact]],
                     counters: Optional[Dict[str, object]] = None,
                     duplicates_dropped: int = 0,
                     kept: Optional[Dict[str, Sequence[Fact]]] = None
                     ) -> None:
        """Restore an :meth:`export_state` snapshot into a fresh runtime.

        Checkpointed input facts load into *full and prev* (where a
        prev relation is kept at all) with empty deltas: the checkpoint
        was cut at a burst boundary, where every fact in full had
        already fired, so re-firing on them would only re-derive
        duplicates (monotonicity makes that sound but wasteful, and it
        would double-count firings).  Output facts
        reload so later derivations dedup against them — a restored
        worker must not re-send what its predecessor already routed —
        and ``kept`` (a :meth:`kept_facts` snapshot) completes the
        restored part of the answer.  ``counters`` (an
        :meth:`EvalCounters.as_dict` snapshot) carries the
        predecessor's firing counts forward, keeping the cluster total
        equal to an undisturbed run.

        Call before :meth:`initialize`-time routing — a restored worker
        skips ``initialize()`` entirely, since its init-rule output is
        already inside ``in_facts``, ``out_facts`` and ``kept``.
        """
        for pred, facts in in_facts.items():
            iname = self.program.in_names[pred]
            self._loop.full[iname].update(facts)
            if iname in self._loop.prevs:
                self._loop.prevs[iname].update(facts)
        for pred, facts in out_facts.items():
            self._out[pred].update(facts)
        for pred, facts in (kept or {}).items():
            self._kept[pred].update(facts)
        for pred, facts in staged.items():
            if facts:
                self._staged[pred].append((list(facts), True))
        if counters is not None:
            self.counters = EvalCounters.from_dict(counters)
        self.duplicates_dropped += duplicates_dropped

    def output_relation(self, predicate: str) -> Relation:
        """This processor's part of the answer for ``predicate``: its
        ``t_in`` full relation plus the facts no route took (final
        pooling).  The part is ``t_in`` itself when nothing was kept."""
        kept = self._kept[predicate]
        iname = self.program.in_names.get(predicate)
        if iname is None:
            return kept
        full = self._loop.full[iname]
        if not kept:
            return full
        part = full.copy(predicate)
        part.update(kept)
        return part

    def output_size(self) -> int:
        """Total tuples emitted for routing so far, the own share's
        copies included (route-first stores that share only once it is
        ingested into ``t_in``)."""
        return self.emitted

    def work_done(self) -> float:
        """Engine operations performed so far (firings + probes)."""
        return self.counters.total_firings() + self.counters.probes

    def __repr__(self) -> str:
        return (f"ProcessorRuntime({self.program.processor!r}, "
                f"out={self.output_size()}, {self.counters!r})")


def _flatten(batches: Sequence[EmissionBatch]) -> List[Emission]:
    """Per-predicate batches as the flat ``(predicate, tuple)`` list."""
    return [(pred, fact) for pred, facts in batches for fact in facts]
