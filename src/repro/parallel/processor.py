"""Per-processor runtime: the semi-naive loop of one ``Q_i``.

A :class:`ProcessorRuntime` owns the local database of one processor —
its base fragments and its ``t_in``/``t_out`` relations — and exposes
the two operations the abstract architecture of Section 3 needs:
*initialize* (fire the initialization rules once) and *step* (ingest
received tuples, fire the processing rules semi-naively on the new
ones, and emit the newly generated output tuples for the sending rules
to route).  The semi-naive state over ``t_in`` is the sequential
engine's own :class:`~repro.engine.seminaive.DeltaLoop`, fed by the
receive stage; the runtime keeps ``t_out``, staging and routing.

Receives are asynchronous (the paper stresses this): a step simply
consumes whatever has been staged so far and never waits for any
particular sender.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..engine.counters import EvalCounters
from ..engine.planner import compile_plan
from ..engine.seminaive import DeltaLoop, run_plans
from ..facts.database import Database
from ..facts.packing import packed_fact_count, packed_rows
from ..facts.relation import Fact, Relation
from ..obs.tracer import Tracer, ensure_tracer
from .naming import processor_tag
from .plans import ProcessorProgram

__all__ = ["ProcessorRuntime"]

ProcessorId = Hashable
Emission = Tuple[str, Fact]  # (derived predicate, tuple)
EmissionBatch = Tuple[str, List[Fact]]  # (derived predicate, new tuples)


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

        self._out_to_pred: Dict[str, str] = {}
        self._out: Dict[str, Relation] = {}
        self._staged: Dict[str, List[Fact]] = {}

        for pred, iname in program.in_names.items():
            self.working.declare(iname, program.arities[pred])
            self._staged[pred] = []
        for pred, oname in program.out_names.items():
            self._out[pred] = self.working.declare(oname, program.arities[pred])
            self._out_to_pred[oname] = pred

        self._init_plans = [compile_plan(rule) for rule in program.init_rules]
        self._loop = DeltaLoop(self.working, program.in_names.values(),
                               program.processing_rules)

    # ------------------------------------------------------------------
    # The five execution steps (operational form)
    # ------------------------------------------------------------------
    def initialize(self) -> List[Emission]:
        """Fire the initialization rules once; return new output tuples."""
        return _flatten(self.initialize_batches())

    def initialize_batches(self) -> List[EmissionBatch]:
        """:meth:`initialize`, the new tuples kept as one list per
        derived predicate (what the executors route).

        Whatever ``t_out`` starts with goes out first: the facts a
        derived predicate starts with, at the one processor
        :meth:`~.plans.ParallelProgram.local_database` seeds them into.
        They count no firing, as in sequential evaluation.
        """
        seeds = [(pred, list(out)) for pred, out in self._out.items() if out]
        return seeds + self._emit(run_plans(
            self._init_plans, self.working, self.counters, self.tracer,
            self.tag))

    def _emit(self, produced: Dict[str, List[Fact]]) -> List[EmissionBatch]:
        """Dedup each head's batch into its ``t_out``; the fresh facts
        (first-occurrence order) are exactly what gets routed."""
        emitted: List[EmissionBatch] = []
        for head, facts in produced.items():
            pred = self._out_to_pred[head]
            fresh = self._out[pred].add_new_many(facts)
            if fresh:
                emitted.append((pred, fresh))
        return emitted

    def receive(self, predicate: str, facts: Sequence[Fact],
                remote: bool = True) -> None:
        """Stage tuples arriving on this processor's channels.

        Args:
            predicate: the derived predicate the tuples belong to.
            facts: the tuples.
            remote: False for self-deliveries, which cost no
                communication (Example 1's zero-communication schemes
                deliver everything this way).
        """
        self._staged[predicate].extend(facts)
        self.received_total += len(facts)
        if remote:
            self.received_remote += len(facts)

    def receive_packed(self, predicate: str, payload: Tuple,
                       remote: bool = True) -> None:
        """:meth:`receive` for a packed-column DATA payload (see
        :mod:`repro.facts.packing`): its columns are decoded and
        transposed straight onto the staged rows, with no list between.
        """
        count = packed_fact_count(payload)
        self._staged[predicate].extend(packed_rows(payload))
        self.received_total += count
        if remote:
            self.received_remote += count

    def has_pending_input(self) -> bool:
        """True iff staged tuples await the next step."""
        return any(self._staged.values())

    def step(self) -> List[Emission]:
        """Run one semi-naive round over the staged input.

        Returns the newly generated output tuples (for routing).  With
        no staged input the processor is idle and emits nothing.
        """
        return _flatten(self.step_batches())

    def step_batches(self) -> List[EmissionBatch]:
        """:meth:`step`, the new tuples kept as one list per derived
        predicate (what the executors route)."""
        # Ingest: new tuples are the next deltas, duplicates are discarded
        # by the difference operation of the paper's receiving step.  One
        # ``add_new_many`` per predicate: first occurrence wins, every
        # later occurrence is a drop, exactly the per-fact ``add``
        # accounting.
        tracer = self.tracer
        tracing = tracer.enabled
        in_names = self.program.in_names
        full = self._loop.full
        fresh_of: Dict[str, List[Fact]] = {}
        for pred, staged in self._staged.items():
            if not staged:
                continue
            fresh = full[in_names[pred]].add_new_many(staged)
            dropped = len(staged) - len(fresh)
            if fresh:
                fresh_of[in_names[pred]] = fresh
            if dropped:
                self.duplicates_dropped += dropped
                if tracing:
                    tracer.tuple_dropped(self.tag, pred, count=dropped)
            staged.clear()
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
        relations, the output relations and any staged-but-unprocessed
        tuples.  Taken at a burst boundary (no step in progress) this is
        a consistent cut of the processor: every fact in ``in_facts``
        has already fired as a delta, so the deltas need not travel.
        """
        staged: Dict[str, List[Fact]] = {
            pred: list(rows) for pred, rows in self._staged.items() if rows}
        full = self._loop.full
        return ({pred: list(full[iname])
                 for pred, iname in self.program.in_names.items()},
                {pred: list(rel) for pred, rel in self._out.items()},
                staged)

    def import_state(self, in_facts: Dict[str, Sequence[Fact]],
                     out_facts: Dict[str, Sequence[Fact]],
                     staged: Dict[str, Sequence[Fact]],
                     counters: Optional[Dict[str, object]] = None,
                     duplicates_dropped: int = 0) -> None:
        """Restore an :meth:`export_state` snapshot into a fresh runtime.

        Checkpointed input facts load into *full and prev* (where a
        prev relation is kept at all) with empty deltas: the checkpoint
        was cut at a burst boundary, where every fact in full had
        already fired, so re-firing on them would only re-derive
        duplicates (monotonicity makes that sound but wasteful, and it
        would double-count firings).  Output facts
        reload so later derivations dedup against them — a restored
        worker must not re-emit what its predecessor already routed.
        ``counters`` (an :meth:`EvalCounters.as_dict` snapshot) carries
        the predecessor's firing counts forward, keeping the cluster
        total equal to an undisturbed run.

        Call before :meth:`initialize`-time routing — a restored worker
        skips ``initialize()`` entirely, since its init-rule output is
        already inside ``out_facts``.
        """
        for pred, facts in in_facts.items():
            iname = self.program.in_names[pred]
            self._loop.full[iname].update(facts)
            if iname in self._loop.prevs:
                self._loop.prevs[iname].update(facts)
        for pred, facts in out_facts.items():
            self._out[pred].update(facts)
        for pred, facts in staged.items():
            self._staged[pred].extend(facts)
        if counters is not None:
            self.counters = EvalCounters.from_dict(counters)
        self.duplicates_dropped += duplicates_dropped

    def output_relation(self, predicate: str) -> Relation:
        """The local ``t_out`` relation of ``predicate`` (final pooling)."""
        return self._out[predicate]

    def output_size(self) -> int:
        """Total tuples in all local output relations."""
        return sum(len(rel) for rel in self._out.values())

    def work_done(self) -> float:
        """Engine operations performed so far (firings + probes)."""
        return self.counters.total_firings() + self.counters.probes

    def __repr__(self) -> str:
        return (f"ProcessorRuntime({self.program.processor!r}, "
                f"out={self.output_size()}, {self.counters!r})")


def _flatten(batches: Sequence[EmissionBatch]) -> List[Emission]:
    """Per-predicate batches as the flat ``(predicate, tuple)`` list."""
    return [(pred, fact) for pred, facts in batches for fact in facts]
