"""Experiment harness: one function per paper artefact (see DESIGN.md).

Each function runs the relevant schemes and returns an
:class:`~repro.bench.reporting.ExperimentTable` holding the rows a
reader would compare against the paper's qualitative claims.  The
benchmark modules under ``benchmarks/`` time these and print the
tables; EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..datalog.analysis import as_linear_sirup
from ..datalog.program import Program
from ..datalog.term import Variable
from ..engine.counters import EvalCounters
from ..engine.evaluator import evaluate
from ..errors import RewriteError
from ..facts.database import Database
from ..network.derivation import derive_network
from ..parallel.discriminating import Discriminator
from ..parallel.metrics import CostModel
from ..parallel.plans import ParallelProgram
from ..parallel.rewrite_general import rewrite_general
from ..parallel.schemes import (
    example1_scheme,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    tradeoff_scheme,
    wolfson_scheme,
)
from ..parallel.simulator import run_parallel
from ..workloads.generator import Workload
from .reporting import ExperimentTable

__all__ = [
    "sequential_baseline",
    "default_schemes",
    "compare_schemes",
    "tradeoff_sweep",
    "redundancy_table",
    "scalability_sweep",
    "general_scheme_table",
    "network_minimality_table",
    "termination_overhead_table",
    "load_balance_table",
]

ProcessorId = Hashable
SchemeFactory = Callable[[Program, Sequence[ProcessorId], Database],
                         ParallelProgram]


def sequential_baseline(workload: Workload) -> Tuple[Database, EvalCounters]:
    """Sequential semi-naive run: the answer and its firing counts."""
    result = evaluate(workload.program, workload.database)
    return result.output, result.counters


def default_schemes(program: Program) -> Dict[str, SchemeFactory]:
    """The paper's Section 4 scheme line-up, as factories.

    Schemes inapplicable to a given sirup (e.g. Example 1 on an acyclic
    dataflow graph) are skipped by :func:`compare_schemes`.
    """
    return {
        "example1 (no comm)": lambda p, procs, db: example1_scheme(p, procs),
        "example2 (broadcast)": lambda p, procs, db: example2_scheme(p, procs, db),
        "example3 (p2p)": lambda p, procs, db: example3_scheme(p, procs),
        "section3 hash": lambda p, procs, db: hash_scheme(p, procs),
        "wolfson (redundant)": lambda p, procs, db: wolfson_scheme(p, procs),
    }


def compare_schemes(workload: Workload, processors: Sequence[ProcessorId],
                    schemes: Optional[Dict[str, SchemeFactory]] = None,
                    cost: Optional[CostModel] = None) -> ExperimentTable:
    """T1: Examples 1–3 (plus friends) side by side on one workload."""
    output, seq_counters = sequential_baseline(workload)
    seq_firings = seq_counters.total_firings()
    schemes = schemes if schemes is not None else default_schemes(
        workload.program)

    table = ExperimentTable(
        experiment="T1",
        title=(f"scheme comparison on {workload.name} "
               f"({len(tuple(processors))} processors, "
               f"seq firings={seq_firings})"),
        headers=("scheme", "ok", "firings", "redundancy", "sent",
                 "self", "broadcast", "channels", "base storage",
                 "replication", "rounds", "speedup"),
    )
    for label, factory in schemes.items():
        try:
            program = factory(workload.program, processors, workload.database)
        except RewriteError as error:
            table.add_note(f"{label}: skipped ({error})")
            continue
        result = run_parallel(program, workload.database)
        metrics = result.metrics
        answers_match = all(
            result.relation(pred).as_set() == output.relation(pred).as_set()
            for pred in program.derived)
        storage = ", ".join(
            f"{name}:{kind}" for name, kind
            in sorted(program.fragmentation.requirements.items()))
        table.add_row(
            label,
            "yes" if answers_match else "NO",
            metrics.total_firings(),
            metrics.redundancy_vs(seq_firings),
            metrics.total_sent(),
            metrics.total_self_delivered(),
            metrics.broadcast_tuples,
            len(metrics.used_channels()),
            storage,
            round(program.replication_factor(workload.database), 2),
            metrics.rounds,
            round(metrics.speedup_vs(
                seq_counters.total_firings() + seq_counters.probes, cost), 2),
        )
    return table


def tradeoff_sweep(workload: Workload, processors: Sequence[ProcessorId],
                   fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
                   salt: int = 0) -> ExperimentTable:
    """T2: the Section 6 redundancy/communication spectrum."""
    _output, seq_counters = sequential_baseline(workload)
    seq_firings = seq_counters.total_firings()
    table = ExperimentTable(
        experiment="T2",
        title=(f"Section 6 trade-off on {workload.name} "
               f"({len(tuple(processors))} processors, "
               f"seq firings={seq_firings})"),
        headers=("keep fraction", "firings", "redundancy", "sent",
                 "self", "rounds"),
    )
    for fraction in fractions:
        program = tradeoff_scheme(workload.program, processors, fraction,
                                  salt=salt)
        result = run_parallel(program, workload.database)
        metrics = result.metrics
        table.add_row(
            fraction,
            metrics.total_firings(),
            metrics.redundancy_vs(seq_firings),
            metrics.total_sent(),
            metrics.total_self_delivered(),
            metrics.rounds,
        )
    table.add_note("keep=0.0 is the non-redundant Section 3 scheme; "
                   "keep=1.0 is Wolfson's communication-free scheme")
    return table


def redundancy_table(workloads: Sequence[Workload],
                     processors: Sequence[ProcessorId]) -> ExperimentTable:
    """T3: Theorems 2/6 — shared-h schemes never exceed sequential firings."""
    table = ExperimentTable(
        experiment="T3",
        title=f"non-redundancy across workloads "
              f"({len(tuple(processors))} processors)",
        headers=("workload", "seq firings", "scheme", "par firings",
                 "redundancy", "ok"),
    )
    for workload in workloads:
        _output, seq_counters = sequential_baseline(workload)
        seq_firings = seq_counters.total_firings()
        candidates: List[Tuple[str, ParallelProgram]] = []
        try:
            sirup = as_linear_sirup(workload.program)
            candidates.append(
                ("section3 hash", hash_scheme(sirup, processors)))
            candidates.append(
                ("example3", example3_scheme(sirup, processors)))
        except Exception:
            pass
        candidates.append(
            ("section7 general", rewrite_general(workload.program,
                                                 tuple(processors))))
        for label, program in candidates:
            result = run_parallel(program, workload.database)
            redundancy = result.metrics.redundancy_vs(seq_firings)
            table.add_row(workload.name, seq_firings, label,
                          result.metrics.total_firings(), redundancy,
                          "yes" if redundancy <= 0 else "NO")
    return table


def scalability_sweep(workload: Workload, processor_counts: Sequence[int],
                      factory: Optional[SchemeFactory] = None,
                      cost: Optional[CostModel] = None,
                      label: str = "example3") -> ExperimentTable:
    """T4: modelled speedup versus processor count."""
    if factory is None:
        factory = lambda p, procs, db: example3_scheme(p, procs)
    _output, seq_counters = sequential_baseline(workload)
    seq_work = seq_counters.total_firings() + seq_counters.probes
    table = ExperimentTable(
        experiment="T4",
        title=f"scalability of {label} on {workload.name} "
              f"(seq work={seq_work})",
        headers=("N", "rounds", "sent", "makespan", "speedup",
                 "efficiency", "load balance"),
    )
    for count in processor_counts:
        processors = tuple(range(count))
        program = factory(workload.program, processors, workload.database)
        result = run_parallel(program, workload.database)
        metrics = result.metrics
        span = metrics.makespan(cost)
        speedup = metrics.speedup_vs(seq_work, cost)
        table.add_row(count, metrics.rounds, metrics.total_sent(),
                      round(span, 1), round(speedup, 2),
                      round(speedup / count, 2),
                      round(metrics.load_balance(), 3))
    return table


def general_scheme_table(workloads: Sequence[Workload],
                         processors: Sequence[ProcessorId]) -> ExperimentTable:
    """T6: the Section 7 scheme on non-linear / multi-relation programs."""
    table = ExperimentTable(
        experiment="T6",
        title=f"general scheme (Section 7) "
              f"({len(tuple(processors))} processors)",
        headers=("workload", "ok", "seq firings", "par firings",
                 "sent", "broadcast", "rounds"),
    )
    for workload in workloads:
        output, seq_counters = sequential_baseline(workload)
        program = rewrite_general(workload.program, tuple(processors))
        result = run_parallel(program, workload.database)
        answers_match = all(
            result.relation(pred).as_set() == output.relation(pred).as_set()
            for pred in program.derived)
        table.add_row(workload.name,
                      "yes" if answers_match else "NO",
                      seq_counters.total_firings(),
                      result.metrics.total_firings(),
                      result.metrics.total_sent(),
                      result.metrics.broadcast_tuples,
                      result.metrics.rounds)
    return table


def network_minimality_table(program: Program, v_r: Sequence[Variable],
                             v_e: Sequence[Variable], h: Discriminator,
                             database_factory: Callable[[int], Database],
                             trials: int = 20) -> ExperimentTable:
    """T7: derived network graph vs channels observed on random inputs.

    Soundness: every observed channel must be a derived edge.
    Minimality evidence: the fraction of derived remote edges actually
    witnessed by some random input (1.0 = every edge exercised).
    """
    from ..parallel.schemes import rewrite_linear_sirup

    derived = derive_network(program, v_r, v_e, h)
    observed: set = set()
    sound = True
    for trial in range(trials):
        database = database_factory(trial)
        parallel_program = rewrite_linear_sirup(
            program, derived.processors, v_r, v_e, h,
            scheme="network-check")
        result = run_parallel(parallel_program, database)
        used = result.metrics.used_channels()
        observed |= used
        if not derived.covers(used):
            sound = False
    derived_remote = derived.edges(include_self=False)
    coverage = (len(observed & derived_remote) / len(derived_remote)
                if derived_remote else 1.0)
    table = ExperimentTable(
        experiment="T7",
        title=f"network minimality over {trials} random inputs",
        headers=("derived remote edges", "observed edges", "sound",
                 "witness coverage"),
    )
    table.add_row(len(derived_remote), len(observed & derived_remote),
                  "yes" if sound else "NO", round(coverage, 2))
    spurious = observed - derived_remote
    if spurious:
        table.add_note(f"SPURIOUS channels observed: {sorted(spurious)!r}")
    return table


def termination_overhead_table(workload: Workload,
                               processor_counts: Sequence[int]
                               ) -> ExperimentTable:
    """T9: Safra's detector — control messages vs data messages."""
    table = ExperimentTable(
        experiment="T9",
        title=f"termination detection overhead on {workload.name}",
        headers=("N", "data tuples sent", "control messages",
                 "detection delay (rounds)"),
    )
    for count in processor_counts:
        program = example3_scheme(workload.program, tuple(range(count)))
        result = run_parallel(program, workload.database,
                              detect_termination=True)
        metrics = result.metrics
        table.add_row(count, metrics.total_sent(),
                      metrics.control_messages, metrics.detection_rounds)
    return table


def load_balance_table(workload: Workload,
                       processors: Sequence[ProcessorId],
                       schemes: Optional[Dict[str, SchemeFactory]] = None
                       ) -> ExperimentTable:
    """T8 (extension): work distribution per scheme."""
    schemes = schemes if schemes is not None else default_schemes(
        workload.program)
    table = ExperimentTable(
        experiment="T8",
        title=f"load balance on {workload.name} "
              f"({len(tuple(processors))} processors)",
        headers=("scheme", "min work", "max work", "jain index",
                 "utilisation"),
    )
    for label, factory in schemes.items():
        try:
            program = factory(workload.program, processors, workload.database)
        except RewriteError:
            continue
        result = run_parallel(program, workload.database)
        metrics = result.metrics
        loads = [metrics.firings.get(p, 0) + metrics.probes.get(p, 0)
                 for p in metrics.processors]
        table.add_row(label, min(loads), max(loads),
                      round(metrics.load_balance(), 3),
                      round(metrics.utilisation(), 3))
    return table
