"""Top-level sequential evaluation facade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datalog.program import Program
from ..errors import EvaluationError
from ..facts.database import Database
from ..obs.tracer import Tracer, ensure_tracer
from .collector import collector_paused
from .counters import EvalCounters
from .naive import naive_evaluate
from .seminaive import seminaive_evaluate

__all__ = ["EvaluationResult", "evaluate"]


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of a sequential evaluation.

    Attributes:
        output: database with one relation per derived predicate (plus
            the input base relations, by reference).
        counters: firings, probes and iteration counts.
        method: the strategy used (``"seminaive"`` or ``"naive"``).
    """

    output: Database
    counters: EvalCounters
    method: str

    def relation(self, predicate: str):
        """Convenience accessor for an output relation."""
        return self.output.relation(predicate)

    def total_firings(self) -> int:
        """Total successful ground substitutions during the run."""
        return self.counters.total_firings()


@collector_paused()
def evaluate(program: Program, database: Database, method: str = "seminaive",
             reorder: bool = True,
             counters: Optional[EvalCounters] = None,
             tracer: Optional[Tracer] = None) -> EvaluationResult:
    """Evaluate a Datalog program bottom-up.

    Args:
        program: a validated program.
        database: extensional input; never mutated.
        method: ``"seminaive"`` (default) or ``"naive"``.
        reorder: allow greedy body-atom reordering.
        counters: optional externally owned counters.
        tracer: optional :class:`~repro.obs.Tracer`; the run is framed
            by ``run_start``/``run_end`` events.

    Returns:
        An :class:`EvaluationResult`.

    Raises:
        EvaluationError: on an unknown method.
    """
    counters = counters if counters is not None else EvalCounters()
    tracer = ensure_tracer(tracer)
    if tracer.enabled:
        tracer.run_start(scheme=method, processors=(), executor="sequential")
    if method == "seminaive":
        output = seminaive_evaluate(program, database, counters, reorder,
                                    tracer)
    elif method == "naive":
        output = naive_evaluate(program, database, counters, reorder, tracer)
    else:
        raise EvaluationError(f"unknown evaluation method {method!r}")
    if tracer.enabled:
        tracer.run_end(iterations=counters.iterations,
                       firings=counters.total_firings(),
                       probes=counters.probes)
    return EvaluationResult(output=output, counters=counters, method=method)
