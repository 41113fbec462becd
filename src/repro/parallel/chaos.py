"""Chaos soak harness: seeded random fault schedules vs. exactness.

The fault-tolerance contract of the mp executor is absolute — whatever
combination of worker kills a run suffers, the pooled answer must equal
the sequential least model *exactly*.
Individual tests pin single fault shapes; this module soaks the
cross-product.  Each seed deterministically derives one *case*:

* a point in the configuration grid — rewriting scheme x recovery
  policy (restart/checkpoint) — cycled so consecutive seeds disagree
  on the recovery policy first (the axis under test);
* a workload (random tree or diamond-rich DAG under the ancestor
  program, size and shape drawn from the seed);
* a fault schedule: one or two SIGKILLs at random firing counts on
  distinct victims.  The mp executor injects no channel faults: its
  queues are reliable, and lossy channels are a simulator model.

``random.Random(f"chaos:{seed}")`` derives everything, so a failing
seed replays exactly (`repro chaos --seeds 1 --start-seed <n>`), and a
soak never depends on wall-clock or interpreter hash randomisation.

A case *passes* iff the run completes within its budgets and every
derived relation equals the sequential evaluation of the same program.
Any :class:`~repro.errors.ReproError` (budget exhausted, wedged
worker, timeout) is a recorded failure, not a crash of the soak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine import evaluate
from ..errors import ReproError
from ..facts.database import Database
from ..workloads import ancestor_program, random_dag_edges, random_tree_edges
from .faults import build_fault_plan
from .naming import processor_tag
from .plans import ParallelProgram
from .schemes import (
    example2_scheme,
    example3_scheme,
    hash_scheme,
    wolfson_scheme,
)

__all__ = ["ChaosCase", "ChaosOutcome", "build_case", "run_case",
           "run_chaos", "summarize"]

# Grid axes, ordered by how fast they cycle across consecutive seeds.
# Recovery varies fastest: it is the axis this harness exists to soak,
# and any contiguous seed range then covers both policies evenly.
_RECOVERIES = ("restart", "checkpoint")
_SCHEMES = ("example3", "hash", "example2", "wolfson")


@dataclass(frozen=True)
class ChaosCase:
    """One deterministic soak case (everything derived from ``seed``)."""

    seed: int
    scheme: str
    recovery: str
    workload: str            # "tree" or "dag"
    size: int
    workload_seed: int
    fault_specs: Tuple[str, ...]
    max_restarts: int = 4
    checkpoint_interval: int = 2

    def describe(self) -> str:
        faults = ", ".join(self.fault_specs) if self.fault_specs else "none"
        return (f"seed {self.seed}: {self.scheme}/{self.recovery} on "
                f"{self.workload}-{self.size} [{faults}]")


@dataclass
class ChaosOutcome:
    """What happened when a case ran."""

    case: ChaosCase
    ok: bool
    detail: str = ""
    restarts: int = 0
    recovery_seconds: float = 0.0
    wall_seconds: float = 0.0

    def describe(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        extra = (f" restarts={self.restarts}"
                 f" recovery={self.recovery_seconds:.3f}s"
                 f" wall={self.wall_seconds:.2f}s")
        tail = f" — {self.detail}" if self.detail else ""
        return f"{status} {self.case.describe()}{extra}{tail}"


def _grid_point(index: int) -> Tuple[str, str]:
    recovery = _RECOVERIES[index % len(_RECOVERIES)]
    index //= len(_RECOVERIES)
    scheme = _SCHEMES[index % len(_SCHEMES)]
    return recovery, scheme


def _processors(scheme: str) -> Tuple[int, ...]:
    # Wolfson's scheme is defined for two processors in this repo's
    # rewriting; every other comm scheme soaks with three.
    return (0, 1) if scheme == "wolfson" else (0, 1, 2)


def build_case(seed: int, max_restarts: int = 4,
               checkpoint_interval: int = 2) -> ChaosCase:
    """Derive the soak case of ``seed`` (pure, deterministic)."""
    recovery, scheme = _grid_point(seed)
    rng = random.Random(f"chaos:{seed}")
    workload = rng.choice(("tree", "tree", "dag"))
    size = rng.randint(24, 48)
    workload_seed = rng.randint(0, 10_000)
    tags = [processor_tag(proc) for proc in _processors(scheme)]
    kills = rng.choice((1, 1, 2))
    victims = rng.sample(tags, k=min(kills, len(tags)))
    specs = tuple(f"kill:{victim}@{rng.randint(1, 40)}" for victim in victims)
    return ChaosCase(seed=seed, scheme=scheme, recovery=recovery,
                     workload=workload, size=size, workload_seed=workload_seed,
                     fault_specs=specs, max_restarts=max_restarts,
                     checkpoint_interval=checkpoint_interval)


def _build_database(case: ChaosCase) -> Database:
    if case.workload == "dag":
        edges = random_dag_edges(case.size, parents=2,
                                 seed=case.workload_seed)
    else:
        edges = random_tree_edges(case.size, seed=case.workload_seed)
    return Database.from_facts({"par": edges})


def _build_parallel(case: ChaosCase, program,
                    database: Database) -> ParallelProgram:
    processors = _processors(case.scheme)
    if case.scheme == "example2":
        return example2_scheme(program, processors, database)
    if case.scheme == "hash":
        return hash_scheme(program, processors)
    if case.scheme == "wolfson":
        return wolfson_scheme(program, processors)
    return example3_scheme(program, processors)


def run_case(case: ChaosCase, timeout: float = 60.0) -> ChaosOutcome:
    """Run one case against the mp executor and judge exactness."""
    from .mp import run_multiprocessing

    program = ancestor_program()
    database = _build_database(case)
    expected = evaluate(program, database)
    parallel_program = _build_parallel(case, program, database)
    plan = build_fault_plan(list(case.fault_specs))
    try:
        result = run_multiprocessing(
            parallel_program, database, faults=plan, recovery=case.recovery,
            max_restarts=case.max_restarts,
            checkpoint_interval=case.checkpoint_interval, timeout=timeout)
    except ReproError as error:
        return ChaosOutcome(case=case, ok=False,
                            detail=f"{type(error).__name__}: {error}")
    for predicate in parallel_program.derived:
        got = result.relation(predicate).as_set()
        want = expected.relation(predicate).as_set()
        if got != want:
            missing = len(want - got)
            extra = len(got - want)
            return ChaosOutcome(
                case=case, ok=False,
                detail=(f"answer mismatch on {predicate!r}: "
                        f"{missing} missing, {extra} extra"),
                restarts=result.restarts,
                recovery_seconds=result.metrics.recovery_seconds,
                wall_seconds=result.wall_seconds)
    return ChaosOutcome(case=case, ok=True, restarts=result.restarts,
                        recovery_seconds=result.metrics.recovery_seconds,
                        wall_seconds=result.wall_seconds)


def run_chaos(seeds: int = 20, start_seed: int = 0, timeout: float = 60.0,
              max_restarts: int = 4, checkpoint_interval: int = 2,
              progress: Optional[Callable[[str], None]] = None
              ) -> List[ChaosOutcome]:
    """Soak ``seeds`` consecutive cases; never raises on a case failure."""
    outcomes: List[ChaosOutcome] = []
    for seed in range(start_seed, start_seed + seeds):
        case = build_case(seed, max_restarts=max_restarts,
                          checkpoint_interval=checkpoint_interval)
        outcome = run_case(case, timeout=timeout)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome.describe())
    return outcomes


def summarize(outcomes: Sequence[ChaosOutcome]) -> str:
    """A one-paragraph verdict over a soak's outcomes."""
    failures = [outcome for outcome in outcomes if not outcome.ok]
    per_policy: Dict[str, int] = {}
    for outcome in outcomes:
        per_policy[outcome.case.recovery] = \
            per_policy.get(outcome.case.recovery, 0) + 1
    policies = ", ".join(f"{policy}: {count}"
                         for policy, count in sorted(per_policy.items()))
    lines = [f"{len(outcomes)} case(s) ({policies}); "
             f"{len(failures)} failure(s)"]
    for outcome in failures:
        lines.append(f"  {outcome.describe()}")
    return "\n".join(lines)
