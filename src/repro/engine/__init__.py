"""Sequential bottom-up evaluation engine."""

from .counters import EvalCounters
from .evaluator import EvaluationResult, evaluate
from .naive import naive_evaluate
from .plan import PlanStep, RulePlan
from .planner import compile_plan, order_body
from .seminaive import (
    DELTA_SUFFIX,
    PREV_SUFFIX,
    DeltaVariant,
    delta_variants,
    seminaive_evaluate,
)
from .stratify import Stratum, build_strata

__all__ = [
    "DELTA_SUFFIX",
    "PREV_SUFFIX",
    "DeltaVariant",
    "EvalCounters",
    "EvaluationResult",
    "PlanStep",
    "RulePlan",
    "Stratum",
    "build_strata",
    "compile_plan",
    "delta_variants",
    "evaluate",
    "naive_evaluate",
    "order_body",
    "seminaive_evaluate",
]
