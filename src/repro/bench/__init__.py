"""Benchmark harness: the paper's claim tables and their rendering.

* :mod:`repro.bench.harness` — the paper's *qualitative* claim tables
  (firings, tuples sent) behind ``benchmarks/test_bench_*.py``;
* :mod:`repro.bench.reporting` — the plain-text table they render to.

Wall-clock performance is measured by ``benchmarks/e2e/`` (see
docs/PERFORMANCE.md).
"""

from .harness import (
    compare_schemes,
    default_schemes,
    general_scheme_table,
    load_balance_table,
    network_minimality_table,
    redundancy_table,
    scalability_sweep,
    sequential_baseline,
    termination_overhead_table,
    tradeoff_sweep,
)
from .reporting import ExperimentTable, render_table

__all__ = [
    "ExperimentTable",
    "compare_schemes",
    "default_schemes",
    "general_scheme_table",
    "load_balance_table",
    "network_minimality_table",
    "redundancy_table",
    "render_table",
    "scalability_sweep",
    "sequential_baseline",
    "termination_overhead_table",
    "tradeoff_sweep",
]
