"""Stale-synchronous execution on the simulated cluster.

Theorem 1 does not mention barriers: the discriminating-function
argument only needs every tuple to eventually reach its owner, so the
answer under ``sync="ssp"`` must equal the barriered answer and the
sequential least model for *any* staleness bound — including when
composed with delay injection, channel faults and kill/restart
recovery.  The tests here pin that, plus the two things SSP is *for*:
the staleness bound is actually enforced (a slow worker throttles its
peers instead of watching them run away) and skewed workloads see
higher worker utilisation than under BSP.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.errors import ExecutionError
from repro.facts import Database
from repro.parallel import (
    build_fault_plan,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    rewrite_general,
    run_parallel,
    wolfson_scheme,
)
from repro.workloads import ancestor_program, make_workload, random_tree_edges


def _skewed(size=60, seed=3, processors=4):
    workload = make_workload("skewed", size, seed=seed)
    program = hash_scheme(workload.program, tuple(range(processors)))
    return workload, program


class TestSSPValidation:
    def test_unknown_sync_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="unknown sync mode"):
            run_parallel(program, chain_db, sync="async")

    def test_zero_staleness_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="staleness >= 1"):
            run_parallel(program, chain_db, sync="ssp", staleness=0)

    def test_safra_requires_bsp(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="barriered rounds"):
            run_parallel(program, chain_db, sync="ssp",
                         detect_termination=True)

    def test_capacity_requires_ssp(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="capacity"):
            run_parallel(program, chain_db, capacity={"0": 0.5})

    def test_capacity_unknown_tag_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="unknown processor"):
            run_parallel(program, chain_db, sync="ssp",
                         capacity={"nosuch": 0.5})

    def test_capacity_must_be_positive(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ExecutionError, match="positive"):
            run_parallel(program, chain_db, sync="ssp",
                         capacity={"0": 0.0})


class TestSSPAnswerEquality:
    def test_matches_sequential_on_chain(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, chain_db, sync="ssp", staleness=2)
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_matches_bsp_firings_on_dag(self, ancestor, dag_db):
        program = hash_scheme(ancestor, (0, 1, 2, 3))
        bsp = run_parallel(program, dag_db)
        ssp = run_parallel(program, dag_db, sync="ssp", staleness=3)
        assert (ssp.relation("anc").as_set()
                == bsp.relation("anc").as_set())
        # Non-redundant derivations: staleness moves firings in time,
        # never in number.
        assert ssp.metrics.total_firings() == bsp.metrics.total_firings()

    def test_deterministic(self, ancestor, dag_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        first = run_parallel(program, dag_db, sync="ssp", staleness=2)
        second = run_parallel(program, dag_db, sync="ssp", staleness=2)
        assert first.metrics.summary() == second.metrics.summary()

    def test_single_processor_ssp(self, ancestor, chain_db):
        result = run_parallel(hash_scheme(ancestor, (0,)), chain_db,
                              sync="ssp", staleness=1)
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_empty_database(self, ancestor):
        result = run_parallel(example3_scheme(ancestor, (0, 1)), Database(),
                              sync="ssp", staleness=2)
        assert len(result.relation("anc")) == 0

    def test_metrics_report_ssp_mode(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        result = run_parallel(program, chain_db, sync="ssp", staleness=3)
        summary = result.metrics.summary()
        assert summary["sync"] == "ssp(3)"
        assert result.metrics.ticks > 0
        bsp = run_parallel(program, chain_db)
        assert bsp.metrics.summary()["sync"] == "bsp"


class TestStalenessEnforcement:
    """A slowed worker must throttle its peers, not watch them run away."""

    @pytest.mark.parametrize("staleness", [1, 2, 3])
    def test_bound_holds_with_slow_worker(self, staleness):
        workload, program = _skewed()
        result = run_parallel(program, workload.database, sync="ssp",
                              staleness=staleness, capacity={"0": 0.25})
        metrics = result.metrics
        assert metrics.max_staleness_lag <= staleness
        # The bound must actually bite: fast peers spend time throttled.
        assert metrics.total_stalled() > 0
        expected = evaluate(workload.program, workload.database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_larger_bound_stalls_no_more(self):
        """Relaxing the bound can only reduce time spent throttled."""
        workload, program = _skewed()
        tight = run_parallel(program, workload.database, sync="ssp",
                             staleness=1, capacity={"0": 0.25})
        loose = run_parallel(program, workload.database, sync="ssp",
                             staleness=8, capacity={"0": 0.25})
        assert (loose.metrics.total_stalled()
                <= tight.metrics.total_stalled())


class TestSkewedUtilisation:
    """The acceptance scenario: power-law skew under hash partitioning.

    Hub nodes concentrate firings on one processor; under BSP its peers
    idle at every barrier, under SSP they run ahead within the bound.
    Pinned on the seeded workload EXPERIMENTS.md T11 measures."""

    def test_ssp_beats_bsp_utilisation(self):
        workload, program = _skewed()
        bsp = run_parallel(program, workload.database)
        ssp = run_parallel(program, workload.database, sync="ssp",
                           staleness=4)
        assert (ssp.relation("anc").as_set()
                == bsp.relation("anc").as_set())
        assert ssp.metrics.total_firings() == bsp.metrics.total_firings()
        # Measured on this seed: 0.853 (bsp) vs 0.944 (ssp, s=4).
        assert bsp.metrics.mean_utilisation() < 0.87
        assert ssp.metrics.mean_utilisation() > 0.93
        assert ssp.metrics.ticks <= bsp.metrics.ticks

    def test_bsp_busy_idle_accounting_consistent(self):
        workload, program = _skewed()
        result = run_parallel(program, workload.database)
        metrics = result.metrics
        # busy + idle partitions each round's peak across processors.
        for proc in metrics.processors:
            assert metrics.busy.get(proc, 0) >= 0
            assert metrics.idle.get(proc, 0) >= 0
        assert sum(metrics.busy.values()) > 0
        assert 0.0 < metrics.mean_utilisation() <= 1.0


def _scheme(name, program, database, processors):
    if name == "example2":
        return example2_scheme(program, processors, database)
    if name == "example3":
        return example3_scheme(program, processors)
    if name == "hash":
        return hash_scheme(program, processors)
    if name == "general":
        return rewrite_general(program, processors)
    return wolfson_scheme(program, processors[:2])


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(["example2", "example3", "hash", "general",
                               "wolfson"]),
       staleness=st.sampled_from([1, 2, 3, 8]),
       count=st.integers(2, 4),
       tree_seed=st.integers(0, 5))
def test_theorem1_holds_under_ssp_property(scheme, staleness, count,
                                           tree_seed):
    """Property: any scheme x staleness bound x input yields exactly the
    sequential least model under stale-synchronous execution."""
    program = ancestor_program()
    database = Database.from_facts(
        {"par": random_tree_edges(30, seed=tree_seed)})
    parallel_program = _scheme(scheme, program, database,
                               tuple(range(count)))
    result = run_parallel(parallel_program, database, sync="ssp",
                          staleness=staleness)
    expected = evaluate(program, database)
    assert (result.relation("anc").as_set()
            == expected.relation("anc").as_set())
    assert result.metrics.max_staleness_lag <= staleness


@pytest.mark.faultinjection
@settings(max_examples=20, deadline=None)
@given(staleness=st.sampled_from([1, 2, 4]),
       kill_at=st.integers(0, 60),
       victim=st.integers(0, 2),
       tree_seed=st.integers(0, 4))
def test_ssp_exact_under_kill_restart_property(staleness, kill_at, victim,
                                               tree_seed):
    """Property: SSP composed with a kill + restart still yields the
    exact answer — replay and clock reset are sound under staleness."""
    program = ancestor_program()
    database = Database.from_facts(
        {"par": random_tree_edges(35, seed=tree_seed)})
    parallel_program = hash_scheme(program, (0, 1, 2))
    plan = build_fault_plan([f"kill:{victim}@{kill_at}"])
    result = run_parallel(parallel_program, database, sync="ssp",
                          staleness=staleness, faults=plan,
                          recovery="restart")
    expected = evaluate(program, database)
    assert (result.relation("anc").as_set()
            == expected.relation("anc").as_set())


@pytest.mark.faultinjection
class TestSSPChannelFaults:
    def test_duplicates_are_harmless(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db, sync="ssp", staleness=2,
                              faults=build_fault_plan(["dup:0.5"], seed=3))
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_delays_are_harmless(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db, sync="ssp", staleness=2,
                              faults=build_fault_plan(["delay:0.4"], seed=5))
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_drops_lose_answers(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db, sync="ssp", staleness=2,
                              faults=build_fault_plan(["drop:0.5"], seed=1))
        expected = evaluate(ancestor, tree_db)
        got = result.relation("anc").as_set()
        want = expected.relation("anc").as_set()
        assert got <= want
        assert got < want

    def test_delay_injection_composes(self, ancestor, dag_db):
        program = hash_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, dag_db, sync="ssp", staleness=3,
                              delay_probability=0.4, seed=11)
        expected = evaluate(ancestor, dag_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
