"""Tests for the simulated cluster and the processor runtime."""

import pytest

from repro.engine import evaluate
from repro.errors import ConfigurationError, ExecutionError
from repro.parallel import (
    CostModel,
    example1_scheme,
    example3_scheme,
    hash_scheme,
    run_parallel,
    wolfson_scheme,
)
from repro.parallel.simulator import SimulatedCluster


class TestSimulatedCluster:
    def test_single_processor_degenerates_to_sequential(self, ancestor,
                                                        chain_db):
        result = run_parallel(hash_scheme(ancestor, (0,)), chain_db)
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.metrics.total_sent() == 0
        assert result.metrics.total_firings() == (
            expected.counters.total_firings())

    def test_empty_database(self, ancestor):
        from repro.facts import Database
        result = run_parallel(example3_scheme(ancestor, (0, 1)), Database())
        assert len(result.relation("anc")) == 0
        assert result.metrics.rounds <= 1

    def test_deterministic_metrics(self, ancestor, dag_db):
        first = run_parallel(example3_scheme(ancestor, (0, 1, 2)), dag_db)
        second = run_parallel(example3_scheme(ancestor, (0, 1, 2)), dag_db)
        assert first.metrics.summary() == second.metrics.summary()

    def test_delay_injection_preserves_answer(self, ancestor, dag_db):
        baseline = run_parallel(example3_scheme(ancestor, (0, 1, 2)), dag_db)
        for seed in range(3):
            delayed = run_parallel(example3_scheme(ancestor, (0, 1, 2)),
                                   dag_db, delay_probability=0.5, seed=seed)
            assert (delayed.relation("anc").as_set()
                    == baseline.relation("anc").as_set())
            assert delayed.metrics.rounds >= baseline.metrics.rounds

    def test_max_rounds_guard(self, ancestor, chain_db):
        with pytest.raises(ExecutionError):
            run_parallel(example3_scheme(ancestor, (0, 1)), chain_db,
                         max_rounds=2)

    def test_per_round_accounting_sums_to_totals(self, ancestor, dag_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2)), dag_db)
        metrics = result.metrics
        per_round_sent = sum(sum(row.values())
                             for row in metrics.per_round_sent)
        # Initialization sends happen before round 1; they are delivered
        # (and thus received) during the rounds.
        per_round_received = sum(sum(row.values())
                                 for row in metrics.per_round_received)
        assert per_round_received == metrics.total_sent()
        assert per_round_sent <= metrics.total_sent()

    def test_counters_per_processor(self, ancestor, dag_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2)), dag_db)
        assert set(result.counters) == {0, 1, 2}
        assert sum(c.total_firings() for c in result.counters.values()) == (
            result.metrics.total_firings())

    def test_pooled_tuples_counted(self, ancestor, chain_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1)), chain_db)
        assert result.metrics.pooled_tuples == 55


class TestDelayProbability:
    """``delay_probability`` is a probability: the library checks it."""

    @pytest.mark.parametrize("probability", [-0.5, 1.5])
    def test_out_of_range_rejected(self, ancestor, chain_db, probability):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            run_parallel(example3_scheme(ancestor, (0, 1)), chain_db,
                         delay_probability=probability)

    def test_certain_delay_terminates_exactly(self, ancestor, chain_db):
        """At 1.0 every tuple takes exactly one extra tick, drawn once
        at send, so the run still quiesces with the sequential answer."""
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2)),
                              chain_db, delay_probability=1.0)
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        undelayed = run_parallel(example3_scheme(ancestor, (0, 1, 2)),
                                 chain_db)
        assert result.metrics.rounds > undelayed.metrics.rounds


class TestSafraDetection:
    def test_detects_only_after_quiescence(self, ancestor, chain_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2)), chain_db,
                              detect_termination=True)
        metrics = result.metrics
        assert metrics.control_messages > 0
        assert metrics.detection_rounds >= 0
        # Detection adds idle rounds but never changes the answer.
        baseline = run_parallel(example3_scheme(ancestor, (0, 1, 2)),
                                chain_db)
        assert (result.relation("anc").as_set()
                == baseline.relation("anc").as_set())

    def test_single_processor_detection(self, ancestor, chain_db):
        result = run_parallel(hash_scheme(ancestor, (0,)), chain_db,
                              detect_termination=True)
        assert result.metrics.control_messages >= 1

    def test_control_messages_scale_with_ring(self, ancestor, chain_db):
        small = run_parallel(example3_scheme(ancestor, (0, 1)), chain_db,
                             detect_termination=True)
        large = run_parallel(example3_scheme(ancestor, tuple(range(8))),
                             chain_db, detect_termination=True)
        assert (large.metrics.control_messages
                > small.metrics.control_messages)


class TestCostModel:
    def test_makespan_grows_with_comm_cost(self, ancestor, dag_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2)), dag_db)
        cheap = result.metrics.makespan(CostModel(send_cost=0.0,
                                                  recv_cost=0.0))
        expensive = result.metrics.makespan(CostModel(send_cost=10.0,
                                                      recv_cost=10.0))
        assert expensive > cheap

    def test_no_communication_scheme_insensitive_to_comm_cost(self, ancestor,
                                                              dag_db):
        result = run_parallel(example1_scheme(ancestor, (0, 1, 2)), dag_db)
        cheap = result.metrics.makespan(CostModel(send_cost=0.0))
        expensive = result.metrics.makespan(CostModel(send_cost=100.0))
        assert cheap == expensive

    def test_speedup_definition(self, ancestor, dag_db):
        result = run_parallel(example1_scheme(ancestor, (0, 1, 2)), dag_db)
        span = result.metrics.makespan()
        assert result.metrics.speedup_vs(span * 2) == pytest.approx(2.0)

    def test_load_balance_bounds(self, ancestor, dag_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2, 3)), dag_db)
        index = result.metrics.load_balance()
        assert 0.25 <= index <= 1.0

    def test_utilisation_bounds(self, ancestor, dag_db):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2, 3)), dag_db)
        assert 0.0 < result.metrics.utilisation() <= 1.0


class TestClusterInternals:
    def test_cluster_reusable_state_isolated(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        cluster = SimulatedCluster(program, chain_db)
        first = cluster.run()
        fresh = SimulatedCluster(program, chain_db).run()
        assert (first.relation("anc").as_set()
                == fresh.relation("anc").as_set())

    def test_wolfson_duplicates_dropped_zero(self, ancestor, dag_db):
        # Nothing is ever transmitted, so nothing can be received twice.
        result = run_parallel(wolfson_scheme(ancestor, (0, 1, 2)), dag_db)
        assert sum(result.metrics.duplicates_dropped.values()) == 0
