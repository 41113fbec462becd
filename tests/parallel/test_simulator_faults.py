"""Channel-fault injection against the round-synchronous simulator.

The simulator and the mp executor consume the same
:class:`~repro.parallel.faults.FaultPlan`, each its own half: the
simulator drops, delays and duplicates tuples, and refuses kills, which
belong to real worker processes (Theorem 1 under kills is checked on the
mp protocol machines by ``test_protocol_explorer.py``).
"""

import pytest

from repro.engine import evaluate
from repro.errors import ConfigurationError
from repro.parallel import (
    SimulatedCluster,
    build_fault_plan,
    example3_scheme,
    run_parallel,
)
from repro.parallel.faults import DELAY, DELIVER, DROP, DUPLICATE


class TestKillsAreMpOnly:
    @pytest.mark.parametrize("specs", [
        ["kill:1@3"], ["kill:1@100000"], ["dup:0.2", "kill:nosuch@3"]],
        ids=["kill", "kill-never-reached", "unknown-kill-beside-dup"])
    def test_a_plan_holding_a_kill_is_rejected_before_the_first_tick(
            self, ancestor, tree_db, specs):
        """Kills and their recovery are the mp executor's, checked on its
        protocol machines by the schedule explorer; the simulator
        refuses a kill whether or not it would ever fire."""
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(specs)
        with pytest.raises(ConfigurationError, match="kill fault"):
            SimulatedCluster(program, tree_db, faults=plan)
        with pytest.raises(ConfigurationError, match="run_multiprocessing"):
            run_parallel(program, tree_db, faults=plan)


@pytest.mark.faultinjection
class TestSimulatorChannelFaults:
    def test_duplicates_are_harmless(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan(["dup:0.5"], seed=3))
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_certain_duplication_terminates(self, ancestor, chain_db):
        """dup:1.0 must still quiesce (copies delivered, not re-rolled)."""
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, chain_db,
                              faults=build_fault_plan(["dup:1.0"]))
        expected = evaluate(ancestor, chain_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_delays_are_harmless(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan(["delay:0.4"], seed=5))
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_drops_lose_answers(self, ancestor, tree_db):
        """Dropping tuples demonstrates why the paper assumes reliable
        channels: the result is a strict subset of the true answer."""
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan(["drop:0.5"], seed=1))
        expected = evaluate(ancestor, tree_db)
        got = result.relation("anc").as_set()
        want = expected.relation("anc").as_set()
        assert got <= want
        assert got < want

    def test_same_seed_same_result(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        first = run_parallel(program, tree_db,
                             faults=build_fault_plan(["drop:0.3"], seed=9))
        second = run_parallel(program, tree_db,
                              faults=build_fault_plan(["drop:0.3"], seed=9))
        assert (first.relation("anc").as_set()
                == second.relation("anc").as_set())
        assert first.metrics.rounds == second.metrics.rounds

    # The indices of the draws that hit among the first 64 verdicts of
    # each seed's stream, recorded when mp workers still drew salted
    # channel fault streams from the same class: the stream is keyed by
    # the plan seed alone, the same for every action, and must not move.
    @pytest.mark.parametrize("spec, action", [
        ("drop:0.2", DROP), ("delay:0.2", DELAY), ("dup:0.2", DUPLICATE)])
    @pytest.mark.parametrize("seed, hits", [
        (1, (1, 10, 11, 19, 20, 21, 28, 32, 49, 57, 60)),
        (2, (5, 12, 15, 23, 25, 30, 45, 54, 55, 57, 59, 63)),
        (3, (10, 15, 25, 26, 40, 45, 55, 59, 61, 63)),
    ])
    def test_fault_draws_pinned(self, spec, action, seed, hits):
        state = build_fault_plan([spec], seed=seed).channel_state()
        verdicts = [state.decide("0", "1") for _ in range(64)]
        assert tuple(i for i, verdict in enumerate(verdicts)
                     if verdict != DELIVER) == hits
        assert set(verdicts) == {DELIVER, action}

    # (answer size, rounds, sent, firings, duplicates dropped) on the
    # 60-node tree.  Which tuple meets which draw of the pinned stream
    # follows the order in which a step emits its facts, and that order
    # is unspecified (RulePlan.execute), so these figures move with it;
    # they were last re-recorded when deltas became batches.
    @pytest.mark.parametrize("spec, seed, expected", [
        ("drop:0.2", 1, (156, 6, 65, 156, 0)),
        ("drop:0.2", 2, (159, 6, 62, 159, 0)),
        ("drop:0.2", 3, (159, 5, 63, 159, 0)),
        ("delay:0.2", 1, (168, 7, 69, 168, 0)),
        ("delay:0.2", 2, (168, 8, 69, 168, 0)),
        ("delay:0.2", 3, (168, 8, 69, 168, 0)),
        ("dup:0.2", 1, (168, 6, 69, 168, 12)),
        ("dup:0.2", 2, (168, 6, 69, 168, 13)),
        ("dup:0.2", 3, (168, 6, 69, 168, 10)),
    ])
    def test_fault_streams_pinned(self, ancestor, tree_db, spec, seed,
                                  expected):
        program = example3_scheme(ancestor, (0, 1, 2))
        result = run_parallel(program, tree_db,
                              faults=build_fault_plan([spec], seed=seed))
        metrics = result.metrics
        assert (len(result.relation("anc")), metrics.rounds,
                metrics.total_sent(), metrics.total_firings(),
                sum(metrics.duplicates_dropped.values())) == expected
