"""Send coalescing and channel accounting in the communication path.

The mp worker puts each step's output for a peer on the wire as one
multi-predicate batch — one put, one pickle per peer per step —
while the simulator partitions emission lists per channel.  Both
report the new channel counters (``channel_messages`` /
``channel_bytes``); these tests assert the batching actually happens,
that it is invisible to answers and tuple-level cost counters, and that
the deduplicated sent-log stays bounded.

``channel_messages`` is deterministic in the simulator but
timing-dependent in the mp executor (step batches move), so mp
assertions use wide margins (observed batching factor ~12 on the
broadcast-heavy example2 scenario; we require >= 2).
"""

import pytest

from repro.engine import evaluate
from repro.facts import Database
from repro.parallel import (
    build_fault_plan,
    example2_scheme,
    example3_scheme,
    run_parallel,
)
from repro.parallel.mp import run_multiprocessing
from repro.workloads import ancestor_program


class TestSimulatorChannelCounters:
    def test_messages_strictly_fewer_than_tuples(self, ancestor, tree_db):
        """Deterministic reduction: batches carry > 1 tuple on average."""
        parallel = example2_scheme(ancestor, (0, 1, 2), tree_db)
        result = run_parallel(parallel, tree_db)
        metrics = result.metrics
        assert metrics.total_sent() > 0
        assert 0 < metrics.total_channel_messages() < metrics.total_sent()
        assert metrics.total_channel_bytes() > 0
        summary = metrics.summary()
        assert summary["channel_messages"] == metrics.total_channel_messages()
        assert summary["channel_bytes"] == metrics.total_channel_bytes()

    def test_counters_are_deterministic(self, ancestor, chain_db):
        parallel = example2_scheme(ancestor, (0, 1, 2), chain_db)
        first = run_parallel(parallel, chain_db).metrics
        second = run_parallel(parallel, chain_db).metrics
        assert first.channel_messages == second.channel_messages
        assert first.channel_bytes == second.channel_bytes


@pytest.mark.mp
class TestMpCoalescing:
    def test_example2_batches_and_matches_sequential(self, ancestor, tree_db):
        parallel = example2_scheme(ancestor, (0, 1, 2), tree_db)
        result = run_multiprocessing(parallel, tree_db, timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        metrics = result.metrics
        assert metrics.total_channel_messages() > 0
        assert metrics.total_channel_bytes() > 0
        factor = metrics.total_sent() / metrics.total_channel_messages()
        assert factor >= 2.0
        assert "channel_messages" in metrics.summary()

    def test_fault_free_sent_log_equals_sent(self, ancestor, tree_db):
        """Without faults each (predicate, fact) pair is put on a channel
        exactly once, so the deduplicated replay log holds exactly the
        tuples sent — the bound of the satellite is tight here.  The
        log exists only under a policy that can replay."""
        parallel = example2_scheme(ancestor, (0, 1, 2), tree_db)
        result = run_multiprocessing(parallel, tree_db, timeout=60,
                                     recovery="restart")
        assert result.stats
        for stats in result.stats.values():
            assert stats.sent_log_facts == stats.total_sent()

    @pytest.mark.faultinjection
    def test_replays_keep_log_below_sent(self, ancestor, tree_db):
        """Replays after a kill re-send logged facts: they inflate
        ``sent`` but not the dedup'd log."""
        parallel = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@10"])
        result = run_multiprocessing(parallel, tree_db, faults=plan,
                                     timeout=60, recovery="restart")
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        total_log = sum(s.sent_log_facts for s in result.stats.values())
        total_sent = sum(s.total_sent() for s in result.stats.values())
        assert 0 < total_log < total_sent

    def test_fail_policy_keeps_no_log(self, ancestor, tree_db):
        """``recovery="fail"`` can never replay, so it logs nothing."""
        parallel = example3_scheme(ancestor, (0, 1, 2))
        result = run_multiprocessing(parallel, tree_db, timeout=60,
                                     recovery="fail")
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.metrics.total_sent() > 0
        assert all(s.sent_log_facts == 0 for s in result.stats.values())

    def test_one_message_per_peer_per_burst(self, ancestor, tree_db):
        """The coalesced invariants, checked on the run itself.

        A worker puts a step's output for a peer on the wire as one
        message, so a channel carries at most one message per step of
        its sender plus one for the initialization rules, however many
        predicates the steps produced.  Batching is invisible to the tuple-level counters:
        they equal the simulator's, which never coalesces.
        """
        parallel = example2_scheme(ancestor, (0, 1, 2), tree_db)
        result = run_multiprocessing(parallel, tree_db, timeout=60)
        reference = run_parallel(parallel, tree_db)
        assert (result.relation("anc").as_set()
                == reference.relation("anc").as_set())
        assert result.metrics.total_sent() == reference.metrics.total_sent()
        assert (result.metrics.total_firings()
                == reference.metrics.total_firings())
        for stats in result.stats.values():
            for target, messages in stats.messages_by_target.items():
                sent = stats.sent_by_target[target]
                assert 0 < messages <= sent
                assert messages <= stats.iterations + 1

    def test_mixed_type_constants_pool_correctly(self, ancestor):
        """End-to-end guard for the typed RESULT sort: pooling worker
        outputs with mixed int/str columns must not raise and must match
        the sequential answer."""
        database = Database.from_facts(
            {"par": [(1, "a"), ("a", 2), (2, "b"), ("b", 3), (3, "c")]})
        parallel = example3_scheme(ancestor, (0, 1))
        result = run_multiprocessing(parallel, database, timeout=60)
        expected = evaluate(ancestor, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
