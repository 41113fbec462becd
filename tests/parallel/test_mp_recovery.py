"""Checkpoint-based recovery against the real multiprocessing executor.

Extends ``test_mp_faults.py`` (which pins the ``fail`` and ``restart``
policies) to ``recovery="checkpoint"``: workers ship periodic snapshots
to the coordinator, a SIGKILLed worker is respawned *from its last
checkpoint*, survivors truncate their sent-logs at the acknowledged
watermarks and replay only the suffix.  The contract under test:

* exactness survives anywhere the kill lands (Theorem 1 under failure,
  now from a mid-run snapshot instead of the base fragment);
* total firings still equal an undisturbed sequential run — the
  restored counters plus post-restore work add up, so recovery is
  invisible in the gated cost counters;
* checkpoint recovery replays strictly fewer facts than
  restart-from-base on a bursty workload (the headline of
  docs/FAULT_TOLERANCE.md).

A kill landing *during* another worker's recovery (a cascading
failure) is pinned by schedule, not by timing:
``test_protocol_explorer.py::test_kill_during_recovery_is_a_cascading_failure``
and ``test_mp_internals.py::TestCascadingFailureByConstruction``.
"""

import pytest

from repro.engine import evaluate
from repro.errors import ConfigurationError
from repro.facts.database import Database
from repro.obs import (
    CHECKPOINT,
    LOG_TRUNCATE,
    RUN_START,
    InMemorySink,
    Tracer,
)
from repro.parallel import (
    build_fault_plan,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    wolfson_scheme,
)
from repro.parallel.mp import run_multiprocessing
from repro.parallel.mp.runner import default_ack_deadline


def _chain_db(length):
    return Database.from_facts(
        {"par": [(i, i + 1) for i in range(1, length + 1)]})


@pytest.mark.mp
@pytest.mark.faultinjection
class TestCheckpointRecovery:
    @pytest.mark.parametrize("kill_at", [1, 10, 25, 60])
    def test_exact_and_firings_identical_any_kill_point(
            self, ancestor, tree_db, kill_at):
        """Answers AND firings equal sequential wherever the kill lands.

        The firings half is the sharp edge: the restored worker resumes
        from checkpointed counters and dedups against checkpointed
        output, so restored-plus-new firings must equal an undisturbed
        run — re-deriving anything would show up here.
        """
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan([f"kill:1@{kill_at}"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="checkpoint",
                                     checkpoint_interval=1, timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert (result.metrics.total_firings()
                == expected.counters.total_firings())

    @pytest.mark.parametrize("scheme", ["example2", "hash", "wolfson"])
    def test_exact_across_schemes(self, ancestor, tree_db, scheme):
        if scheme == "example2":
            program = example2_scheme(ancestor, (0, 1, 2), tree_db)
        elif scheme == "hash":
            program = hash_scheme(ancestor, (0, 1, 2))
        else:
            program = wolfson_scheme(ancestor, (0, 1))
        from repro.parallel.naming import processor_tag
        victim = processor_tag(program.processors[-1])
        plan = build_fault_plan([f"kill:{victim}@8"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="checkpoint",
                                     checkpoint_interval=1, timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_truncation_and_restore_happen(self, ancestor, tree_db):
        """A late kill with frequent checkpoints actually exercises the
        machinery: snapshots shipped and sent-logs truncated at the
        watermarks.  Whether worker 1 holds a checkpoint when it dies
        depends on how its peers' messages batch into its steps, so the
        restore itself is pinned by schedule in
        ``test_protocol_explorer.py::test_checkpoint_recovery_restores_the_stored_checkpoint``."""
        sink = InMemorySink()
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@60"])
        result = run_multiprocessing(program, tree_db, faults=plan,
                                     recovery="checkpoint",
                                     checkpoint_interval=1,
                                     tracer=Tracer(sink), timeout=60)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert result.metrics.checkpoint_bytes > 0
        assert result.metrics.log_truncated > 0
        kinds = {event.kind for event in sink.events}
        assert CHECKPOINT in kinds
        assert LOG_TRUNCATE in kinds

    def test_replays_fewer_than_restart(self, ancestor):
        """The headline claim, as a strict inequality on one seeded
        run pair: same chain workload, same late kill, checkpoint
        recovery replays strictly fewer facts than restart-from-base
        — with answers and firings identical to sequential for both,
        and exactly one restart each."""
        database = _chain_db(96)
        program = example3_scheme(ancestor, (0, 1, 2))
        expected = evaluate(ancestor, database)
        replayed = {}
        for recovery in ("restart", "checkpoint"):
            plan = build_fault_plan(["kill:1@400"])
            result = run_multiprocessing(program, database, faults=plan,
                                         recovery=recovery,
                                         checkpoint_interval=1, timeout=120)
            assert (result.relation("anc").as_set()
                    == expected.relation("anc").as_set())
            assert (result.metrics.total_firings()
                    == expected.counters.total_firings())
            assert result.restarts == 1
            replayed[recovery] = result.metrics.recovery_replayed_facts
        assert replayed["checkpoint"] < replayed["restart"], replayed


def _layered_db(width=8, layers=3):
    """Fully connected layers: every routing batch is fat enough to
    cross the wire packed (``PACK_MIN_FACTS``)."""
    return Database.from_facts(
        {"par": [(layer * width + i, (layer + 1) * width + j)
                 for layer in range(layers - 1)
                 for i in range(width) for j in range(width)]})


@pytest.mark.mp
@pytest.mark.faultinjection
class TestPackedWireRecovery:
    """Batches cross the wire packed; recovery counts facts, not
    payloads, so replay, stamps and checkpoints must not notice."""

    @pytest.mark.parametrize("recovery", ["restart", "checkpoint"])
    @pytest.mark.parametrize("kill_at", [1, 40, 120])
    def test_tuple_backend_kill_sweep_is_exact(self, ancestor, recovery,
                                               kill_at):
        from repro.parallel import run_parallel

        database = _layered_db()
        program = example3_scheme(ancestor, (0, 1, 2))
        expected = evaluate(ancestor, database)
        undisturbed = run_multiprocessing(program, database, timeout=60)
        # Packing moves bytes, never tuples: the fault-free count is the
        # simulator's, which has no wire at all.
        assert (undisturbed.metrics.total_sent()
                == run_parallel(program, database).metrics.total_sent())
        result = run_multiprocessing(
            program, database, recovery=recovery, checkpoint_interval=1,
            faults=build_fault_plan([f"kill:1@{kill_at}"]), timeout=60)
        assert result.restarts == 1
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert (result.metrics.total_firings()
                == expected.counters.total_firings())

    @pytest.mark.parametrize("share", [0.0, 0.2, 0.5, 0.9])
    def test_nonlinear_checkpoint_restores_prev(self, nonlinear_ancestor,
                                                share):
        """Example 8 reads ``anc@in#prev``; a restored worker must get
        it back, or joins of new facts with checkpointed ones are lost.
        Firings equal an undisturbed run's wherever the kill lands.
        (Whether a kill lands after the first checkpoint is up to the
        scheduler; ``test_processor.py`` sweeps every round boundary
        deterministically.)"""
        from repro.parallel import rewrite_general, run_parallel

        database = _layered_db(width=2, layers=16)
        program = rewrite_general(nonlinear_ancestor, (0, 1))
        expected = evaluate(nonlinear_ancestor, database)
        undisturbed = run_parallel(program, database)
        kill_at = max(1, int(share * undisturbed.metrics.firings[1]))
        result = run_multiprocessing(
            program, database, recovery="checkpoint", checkpoint_interval=1,
            faults=build_fault_plan([f"kill:1@{kill_at}"]), timeout=60)
        assert result.restarts == 1
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())
        assert (result.metrics.total_firings()
                == undisturbed.metrics.total_firings())


@pytest.mark.mp
@pytest.mark.faultinjection
class TestRecoveryTracing:
    def test_report_renders_checkpoint_lifecycle(self, ancestor, tree_db):
        """The RESTORE line and ``restores`` count are rendered from the
        explorer's checkpoint case, where the restore is certain."""
        from repro.obs.report import TraceReport
        sink = InMemorySink()
        program = example3_scheme(ancestor, (0, 1, 2))
        plan = build_fault_plan(["kill:1@60"])
        run_multiprocessing(program, tree_db, faults=plan,
                            recovery="checkpoint", checkpoint_interval=1,
                            tracer=Tracer(sink), timeout=60)
        report = TraceReport(sink.events)
        text = report.render()
        assert "failures and recovery:" in text
        assert "CHECKPT" in text
        assert "TRUNCATE" in text
        summary = report.summary()
        assert summary["checkpoints"] > 0
        assert summary["log_truncated"] > 0

    def test_run_start_logs_policy_and_derived_deadline(self, ancestor,
                                                        chain_db):
        """Satellite: the derived ack deadline is visible at startup."""
        sink = InMemorySink()
        program = example3_scheme(ancestor, (0, 1))
        run_multiprocessing(program, chain_db, recovery="checkpoint",
                            tracer=Tracer(sink), timeout=60)
        starts = [event for event in sink.events
                  if event.kind == RUN_START]
        assert len(starts) == 1
        data = starts[0].data
        assert data["recovery"] == "checkpoint"
        assert data["ack_deadline"] == pytest.approx(
            default_ack_deadline(2), abs=1e-6)


class TestKnobValidation:
    def test_default_ack_deadline_scales_with_processors(self):
        assert default_ack_deadline(2) == pytest.approx(16.0)
        assert default_ack_deadline(8) == pytest.approx(19.0)

    def test_unknown_recovery_policy_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ConfigurationError, match="recovery"):
            run_multiprocessing(program, chain_db, recovery="bogus")

    def test_negative_max_restarts_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ConfigurationError, match="max_restarts"):
            run_multiprocessing(program, chain_db, recovery="restart",
                                max_restarts=-1)

    def test_bad_checkpoint_interval_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            run_multiprocessing(program, chain_db, recovery="checkpoint",
                                checkpoint_interval=0)

    def test_bad_ack_deadline_rejected(self, ancestor, chain_db):
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ConfigurationError, match="ack deadline"):
            run_multiprocessing(program, chain_db, ack_timeout=0.0)

    @pytest.mark.parametrize("knob, value", [
        ("probe_interval", -0.01), ("probe_interval", 0.0),
        ("timeout", -1.0), ("timeout", 0.0)])
    def test_non_positive_periods_rejected(self, ancestor, chain_db, knob,
                                           value):
        # A negative probe_interval used to surface as a raw
        # "sleep length must be non-negative" after the first wave, and
        # zero spun the coordinator; both are rejected before any spawn.
        program = example3_scheme(ancestor, (0, 1))
        with pytest.raises(ConfigurationError, match=knob):
            run_multiprocessing(program, chain_db, **{knob: value})
