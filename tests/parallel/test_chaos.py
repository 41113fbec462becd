"""The chaos soak harness: deterministic derivation plus live soaks.

Two layers.  The cheap layer pins the *harness itself*: seeds derive
cases deterministically, consecutive seeds alternate the recovery
policy (the axis under soak), and a failing case is recorded — never
raised — so a soak always reports every seed.  The live layer runs a
small band of consecutive seeds against real worker processes, one
test per seed; the ids carry the recovery policy so CI can split the
soak into one leg per policy (``-k "chaos and restart"`` /
``-k "chaos and checkpoint"``, see the chaos-smoke job).
"""

import dataclasses

import pytest

from repro.parallel.chaos import build_case, run_case, run_chaos, summarize

# Three consecutive seeds per policy: recovery cycles fastest through
# the grid, so evens are restart and odds are checkpoint, and the six
# seeds together cover three rewriting schemes under each policy.
_SOAK_SEEDS = range(6)


class TestCaseDerivation:
    def test_same_seed_same_case(self):
        assert build_case(17) == build_case(17)

    def test_consecutive_seeds_alternate_recovery(self):
        policies = [build_case(seed).recovery for seed in range(6)]
        assert policies == ["restart", "checkpoint"] * 3

    def test_cases_always_include_a_kill(self):
        for seed in range(24):
            case = build_case(seed)
            assert any(spec.startswith("kill:")
                       for spec in case.fault_specs), case

    def test_schedules_hold_only_kills(self):
        """The mp executor injects no channel faults."""
        for seed in range(64):
            case = build_case(seed)
            assert all(spec.startswith("kill:")
                       for spec in case.fault_specs), case

    # (scheme, recovery, workload, size, workload_seed, kill specs) of
    # each seed, recorded when schedules still drew channel faults
    # after the kills: dropping those draws moved nothing else.
    @pytest.mark.parametrize("seed, expected", [
        (0, ("example3", "restart", "tree", 31, 7213, ("kill:2@17",))),
        (1, ("example3", "checkpoint", "tree", 48, 2115, ("kill:1@22",))),
        (2, ("hash", "restart", "tree", 41, 7517, ("kill:2@3",))),
        (3, ("hash", "checkpoint", "dag", 45, 2743, ("kill:2@22",))),
        (4, ("example2", "restart", "dag", 29, 3617,
             ("kill:1@30", "kill:0@2"))),
        (5, ("example2", "checkpoint", "tree", 41, 1487, ("kill:1@30",))),
        (6, ("wolfson", "restart", "dag", 40, 5978,
             ("kill:0@19", "kill:1@4"))),
        (7, ("wolfson", "checkpoint", "tree", 41, 9078, ("kill:0@4",))),
        (21, ("example2", "checkpoint", "tree", 36, 2376,
              ("kill:2@24", "kill:1@22"))),
    ])
    def test_seed_keeps_its_case(self, seed, expected):
        case = build_case(seed)
        kills = tuple(spec for spec in case.fault_specs
                      if spec.startswith("kill:"))
        assert (case.scheme, case.recovery, case.workload, case.size,
                case.workload_seed, kills) == expected

    def test_describe_names_the_whole_configuration(self):
        case = build_case(1)
        text = case.describe()
        assert "seed 1" in text
        assert case.scheme in text
        assert case.recovery in text


@pytest.mark.mp
@pytest.mark.faultinjection
class TestChaosSoak:
    @pytest.mark.parametrize(
        "seed", _SOAK_SEEDS,
        ids=[f"seed{seed}-{build_case(seed).recovery}"
             for seed in _SOAK_SEEDS])
    def test_seed_is_exact_under_its_fault_schedule(self, seed):
        case = build_case(seed)
        outcome = run_case(case, timeout=60)
        assert outcome.ok, outcome.describe()

    def test_simultaneous_deaths_under_checkpoint_recovery_are_exact(self):
        """Seed 21 kills two workers two firings apart, so one detection
        usually finds both dead.  Each newcomer restored from its
        checkpoint must replay its restored sent-log to the other: the
        facts logged past the other's checkpoint are in both restored
        states' reach and neither derives them again."""
        case = build_case(21)
        assert case.recovery == "checkpoint"
        assert sum(spec.startswith("kill:") for spec in case.fault_specs) == 2
        for _ in range(3):
            outcome = run_case(case, timeout=60)
            assert outcome.ok, outcome.describe()

    def test_budget_exhaustion_is_recorded_not_raised(self):
        """A case whose restart budget cannot cover its kills must come
        back as a recorded failure — the soak never crashes."""
        case = dataclasses.replace(build_case(0), max_restarts=0)
        outcome = run_case(case, timeout=60)
        assert not outcome.ok
        assert "max_restarts" in outcome.detail

    def test_run_chaos_reports_every_seed(self):
        lines = []
        outcomes = run_chaos(seeds=2, timeout=60, progress=lines.append)
        assert len(outcomes) == 2
        assert len(lines) == 2
        text = summarize(outcomes)
        assert "2 case(s)" in text
        assert "checkpoint: 1" in text and "restart: 1" in text
