"""Real-process recovery smoke: every scheme under both replaying
policies, on trees and DAGs, with one and two kills.

The schedule explorer (``test_protocol_explorer.py``) checks recovery
schedule by schedule on the protocol machines; these cases run the same
machines inside forked workers, killed with a real ``SIGKILL``, so the
I/O loops, the flush before the kill, the respawn on the dead worker's
inbox and the pooling are exercised too.  Each case must end with the
sequential answer and one restart per kill that lands.  A processor's
firings are fixed by the partition (Theorem 2), not by the schedule, so
whether a kill lands is fixed too.
"""

import pytest

from repro.engine import evaluate
from repro.facts import Database
from repro.parallel import (
    build_fault_plan,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    wolfson_scheme,
)
from repro.parallel.mp import run_multiprocessing
from repro.workloads import ancestor_program, random_dag_edges, random_tree_edges


def _database(shape, size, seed):
    edges = (random_dag_edges(size, parents=2, seed=seed) if shape == "dag"
             else random_tree_edges(size, seed=seed))
    return Database.from_facts({"par": edges})


def _scheme(name, program, database):
    # Wolfson's scheme is defined for two processors in this repo's
    # rewriting; the others run with three.
    if name == "example2":
        return example2_scheme(program, (0, 1, 2), database)
    if name == "example3":
        return example3_scheme(program, (0, 1, 2))
    if name == "hash":
        return hash_scheme(program, (0, 1, 2))
    return wolfson_scheme(program, (0, 1))


def _run_exact(scheme, recovery, shape, size, seed, kills, restarts):
    program = ancestor_program()
    database = _database(shape, size, seed)
    result = run_multiprocessing(
        _scheme(scheme, program, database), database, recovery=recovery,
        faults=build_fault_plan(list(kills)), max_restarts=4,
        checkpoint_interval=2, timeout=60)
    expected = evaluate(program, database).relation("anc").as_set()
    assert result.relation("anc").as_set() == expected
    assert result.restarts == restarts
    # The run summary reads the recovery counters, not copies of them.
    metrics = result.metrics
    summary = metrics.summary()
    assert summary["restarts"] == restarts
    assert (summary["replayed"] == metrics.recovery_replayed_facts
            == sum(metrics.replayed.values()))


# (scheme, recovery, shape, size, seed, kills, restarts)
_CASES = [
    ("example3", "restart", "tree", 31, 7213, ("kill:2@17",), 1),
    ("example3", "checkpoint", "tree", 48, 2115, ("kill:1@22",), 1),
    ("hash", "restart", "tree", 41, 7517, ("kill:2@3",), 1),
    ("hash", "checkpoint", "dag", 45, 2743, ("kill:2@22",), 1),
    ("example2", "restart", "dag", 29, 3617, ("kill:1@30", "kill:0@2"), 2),
    ("example2", "checkpoint", "tree", 41, 1487, ("kill:1@15",), 1),
    ("wolfson", "restart", "dag", 40, 5978, ("kill:0@19", "kill:1@4"), 2),
    ("wolfson", "checkpoint", "tree", 41, 9078, ("kill:0@4",), 1),
]


@pytest.mark.mp
@pytest.mark.faultinjection
@pytest.mark.parametrize(
    "scheme, recovery, shape, size, seed, kills, restarts", _CASES,
    ids=["-".join(case[:3]) for case in _CASES])
def test_exact_under_kills(scheme, recovery, shape, size, seed, kills,
                           restarts):
    _run_exact(scheme, recovery, shape, size, seed, kills, restarts)


@pytest.mark.mp
@pytest.mark.faultinjection
def test_simultaneous_deaths_under_checkpoint_recovery_are_exact():
    """Two workers die two firings apart, so one detection usually finds
    both dead.  Each newcomer restored from its checkpoint must replay
    its restored sent-log to the other: the facts logged past the
    other's checkpoint are in both restored states' reach and neither
    derives them again.  Which detection finds which death is up to the
    scheduler, so the case runs three times;
    ``test_protocol_explorer.py::test_two_deaths_in_one_detection_replay_to_each_other``
    pins the simultaneous schedule."""
    for _ in range(3):
        _run_exact("example2", "checkpoint", "tree", 36, 2376,
                   ("kill:2@24", "kill:1@22"), 2)
