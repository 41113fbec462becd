"""The partition is bit-identical: pinned cost counters of ``run_parallel``.

Memoising the discriminating function, checking ``h(v(r)) = i``
positionally / column-wise and pricing channel bytes per batch are all
supposed to change *when* work happens, never *which* substitution
fires where or which tuple crosses which channel.  These literals were
recorded at the commit before those changes; they hold with the batch
join, and with the reference interpreter (``tests/reference_join.py``)
in place of the batch join, as the join's equivalence contract demands.
Any drift in the partition, the constraint pushdown, the routing or the
byte model shows up here as a changed number.

The shuffled chain pins the other end of the join's shape range:
every delta row carries its own join key, so the batch join expands it
without grouping, where the DAG and the non-linear rule share buckets
across rows.

The remaining literals pin what the simulator's rounds must
reproduce: the barrier cost model derived from its per-round loads and
Safra's detector overhead.  The cost-model
literals were recorded as ``ticks``, ``busy`` and ``idle`` counters,
which the simulator no longer keeps; they are read here from
``per_round_work`` through the identities those counters satisfied.
"""

import random

import pytest

from repro.facts import Database
from repro.parallel import (
    CostModel,
    example3_scheme,
    rewrite_general,
    run_parallel,
)
from repro.workloads import ancestor_program, nonlinear_ancestor_program

PROCESSORS = (0, 1, 2)

SCHEMES = {
    "example3": lambda: example3_scheme(ancestor_program(), PROCESSORS),
    "general": lambda: rewrite_general(nonlinear_ancestor_program(),
                                       PROCESSORS),
}

# (scheme, database fixture) -> counters recorded at the parent commit.
# ``duplicates_dropped`` counts only tuples that arrived over a channel
# when ``t_in`` already held them; it was re-recorded when duplicates
# in a processor's own share stopped counting.
PINNED = {
    ("example3", "tree_db"): dict(
        firings=168, probes=185, rounds=6, tuples_sent=69,
        channel_messages=16, channel_bytes=11184, duplicates_dropped=0),
    ("example3", "dag_db"): dict(
        firings=755, probes=423, rounds=8, tuples_sent=337,
        channel_messages=27, channel_bytes=47105, duplicates_dropped=129),
    ("general", "tree_db"): dict(
        firings=252, probes=699, rounds=5, tuples_sent=438,
        channel_messages=26, channel_bytes=59886, duplicates_dropped=102),
    ("general", "dag_db"): dict(
        firings=1545, probes=1635, rounds=5, tuples_sent=1514,
        channel_messages=28, channel_bytes=197908, duplicates_dropped=710),
    ("example3", "shuffled_chain_db"): dict(
        firings=820, probes=940, rounds=40, tuples_sent=501,
        channel_messages=213, channel_bytes=95439, duplicates_dropped=0),
    ("general", "shuffled_chain_db"): dict(
        firings=10700, probes=3325, rounds=7, tuples_sent=4312,
        channel_messages=42, channel_bytes=558110, duplicates_dropped=2672),
}

# The same cases: the barrier cost model derived from the per-round
# loads -> counters recorded at the parent commit.
PINNED_BSP_COST = {
    ("example3", "tree_db"): dict(ticks=137, busy=291, idle=120),
    ("example3", "dag_db"): dict(ticks=509, busy=1078, idle=449),
    ("general", "tree_db"): dict(ticks=363, busy=889, idle=200),
    ("general", "dag_db"): dict(ticks=1079, busy=3080, idle=157),
    ("example3", "shuffled_chain_db"): dict(ticks=688, busy=1717, idle=347),
    ("general", "shuffled_chain_db"): dict(ticks=4895, busy=13982,
                                           idle=703),
}

# example3 on ``dag_db`` with Safra's detector running.
PINNED_SAFRA = dict(rounds=15, control_messages=9, detection_rounds=7)

@pytest.fixture
def shuffled_chain_db():
    """A 40-edge path over shuffled labels (``chain-rounds`` in small)."""
    labels = random.Random(5).sample(range(400), 41)
    return Database.from_facts({"par": list(zip(labels, labels[1:]))})


def _counters(scheme, database):
    metrics = run_parallel(SCHEMES[scheme](), database).metrics
    return dict(
        firings=metrics.total_firings(),
        probes=sum(metrics.probes.values()),
        rounds=metrics.rounds,
        tuples_sent=metrics.total_sent(),
        channel_messages=metrics.total_channel_messages(),
        channel_bytes=metrics.total_channel_bytes(),
        duplicates_dropped=sum(metrics.duplicates_dropped.values()),
    )


@pytest.mark.parametrize("scheme,fixture", sorted(PINNED))
def test_counters_equal_parent_commit(scheme, fixture, request):
    database = request.getfixturevalue(fixture)
    assert _counters(scheme, database) == PINNED[scheme, fixture]


@pytest.mark.parametrize("scheme,fixture", sorted(PINNED))
def test_reference_join_gives_the_same_counters(scheme, fixture,
                                                oracle_join, request):
    database = request.getfixturevalue(fixture)
    assert _counters(scheme, database) == PINNED[scheme, fixture]


@pytest.mark.parametrize("scheme,fixture", sorted(PINNED_BSP_COST))
def test_bsp_barrier_cost_equals_parent_commit(scheme, fixture, request):
    database = request.getfixturevalue(fixture)
    metrics = run_parallel(SCHEMES[scheme](), database).metrics
    ticks = metrics.makespan(CostModel(0, 0, 0))
    busy = sum(sum(work.values()) for work in metrics.per_round_work)
    assert dict(
        ticks=ticks,
        busy=busy,
        idle=ticks * len(metrics.processors) - busy,
    ) == PINNED_BSP_COST[scheme, fixture]


def test_safra_overhead_equals_parent_commit(dag_db):
    metrics = run_parallel(SCHEMES["example3"](), dag_db,
                           detect_termination=True).metrics
    assert dict(
        rounds=metrics.rounds,
        control_messages=metrics.control_messages,
        detection_rounds=metrics.detection_rounds,
    ) == PINNED_SAFRA
