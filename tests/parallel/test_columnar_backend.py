"""The columnar backend under the parallel executors.

The simulator must be counter-identical across backends (it is fully
deterministic); the mp executor must agree on answers, firings and
tuples sent, with only the wire accounting (``channel_bytes``,
``channel_messages``) allowed to differ — and the packed column format
that shrinks ``channel_bytes`` is the wire of *both* backends.
"""

import pytest

from repro.engine import evaluate
from repro.facts import set_fact_backend
from repro.parallel import example2_scheme, example3_scheme, run_parallel
from repro.workloads import random_tree_edges


@pytest.fixture
def columnar_backend():
    previous = set_fact_backend("columnar")
    yield
    set_fact_backend(previous)


def _sim_snapshot(program, database, sync="bsp"):
    result = run_parallel(program, database, sync=sync)
    metrics = result.metrics
    return {
        "answers": result.relation("anc").as_set(),
        "firings": metrics.total_firings(),
        "sent": metrics.total_sent(),
        "rounds": metrics.rounds,
        "messages": metrics.total_channel_messages(),
        "bytes": metrics.total_channel_bytes(),
    }


class TestSimulatorColumnar:
    def test_matches_sequential(self, ancestor, tree_db, columnar_backend):
        result = run_parallel(example3_scheme(ancestor, (0, 1, 2)), tree_db)
        expected = evaluate(ancestor, tree_db)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_counter_identical_to_tuple_backend(self, ancestor, tree_db):
        program = example3_scheme(ancestor, (0, 1, 2))
        tuple_run = _sim_snapshot(program, tree_db)
        previous = set_fact_backend("columnar")
        try:
            columnar_run = _sim_snapshot(program, tree_db)
        finally:
            set_fact_backend(previous)
        assert columnar_run == tuple_run

    def test_broadcast_scheme_agrees(self, ancestor, chain_db):
        program = example2_scheme(ancestor, (0, 1, 2), chain_db)
        tuple_run = _sim_snapshot(program, chain_db)
        previous = set_fact_backend("columnar")
        try:
            columnar_run = _sim_snapshot(program, chain_db)
        finally:
            set_fact_backend(previous)
        assert columnar_run == tuple_run


@pytest.mark.mp
class TestMultiprocessingColumnar:
    def test_matches_sequential(self, ancestor, columnar_backend):
        from repro.facts import Database
        from repro.parallel.mp import run_multiprocessing

        database = Database.from_facts(
            {"par": random_tree_edges(60, seed=7)})
        result = run_multiprocessing(
            example3_scheme(ancestor, (0, 1, 2)), database, timeout=60)
        expected = evaluate(ancestor, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    def test_packed_wire_shrinks_channel_bytes(self, ancestor):
        """The wire format is not tied to the storage backend: under
        either one, batches worth packing cross as column buffers, so
        the modelled bytes undercut what the same tuples in the same
        messages would cost as tuple lists."""
        from repro.facts import Database
        from repro.parallel.metrics import (
            BATCH_OVERHEAD_BYTES,
            MESSAGE_OVERHEAD_BYTES,
            approx_fact_bytes,
        )
        from repro.parallel.mp import run_multiprocessing

        # Three fully connected layers of eight nodes: fat batches.
        database = Database.from_facts(
            {"par": [(layer * 8 + i, (layer + 1) * 8 + j)
                     for layer in range(2) for i in range(8)
                     for j in range(8)]})
        program = example3_scheme(ancestor, (0, 1, 2))
        results = {}
        previous = set_fact_backend("tuple")
        try:
            for backend in ("tuple", "columnar"):
                set_fact_backend(backend)
                results[backend] = run_multiprocessing(program, database,
                                                       timeout=60)
        finally:
            set_fact_backend(previous)
        assert (results["columnar"].relation("anc").as_set()
                == results["tuple"].relation("anc").as_set())
        assert (results["columnar"].metrics.total_sent()
                == results["tuple"].metrics.total_sent())
        for result in results.values():
            metrics = result.metrics
            as_tuple_lists = (
                metrics.total_sent() * approx_fact_bytes((1, 2))
                + metrics.total_channel_messages()
                * (MESSAGE_OVERHEAD_BYTES + BATCH_OVERHEAD_BYTES + len("anc")))
            assert 0 < metrics.total_channel_bytes() < as_tuple_lists
