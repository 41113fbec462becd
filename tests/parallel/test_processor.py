"""Unit tests for the per-processor runtime."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import as_linear_sirup
from repro.facts import Database, pack_facts
from repro.parallel import HashDiscriminator, hash_scheme, rewrite_linear_sirup
from repro.parallel.processor import ProcessorRuntime
from repro.workloads import ancestor_program


def _runtime(processors=(0,), proc=0, edges=((1, 2), (2, 3), (3, 4))):
    program = ancestor_program()
    sirup = as_linear_sirup(program)
    h = HashDiscriminator(processors)
    parallel = rewrite_linear_sirup(
        program, processors,
        v_r=sirup.recursive_atom.variables(),
        v_e=sirup.exit_rule.head.variables(), h=h)
    database = Database.from_facts({"par": list(edges)})
    local = parallel.local_database(proc, database)
    return ProcessorRuntime(parallel.program_for(proc), local), parallel


class TestProcessorRuntime:
    def test_initialize_emits_hashed_subset(self):
        runtime, _parallel = _runtime(processors=(0,))
        emissions = runtime.initialize()
        # Single processor: all par tuples pass the h'(...) = 0 filter.
        assert sorted(fact for _pred, fact in emissions) == [
            (1, 2), (2, 3), (3, 4)]
        assert all(pred == "anc" for pred, _fact in emissions)

    def test_initialize_partitions_across_processors(self):
        first, _ = _runtime(processors=(0, 1), proc=0)
        second, _ = _runtime(processors=(0, 1), proc=1)
        got = ({fact for _p, fact in first.initialize()}
               | {fact for _p, fact in second.initialize()})
        assert got == {(1, 2), (2, 3), (3, 4)}
        overlap = ({fact for _p, fact in first.initialize()}
                   & {fact for _p, fact in second.initialize()})
        assert overlap == set()  # second initialize() emits nothing new

    def test_receive_packed_matches_plain_receive(self):
        plain, _ = _runtime(processors=(0,))
        packed, _ = _runtime(processors=(0,))
        plain.initialize()
        packed.initialize()
        batch = [(2, 3), (2, 4), (2, 3)]
        plain.receive("anc", batch)
        packed.receive_packed("anc", pack_facts(batch))
        assert packed.has_pending_input()
        assert sorted(packed.step()) == sorted(plain.step())
        assert packed.duplicates_dropped == plain.duplicates_dropped
        assert packed.received_total == plain.received_total == 3

    def test_export_state_decodes_packed_staged(self):
        runtime, _parallel = _runtime(processors=(0,))
        runtime.initialize()
        runtime.receive_packed("anc", pack_facts([(5, 6)] * 9))
        _ins, _outs, staged = runtime.export_state()
        assert staged["anc"] == [(5, 6)] * 9

    def test_step_without_input_is_idle(self):
        runtime, _parallel = _runtime()
        runtime.initialize()
        assert runtime.step() == []
        assert not runtime.has_pending_input()

    def test_step_fires_on_received_tuples(self):
        runtime, _parallel = _runtime(processors=(0,))
        runtime.initialize()
        runtime.receive("anc", [(2, 3)])
        emissions = runtime.step()
        assert ("anc", (1, 3)) in emissions

    def test_duplicate_receives_dropped(self):
        runtime, _parallel = _runtime(processors=(0,))
        runtime.initialize()
        runtime.receive("anc", [(2, 3), (2, 3)])
        runtime.step()
        assert runtime.duplicates_dropped == 1
        runtime.receive("anc", [(2, 3)])
        assert runtime.step() == []  # already known: idle round
        assert runtime.duplicates_dropped == 2

    def test_emissions_deduplicated_against_out(self):
        runtime, _parallel = _runtime(processors=(0,))
        emissions = runtime.initialize()
        runtime.receive("anc", [(1, 2)])  # would re-derive nothing new
        assert all(fact != (1, 2)
                   for _pred, fact in runtime.step())
        assert (1, 2) in runtime.output_relation("anc")
        assert len(emissions) == 3

    def test_remote_vs_local_receive_counters(self):
        runtime, _parallel = _runtime(processors=(0,))
        runtime.receive("anc", [(2, 3)], remote=True)
        runtime.receive("anc", [(3, 4)], remote=False)
        assert runtime.received_total == 2
        assert runtime.received_remote == 1

    def test_work_done_monotone(self):
        runtime, _parallel = _runtime(processors=(0,))
        before = runtime.work_done()
        runtime.initialize()
        after_init = runtime.work_done()
        runtime.receive("anc", [(2, 3)])
        runtime.step()
        assert before <= after_init <= runtime.work_done()

    def test_output_size(self):
        runtime, _parallel = _runtime(processors=(0,))
        runtime.initialize()
        assert runtime.output_size() == 3


class TestBatchesAndPrev:
    """Batches stay batches, and ``t_in#prev`` exists only if read."""

    @staticmethod
    def _prev_sizes(runtime):
        from repro.engine import PREV_SUFFIX
        return {relation.name: len(relation) for relation in runtime.working
                if relation.name.endswith(PREV_SUFFIX)}

    def test_flat_emissions_are_the_batches_flattened(self):
        flat, _ = _runtime()
        batched, _ = _runtime()
        batches = batched.initialize_batches()
        assert flat.initialize() == [("anc", fact) for predicate, facts
                                     in batches for fact in facts]
        assert [predicate for predicate, _ in batches] == ["anc"]
        for runtime in (flat, batched):
            runtime.receive("anc", [(2, 3), (3, 4)], remote=False)
        batches = batched.step_batches()
        assert flat.step() == [("anc", fact) for _, facts in batches
                               for fact in facts]
        assert batched.step_batches() == []     # nothing staged: idle

    def test_linear_runtimes_keep_no_prev(self, ancestor, dag_db):
        from repro.parallel import example3_scheme
        from repro.parallel.simulator import SimulatedCluster

        cluster = SimulatedCluster(example3_scheme(ancestor, (0, 1, 2)),
                                   dag_db)
        result = cluster.run()
        assert len(result.relation("anc")) > 0
        for runtime in cluster.runtimes.values():
            assert sum(self._prev_sizes(runtime).values()) == 0

    def test_nonlinear_runtimes_fill_prev(self, nonlinear_ancestor, dag_db):
        """Example 8 under the Section 7 rewrite reads ``anc@in#prev``:
        at quiescence it holds every ingested fact."""
        from repro.parallel import rewrite_general
        from repro.parallel.simulator import SimulatedCluster

        cluster = SimulatedCluster(rewrite_general(nonlinear_ancestor, (0, 1)),
                                   dag_db)
        cluster.run()
        for runtime in cluster.runtimes.values():
            ingested, _out, _staged = runtime.export_state()
            assert (list(self._prev_sizes(runtime).values())
                    == [len(ingested["anc"])] != [0])

    @staticmethod
    def _drive(parallel, database, restore_at=None):
        """Barriered rounds over bare runtimes; at round ``restore_at``
        every runtime is replaced by a fresh one restored from its
        checkpoint (cut at the burst boundary: input staged, no step in
        progress).  Returns the pooled answer and the total firings."""
        order = sorted(parallel.processors)
        runtimes = {
            proc: ProcessorRuntime(parallel.program_for(proc),
                                   parallel.local_database(proc, database))
            for proc in order}
        routers = {proc: parallel.program_for(proc).router_table()
                   for proc in order}

        def route(sender, batches):
            return [(target, predicate, bucket)
                    for predicate, facts in batches
                    for target, bucket in routers[sender].partition(
                        predicate, facts)[0].items()]

        in_flight = [message for proc in order
                     for message in route(proc,
                                          runtimes[proc].initialize_batches())]
        rounds = 0
        while in_flight:
            rounds += 1
            for target, predicate, facts in in_flight:
                runtimes[target].receive(predicate, facts)
            if rounds == restore_at:
                for proc in order:
                    old = runtimes[proc]
                    runtimes[proc] = ProcessorRuntime(
                        parallel.program_for(proc),
                        parallel.local_database(proc, database))
                    runtimes[proc].import_state(
                        *old.export_state(), counters=old.counters.as_dict(),
                        duplicates_dropped=old.duplicates_dropped)
            in_flight = [message for proc in order
                         for message in route(proc,
                                              runtimes[proc].step_batches())]
        pooled = set()
        for runtime in runtimes.values():
            pooled.update(runtime.output_relation("anc"))
        return (pooled, rounds,
                sum(r.counters.total_firings() for r in runtimes.values()))

    def test_checkpoint_restore_is_exact_at_every_round(
            self, ancestor, nonlinear_ancestor, dag_db):
        """A kill-sweep without processes: restoring every runtime from
        its checkpoint at any round boundary changes neither the answer
        nor the firing count — for the linear rewrite (no prev to
        restore) and for Example 8 (a runtime that lost ``#prev`` would
        miss every join of a new fact with a checkpointed one)."""
        from repro.engine import evaluate
        from repro.parallel import example3_scheme, rewrite_general

        for program, parallel in (
                (ancestor, example3_scheme(ancestor, (0, 1))),
                (nonlinear_ancestor,
                 rewrite_general(nonlinear_ancestor, (0, 1)))):
            answer, rounds, firings = self._drive(parallel, dag_db)
            assert answer == evaluate(program, dag_db).relation("anc").as_set()
            assert rounds >= 3
            for restore_at in range(1, rounds + 1):
                assert self._drive(parallel, dag_db, restore_at) == (
                    answer, rounds, firings), restore_at

    def test_restore_matches_naive_with_a_constant_delta_atom(self, dag_db):
        """A restored runtime starts from empty delta batches; its first
        step's batch must still be looked up where a delta atom carries
        a constant (``anc(5, Y)``) — at every restore point, the answer
        is naive evaluation's."""
        from repro.datalog.parser import parse_program
        from repro.engine import evaluate
        from repro.parallel import rewrite_general

        program = parse_program("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            anc(0, Y) :- anc(5, Y).
        """)
        parallel = rewrite_general(program, (0, 1))
        naive = evaluate(program, dag_db, method="naive")
        answer, rounds, firings = self._drive(parallel, dag_db)
        assert answer == naive.relation("anc").as_set()
        assert rounds >= 3
        for restore_at in range(1, rounds + 1):
            assert self._drive(parallel, dag_db, restore_at) == (
                answer, rounds, firings), restore_at


class TestRouteFirst:
    """A single-target predicate is routed before any dedup: the own
    share is ingested (and deduplicated) once, into ``t_in``, and
    ``t_out`` holds only what was sent."""

    def test_own_share_as_produced_remote_share_deduplicated(self):
        from repro.parallel import example3_scheme

        parallel = example3_scheme(ancestor_program(), (0, 1))
        h = parallel.program_for(0).routes[0].discriminator
        # Processor 0 joins anc(Z, 9) with par(X, Z) for h(Z) = 0 and
        # routes anc(X, 9) to h(X): two Z per X make two copies of each.
        zs = [v for v in range(20) if h((v,)) == 0][:2]
        own = next(v for v in range(20, 40) if h((v,)) == 0)
        remote = next(v for v in range(20, 40) if h((v,)) == 1)
        database = Database.from_facts(
            {"par": [(x, z) for x in (own, remote) for z in zs]})
        runtime = ProcessorRuntime(parallel.program_for(0),
                                   parallel.local_database(0, database))
        runtime.receive("anc", [(z, 9) for z in zs])
        [(predicate, routed)] = runtime.step_batches()
        assert predicate == "anc"
        assert routed.buckets == {0: [(own, 9), (own, 9)], 1: [(remote, 9)]}
        _ins, outs, _staged = runtime.export_state()
        assert outs == {"anc": [(remote, 9)]}
        # The own share's duplicate never crossed a channel.
        runtime.receive("anc", routed.buckets[0], remote=False)
        runtime.step_batches()
        assert runtime.duplicates_dropped == 0
        assert set(runtime.output_relation("anc")) == {
            (z, 9) for z in zs} | {(own, 9)}


_PARTS_SCHEMES = ("example1", "example2", "example3", "hash", "wolfson",
                  "general")
# A fact has one owner under these, whoever derives it; Wolfson's
# scheme keeps each derivation where it was made, so its parts overlap.
_DISJOINT = ("example1", "example3", "hash")


def _scheme(name, program, processors, database):
    from repro.parallel import (example1_scheme, example2_scheme,
                                example3_scheme, rewrite_general,
                                wolfson_scheme)

    if name == "example2":
        return example2_scheme(program, processors, database)
    return {"example1": example1_scheme, "example3": example3_scheme,
            "hash": hash_scheme, "wolfson": wolfson_scheme,
            "general": rewrite_general}[name](program, processors)


@given(name=st.sampled_from(_PARTS_SCHEMES), processors=st.integers(1, 3),
       nodes=st.integers(2, 24), seed=st.integers(0, 1000),
       shape=st.sampled_from(["tree", "dag"]))
@settings(max_examples=60, deadline=None)
def test_parts_pool_to_the_answer(name, processors, nodes, seed, shape):
    """The union of the processors' parts is the sequential answer; where
    a fact has one owner the parts are disjoint, so pooling meets no
    duplicate."""
    from repro.engine import evaluate
    from repro.parallel.simulator import SimulatedCluster
    from repro.workloads import random_dag_edges, random_tree_edges

    program = ancestor_program()
    edges = (random_dag_edges(nodes, parents=2, seed=seed) if shape == "dag"
             else random_tree_edges(nodes, seed=seed))
    database = Database.from_facts({"par": edges})
    cluster = SimulatedCluster(
        _scheme(name, program, tuple(range(processors)), database), database)
    result = cluster.run()
    answer = evaluate(program, database).relation("anc").as_set()
    parts = [set(runtime.output_relation("anc"))
             for runtime in cluster.runtimes.values()]
    assert set().union(*parts) == answer == result.relation("anc").as_set()
    assert result.metrics.pooled_tuples == sum(map(len, parts))
    if name in _DISJOINT:
        assert result.metrics.pooled_tuples == len(answer)


class TestWholeBatchOwnShare:
    """At ``n = 1`` under a total discriminator (hash or modulo) every
    fact a processor derives is its own: the batch is emitted as its
    own share without splitting, with exactly the buckets, answer and
    counters of the split."""

    @pytest.mark.parametrize("name", ["example1", "example3", "hash"])
    def test_no_split_and_nothing_else_moves(self, name, monkeypatch):
        from repro.engine import evaluate
        from repro.parallel.routing import RouterTable
        from repro.parallel.simulator import SimulatedCluster
        from repro.workloads import random_dag_edges

        program = ancestor_program()
        database = Database.from_facts(
            {"par": random_dag_edges(40, parents=2, seed=3)})

        def run():
            emitted = []
            step_batches = ProcessorRuntime.step_batches

            def recording(runtime):
                batches = step_batches(runtime)
                emitted.append([(pred, {target: list(bucket) for target, bucket
                                        in routed.buckets.items()})
                                for pred, routed in batches])
                return batches

            with monkeypatch.context() as patch:
                patch.setattr(ProcessorRuntime, "step_batches", recording)
                cluster = SimulatedCluster(
                    _scheme(name, program, (0,), database), database)
                result = cluster.run()
            runtime, counters = cluster.runtimes[0], result.counters[0]
            return (emitted, result.relation("anc").as_set(),
                    result.metrics.summary(),
                    (dict(counters.firings), counters.probes,
                     counters.iterations),
                    (runtime.emitted, runtime.received_total,
                     runtime.duplicates_dropped, runtime.broadcast_tuples))

        split = RouterTable.split

        def refused(*_args):
            raise AssertionError("split called at n = 1")

        monkeypatch.setattr(RouterTable, "split", refused)
        whole = run()
        monkeypatch.setattr(RouterTable, "split", split)
        monkeypatch.setattr(RouterTable, "sole_target", lambda *_args: None)
        assert whole == run()
        assert whole[1] == evaluate(program, database).relation("anc").as_set()
        assert any(batches for batches in whole[0])
