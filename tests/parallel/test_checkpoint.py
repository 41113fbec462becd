"""The worker checkpoint as it crosses the channels.

``encode_checkpoint`` / ``decode_checkpoint`` must be exact inverses on
:class:`~repro.parallel.mp.checkpoint.WorkerCheckpoint` — the restored
worker's dedup sets, counters and (crucially) the fact → stamp
association inside the sent-log all come straight out of the decoder,
so any loss here silently corrupts recovery.  The coordinator never
decodes a checkpoint: it stores the blob as it arrived and prices it
by its length.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts import Database
from repro.obs.tracer import ensure_tracer
from repro.parallel import hash_scheme
from repro.parallel.mp.checkpoint import (
    WorkerCheckpoint,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.parallel.mp.machines import (
    COORDINATOR,
    CoordinatorMachine,
    WorkerMachine,
)
from repro.parallel.mp.protocol import CHECKPOINT, TRUNCATE
from repro.parallel.processor import ProcessorRuntime
from repro.workloads import ancestor_program

# Values that survive a fact tuple: ints (including beyond int64),
# strings, and None.
_values = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.text(max_size=6),
    st.none(),
)


def _fact_lists(min_size=0, max_size=12):
    """Fixed-arity fact batches."""
    return st.integers(1, 3).flatmap(
        lambda arity: st.lists(
            st.tuples(*[_values] * arity),
            min_size=min_size, max_size=max_size,
            unique=True))


_relations = st.dictionaries(
    st.sampled_from(("anc", "sg", "path")), _fact_lists(), max_size=2)

_stamps = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 5), st.integers(0, 1000)))


@st.composite
def _sent_logs(draw):
    log = {}
    for target in draw(st.sets(st.integers(0, 3), max_size=2)):
        by_pred = {}
        for pred in draw(st.sets(st.sampled_from(("anc", "sg")),
                                 max_size=2)):
            facts = draw(_fact_lists(max_size=10))
            by_pred[pred] = {fact: draw(_stamps) for fact in facts}
        log[target] = by_pred
    return log


@st.composite
def _checkpoints(draw):
    return WorkerCheckpoint(
        epoch=draw(st.integers(0, 4)),
        in_facts=draw(_relations),
        out_facts=draw(_relations),
        staged=draw(_relations),
        counters={"firings": draw(st.integers(0, 10 ** 6)),
                  "iterations": draw(st.integers(0, 100))},
        duplicates_dropped=draw(st.integers(0, 1000)),
        received=draw(st.integers(0, 10 ** 6)),
        self_delivered=draw(st.integers(0, 10 ** 6)),
        sent_log=draw(_sent_logs()),
        watermarks={sender: (draw(st.integers(0, 5)),
                             draw(st.integers(0, 1000)))
                    for sender in draw(st.sets(st.integers(0, 3),
                                               max_size=3))},
    )


class TestRoundTrip:
    @given(_checkpoints())
    @settings(max_examples=60, deadline=None)
    def test_decode_inverts_encode(self, checkpoint):
        assert decode_checkpoint(encode_checkpoint(checkpoint)) == checkpoint

    def test_empty_checkpoint(self):
        checkpoint = WorkerCheckpoint()
        blob = encode_checkpoint(checkpoint)
        assert decode_checkpoint(blob) == checkpoint
        assert len(blob) > 0

    def test_sent_log_stamps_survive(self):
        facts = [(i, i + 1) for i in range(32)]
        checkpoint = WorkerCheckpoint(
            in_facts={"anc": facts},
            sent_log={1: {"anc": {fact: (0, i)
                                  for i, fact in enumerate(facts)}}})
        decoded = decode_checkpoint(encode_checkpoint(checkpoint))
        assert decoded == checkpoint
        assert decoded.sent_log[1]["anc"][facts[7]] == (0, 7)


class TestSizeModel:
    @given(_checkpoints())
    @settings(max_examples=25, deadline=None)
    def test_size_is_deterministic_and_positive(self, checkpoint):
        size = len(encode_checkpoint(checkpoint))
        assert size > 0
        assert size == len(encode_checkpoint(checkpoint))

    def test_size_grows_with_content(self):
        small = encode_checkpoint(WorkerCheckpoint(
            in_facts={"anc": [(1, 2)]}))
        large = encode_checkpoint(WorkerCheckpoint(
            in_facts={"anc": [(i, i + 1) for i in range(200)]}))
        assert len(large) > len(small)

    def test_fact_count_sums_all_sections(self):
        checkpoint = WorkerCheckpoint(
            in_facts={"anc": [(1, 2), (2, 3)]},
            out_facts={"anc": [(1, 3)]},
            staged={"anc": [(0, 1)]})
        assert checkpoint.fact_count() == 4


class TestCoordinatorStoresTheBlob:
    def test_blob_is_stored_undecoded_and_priced_by_its_length(self):
        """A worker's CHECKPOINT carries its watermarks beside one
        pickled blob; the coordinator keeps that very ``bytes`` object,
        counts its length as ``checkpoint_bytes`` and fans the
        watermarks out as truncations."""
        parallel = hash_scheme(ancestor_program(), (0, 1))
        database = Database.from_facts(
            {"par": [(k, k + 1) for k in range(6)]})
        runtime = ProcessorRuntime(parallel.program_for(0),
                                   parallel.local_database(0, database))
        worker = WorkerMachine(runtime, lambda: 0.0, [1],
                               checkpoint_interval=1)
        worker.start()
        worker.on_message(("data", 1, [("anc", [(9, 10)])], 0, (0, 4)))
        outputs = []
        while runtime.has_pending_input():
            outputs += worker.step()
        checkpoints = [message for target, message in outputs
                       if target is COORDINATOR and message[0] == CHECKPOINT]
        assert checkpoints
        _, proc, watermarks, blob = checkpoints[-1]
        assert (proc, watermarks) == (0, {1: (0, 4)})
        assert type(blob) is bytes
        assert decode_checkpoint(blob).watermarks == {1: (0, 4)}

        coordinator = CoordinatorMachine(
            [0, 1], recovery="checkpoint", max_restarts=1,
            probe_interval=1.0, timeout=60.0, ack_timeout=10.0,
            kill_after={}, tracer=ensure_tracer(None), started=0.0)
        truncations = coordinator.on_message(checkpoints[-1], 0.0)
        assert coordinator.checkpoints[0] is blob
        assert coordinator.checkpoint_bytes == len(blob)
        assert truncations == [(1, (TRUNCATE, 0, (0, 4)))]
