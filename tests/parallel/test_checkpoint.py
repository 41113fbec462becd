"""Round-trip properties of the worker checkpoint wire format.

``encode_checkpoint`` / ``decode_checkpoint`` must be exact inverses on
:class:`~repro.parallel.mp.checkpoint.WorkerCheckpoint` — the restored
worker's dedup sets, counters and (crucially) the fact → stamp
association inside the sent-log all come straight out of the decoder,
so any loss here silently corrupts recovery.  The encoding leans on the
packed column format, which kicks in only for batches of
``PACK_MIN_FACTS`` or more; the strategies below deliberately straddle
that threshold so both the packed and the plain path are property
tested.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts.packing import PACK_MIN_FACTS, is_packed
from repro.parallel.mp.checkpoint import (
    CHECKPOINT_VERSION,
    WorkerCheckpoint,
    approx_checkpoint_bytes,
    decode_checkpoint,
    encode_checkpoint,
)

# Values that survive a fact tuple: ints (including beyond int64, which
# forces the non-int column fallback), strings, and None.
_values = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.text(max_size=6),
    st.none(),
)


def _fact_lists(min_size=0, max_size=PACK_MIN_FACTS + 4):
    """Fixed-arity fact batches straddling the packing threshold."""
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
            facts = draw(_fact_lists(max_size=PACK_MIN_FACTS + 2))
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
        payload = encode_checkpoint(checkpoint)
        assert payload["version"] == CHECKPOINT_VERSION
        assert decode_checkpoint(payload) == checkpoint
        assert approx_checkpoint_bytes(payload) > 0

    def test_large_batches_travel_packed(self):
        facts = [(i, i + 1) for i in range(4 * PACK_MIN_FACTS)]
        checkpoint = WorkerCheckpoint(
            in_facts={"anc": facts},
            sent_log={1: {"anc": {fact: (0, i)
                                  for i, fact in enumerate(facts)}}})
        payload = encode_checkpoint(checkpoint)
        assert is_packed(payload["in"]["anc"])
        assert is_packed(payload["sent_log"][1]["anc"][0])
        decoded = decode_checkpoint(payload)
        assert decoded == checkpoint
        # The stamp association survives the packed detour exactly.
        assert decoded.sent_log[1]["anc"][facts[7]] == (0, 7)

    def test_unknown_version_rejected(self):
        payload = encode_checkpoint(WorkerCheckpoint())
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="checkpoint version"):
            decode_checkpoint(payload)


class TestSizeModel:
    @given(_checkpoints())
    @settings(max_examples=25, deadline=None)
    def test_size_is_deterministic_and_positive(self, checkpoint):
        payload = encode_checkpoint(checkpoint)
        size = approx_checkpoint_bytes(payload)
        assert size > 0
        assert size == approx_checkpoint_bytes(payload)

    def test_size_grows_with_content(self):
        small = encode_checkpoint(WorkerCheckpoint(
            in_facts={"anc": [(1, 2)]}))
        large = encode_checkpoint(WorkerCheckpoint(
            in_facts={"anc": [(i, i + 1) for i in range(200)]}))
        assert (approx_checkpoint_bytes(large)
                > approx_checkpoint_bytes(small))

    def test_fact_count_sums_all_sections(self):
        checkpoint = WorkerCheckpoint(
            in_facts={"anc": [(1, 2), (2, 3)]},
            out_facts={"anc": [(1, 3)]},
            staged={"anc": [(0, 1)]})
        assert checkpoint.fact_count() == 4
