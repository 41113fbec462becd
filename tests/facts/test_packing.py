"""Tests for the packed-column wire encoding.

``unpack_facts(pack_facts(facts))`` must be the identity on fact lists
— the mp executor's routing, dedup and quiescence counting all assume
the wire format is invisible.  The size model in
:mod:`repro.parallel.metrics` must also understand the layout, and the
packed encoding must actually be smaller than the tuple model on the
workloads it targets (int-heavy batches).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts import (
    is_packed,
    pack_facts,
    packed_fact_count,
    unpack_facts,
)
from repro.facts.packing import _encode_column
from repro.parallel.metrics import (
    approx_batch_bytes,
    approx_fact_bytes,
    approx_packed_bytes,
)


def _round_trip(facts):
    payload = pack_facts(facts)
    assert is_packed(payload)
    assert packed_fact_count(payload) == len(facts)
    assert unpack_facts(payload) == facts


class TestPackRoundTrip:
    def test_int_pairs(self):
        _round_trip([(1, 2), (3, 4), (5, 6)])

    def test_strings(self):
        _round_trip([("a", "x"), ("b", "x"), ("a", "y")])

    def test_mixed_types(self):
        _round_trip([(1, "a", 2.5), (2, "b", None), (3, "a", 2.5)])

    def test_empty_batch(self):
        payload = pack_facts([])
        assert is_packed(payload)
        assert packed_fact_count(payload) == 0
        assert unpack_facts(payload) == []

    def test_zero_arity(self):
        _round_trip([(), (), ()])

    def test_unary(self):
        _round_trip([(7,), (8,)])

    def test_big_int_falls_out_of_int64_column(self):
        facts = [(2 ** 80, 1), (3, 2)]
        payload = pack_facts(facts)
        kinds = [column[0] for column in payload[3]]
        assert kinds[0] != "i"  # too wide for int64
        assert kinds[1] == "i"
        assert unpack_facts(payload) == facts

    def test_int64_boundaries(self):
        # The two extremes of int64 stay in the int column; one past
        # either end falls out to a value encoding.
        for inside in (2 ** 63 - 1, -2 ** 63):
            kind, raw = _encode_column([inside, 0])
            assert kind == "i"
            assert len(raw) == 2 * 8
        for outside in (2 ** 63, -2 ** 63 - 1):
            assert _encode_column([outside, 0])[0] != "i"
        facts = [(2 ** 63 - 1, 2 ** 63), (-2 ** 63, -2 ** 63 - 1)]
        payload = pack_facts(facts)
        assert [column[0] for column in payload[3]] == ["i", "v"]
        assert unpack_facts(payload) == facts

    def test_int_subclass_not_collapsed_into_int_column(self):
        class Tagged(int):
            pass

        facts = [(Tagged(1),), (Tagged(2),)]
        payload = pack_facts(facts)
        assert payload[3][0][0] != "i"
        assert all(type(fact[0]) is Tagged for fact in unpack_facts(payload))

    def test_bool_not_collapsed_into_int_column(self):
        # bools share equality with 0/1 but must survive as bools.
        facts = [(True, 1), (False, 2)]
        payload = pack_facts(facts)
        assert payload[3][0][0] != "i"
        assert unpack_facts(payload) == facts
        assert all(type(fact[0]) is bool for fact in unpack_facts(payload))

    def test_legacy_list_payload_not_packed(self):
        assert not is_packed([(1, 2), (3, 4)])
        assert not is_packed([])


class TestColumnEncodings:
    def test_int_column_is_raw_bytes(self):
        kind, raw = _encode_column([1, 2, 3])
        assert kind == "i"
        assert len(raw) == 3 * 8

    def test_repetitive_column_dictionary_encoded(self):
        values = ["a", "b"] * 10
        kind, uniques, typecode, raw = _encode_column(values)
        assert kind == "d"
        assert uniques == ("a", "b")
        assert typecode == "H"

    def test_high_cardinality_column_ships_raw(self):
        values = [f"v{i}" for i in range(10)]
        kind, payload = _encode_column(values)
        assert kind == "v"
        assert payload == values


# Values of the kinds Datalog workloads actually route: small ints,
# short strings, None.  bool excluded: True == 1 collapses under set
# semantics, which is the relation layer's (pre-existing) behaviour.
_value = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                   st.text(max_size=6), st.none(), st.floats(allow_nan=False))


class TestPackingProperty:
    @given(st.integers(1, 4).flatmap(
        lambda arity: st.lists(
            st.tuples(*[_value] * arity), min_size=0, max_size=40)))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_identity(self, facts):
        _round_trip(facts)


class TestSizeModel:
    def test_packed_int_batch_smaller_than_tuple_model(self):
        facts = [(i, i + 1) for i in range(32)]
        packed = approx_packed_bytes(pack_facts(facts))
        as_tuples = sum(approx_fact_bytes(fact) for fact in facts)
        assert packed < as_tuples

    def test_batch_bytes_dispatches_on_payload_shape(self):
        facts = [(i, 1) for i in range(16)]
        tuple_batch = approx_batch_bytes([("p", facts)])
        packed_batch = approx_batch_bytes([("p", pack_facts(facts))])
        assert packed_batch < tuple_batch

    def test_packed_bytes_track_dictionary_and_raw_columns(self):
        repetitive = [("a",) for _ in range(32)]
        distinct = [(f"value-{i}",) for i in range(32)]
        cheap = approx_packed_bytes(pack_facts(repetitive))
        costly = approx_packed_bytes(pack_facts(distinct))
        assert cheap < costly
