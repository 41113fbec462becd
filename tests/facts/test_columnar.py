"""Tests for the columnar fact backend.

The load-bearing property is observable equivalence with the tuple
backend: a :class:`ColumnarRelation` must behave exactly like a
:class:`Relation` under every sequence of Relation-API operations
(docs/DATA_PLANE.md).  The hypothesis test at the bottom drives both
backends through random add/update/discard programs and compares every
observable after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.facts import (
    ColumnarIndex,
    ColumnarRelation,
    Relation,
    fact_backend,
    global_interner,
    make_relation,
    relation_class,
    set_fact_backend,
)


class TestBackendSelection:
    def test_default_is_tuple(self):
        assert fact_backend() in ("tuple", "columnar")
        assert relation_class("tuple") is Relation
        assert relation_class("columnar") is ColumnarRelation

    def test_set_backend_round_trip(self):
        previous = set_fact_backend("columnar")
        try:
            assert fact_backend() == "columnar"
            relation = make_relation("p", 2)
            assert isinstance(relation, ColumnarRelation)
        finally:
            set_fact_backend(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="'arrow'"):
            set_fact_backend("arrow")

    def test_make_relation_explicit_backend(self):
        relation = make_relation("p", 1, [(1,)], backend="columnar")
        assert isinstance(relation, ColumnarRelation)
        assert (1,) in relation


class TestColumnarRelation:
    def test_relation_api_matches_tuple_backend(self):
        tup = Relation("p", 2, [(1, 2), (3, 4)])
        col = ColumnarRelation("p", 2, [(1, 2), (3, 4)])
        assert col == tup
        assert col.add((5, 6)) is True and tup.add((5, 6)) is True
        assert col.add((5, 6)) is False
        assert col.discard((1, 2)) is True and tup.discard((1, 2)) is True
        assert sorted(col) == sorted(tup)
        assert len(col) == len(tup)

    def test_arity_enforced(self):
        relation = ColumnarRelation("p", 2)
        with pytest.raises(ValueError):
            relation.add((1, 2, 3))
        with pytest.raises(ValueError):
            relation.update([(1,)])
        with pytest.raises(ValueError):
            relation.add_new_many([(1,)])

    def test_add_new_many_first_occurrence_order(self):
        relation = ColumnarRelation("p", 1, [(1,)])
        fresh = relation.add_new_many([(2,), (1,), (3,), (2,)])
        assert fresh == [(2,), (3,)]

    def test_columns_decode_through_interner(self):
        relation = ColumnarRelation("p", 2, [("a", 1), ("b", 2)])
        cols = relation.columns()
        assert len(cols) == 2
        interner = global_interner()
        assert [interner.value_of(i) for i in cols[0]] == ["a", "b"]
        assert [interner.value_of(i) for i in cols[1]] == [1, 2]

    def test_columns_appended_on_add_invalidated_on_discard(self):
        relation = ColumnarRelation("p", 1, [(1,)])
        first = relation.columns()
        relation.add((2,))
        second = relation.columns()
        # Additive mutations append to the materialised cache in place
        # (O(new) per round) instead of forcing an O(total) rebuild.
        assert first is second
        interner = global_interner()
        assert [interner.value_of(i) for i in second[0]] == [1, 2]
        relation.update([(3,), (2,)])
        assert [interner.value_of(i) for i in relation.columns()[0]] == [1, 2, 3]
        # Removals still invalidate wholesale.
        relation.discard((1,))
        third = relation.columns()
        assert third is not second
        assert [interner.value_of(i) for i in third[0]] == [2, 3]

    def test_value_columns_cached_and_appended(self):
        relation = ColumnarRelation("p", 2, [("x", 1)])
        cols = relation.value_columns()
        assert cols == [["x"], [1]]
        relation.add_new_many([("y", 2), ("x", 1)])
        assert relation.value_columns() is cols
        assert cols == [["x", "y"], [1, 2]]
        relation.discard(("x", 1))
        assert relation.value_columns() == [["y"], [2]]

    def test_column_values_raw(self):
        relation = ColumnarRelation("p", 2, [("x", 1), ("y", 2)])
        assert relation.column_values(0) == ["x", "y"]
        assert relation.column_values(1) == [1, 2]

    def test_column_array(self):
        relation = ColumnarRelation("p", 1, [(10,), (20,)])
        column = relation.column_array(0)
        decoded = [global_interner().value_of(int(i)) for i in column]
        assert decoded == [10, 20]

    def test_copy_is_independent(self):
        relation = ColumnarRelation("p", 1, [(1,)])
        clone = relation.copy("q")
        clone.add((2,))
        assert len(relation) == 1 and len(clone) == 2
        assert clone.name == "q"

    def test_index_on_returns_columnar_index(self):
        relation = ColumnarRelation("p", 2, [(1, 2), (1, 3)])
        index = relation.index_on((0,))
        assert isinstance(index, ColumnarIndex)
        assert sorted(index.lookup((1,))) == [(1, 2), (1, 3)]


class TestColumnarIndex:
    def test_bucket_column_matches_bucket_order(self):
        relation = ColumnarRelation("p", 2, [(1, 2), (1, 3), (2, 9)])
        index = relation.index_on((0,))
        assert list(index.bucket_column((1,), 1)) == [2, 3]
        assert list(index.bucket_column((1,), 0)) == [1, 1]
        assert list(index.bucket_column((9,), 1)) == []

    def test_bucket_column_cache_invalidated_per_bucket(self):
        relation = ColumnarRelation("p", 2, [(1, 2), (2, 5)])
        index = relation.index_on((0,))
        assert list(index.bucket_column((1,), 1)) == [2]
        other = index.bucket_column((2,), 1)
        relation.add((1, 7))  # mutates bucket (1,) only
        assert list(index.bucket_column((1,), 1)) == [2, 7]
        assert index.bucket_column((2,), 1) is other

    def test_bucket_column_tracks_discard(self):
        relation = ColumnarRelation("p", 2, [(1, 2), (1, 3)])
        index = relation.index_on((0,))
        assert list(index.bucket_column((1,), 1)) == [2, 3]
        relation.discard((1, 2))
        assert list(index.bucket_column((1,), 1)) == [3]


# Random operation programs: each op is (kind, fact-or-facts).
_fact = st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "c"]))
_op = st.one_of(
    st.tuples(st.just("add"), _fact),
    st.tuples(st.just("discard"), _fact),
    st.tuples(st.just("update"), st.lists(_fact, max_size=6)),
    st.tuples(st.just("add_new_many"), st.lists(_fact, max_size=6)),
)


class TestBackendEquivalenceProperty:
    @given(st.lists(_op, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_random_op_sequences_agree(self, ops):
        tup = Relation("p", 2)
        col = ColumnarRelation("p", 2)
        tup_index = tup.index_on((0,))
        col_index = col.index_on((0,))
        for kind, payload in ops:
            if kind == "add":
                assert tup.add(payload) == col.add(payload)
            elif kind == "discard":
                assert tup.discard(payload) == col.discard(payload)
            elif kind == "update":
                assert tup.update(payload) == col.update(payload)
            else:
                assert (tup.add_new_many(payload)
                        == col.add_new_many(payload))
            # Every observable, after every step.  The contract is
            # set-level: the tuple backend iterates in set order, the
            # columnar one in insertion order, and nothing may depend
            # on the difference.
            assert sorted(tup) == sorted(col)
            assert tup == col
            assert len(tup) == len(col)
            for key in {(fact[0],) for fact in tup}:
                assert (sorted(tup_index.lookup(key))
                        == sorted(col_index.lookup(key)))
                # The gathered column must stay row-aligned with its
                # own bucket's iteration order.
                assert (list(col_index.bucket_column(key, 1))
                        == [fact[1] for fact in col_index.lookup(key)])

    @given(st.lists(_fact, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_columns_row_aligned_with_iteration(self, facts):
        relation = ColumnarRelation("p", 2, facts)
        interner = global_interner()
        rows = list(zip(*(
            [interner.value_of(i) for i in column]
            for column in relation.columns()))) if len(relation) else []
        assert rows == list(relation)
