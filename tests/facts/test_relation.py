"""Tests for relations and their incremental indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts import Relation


class TestRelation:
    def test_add_reports_novelty(self):
        relation = Relation("p", 2)
        assert relation.add((1, 2)) is True
        assert relation.add((1, 2)) is False
        assert len(relation) == 1

    def test_arity_enforced(self):
        relation = Relation("p", 2)
        with pytest.raises(ValueError):
            relation.add((1, 2, 3))

    def test_add_new_many_first_occurrence_order(self):
        relation = Relation("p", 1, [(1,)])
        index = relation.index_on((0,))
        assert relation.add_new_many([(2,), (1,), (3,), (2,)]) == [(2,), (3,)]
        assert list(index.lookup((3,))) == [(3,)]
        with pytest.raises(ValueError):
            relation.add_new_many([(1, 2)])

    @pytest.mark.parametrize("bad", [(3,), (3, [4])],
                             ids=["wrong-arity", "unhashable"])
    def test_add_new_many_raising_mid_batch_changes_nothing(self, bad):
        """A fact that cannot be stored rolls back the facts before it,
        so the relation and its index still agree and a retry adds
        them."""
        relation = Relation("p", 2, [(0, 0)])
        index = relation.index_on((0,))
        with pytest.raises((ValueError, TypeError)):
            relation.add_new_many([(1, 2), (0, 0), (5, 6), bad])
        assert relation.as_set() == {(0, 0)}
        assert len(index) == 1
        assert relation.add_new_many([(1, 2), (5, 6)]) == [(1, 2), (5, 6)]
        assert list(relation.lookup((0,), (1,))) == [(1, 2)]
        assert len(index) == 3

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Relation("p", -1)

    def test_update_counts_new_only(self):
        relation = Relation("p", 1)
        assert relation.update([(1,), (2,), (1,)]) == 2

    def test_membership_and_iteration(self):
        relation = Relation("p", 2, [(1, 2), (3, 4)])
        assert (1, 2) in relation
        assert (9, 9) not in relation
        assert sorted(relation) == [(1, 2), (3, 4)]

    def test_discard(self):
        relation = Relation("p", 1, [(1,)])
        assert relation.discard((1,)) is True
        assert relation.discard((1,)) is False
        assert len(relation) == 0

    def test_lookup_uses_index(self):
        relation = Relation("p", 2, [(1, 2), (1, 3), (2, 3)])
        assert sorted(relation.lookup((0,), (1,))) == [(1, 2), (1, 3)]
        assert list(relation.lookup((0,), (9,))) == []

    def test_index_maintained_on_add(self):
        relation = Relation("p", 2, [(1, 2)])
        index = relation.index_on((1,))
        relation.add((5, 2))
        assert sorted(index.lookup((2,))) == [(1, 2), (5, 2)]

    def test_index_maintained_on_discard(self):
        relation = Relation("p", 2, [(1, 2), (5, 2)])
        index = relation.index_on((1,))
        relation.discard((1, 2))
        assert list(index.lookup((2,))) == [(5, 2)]

    def test_multi_position_lookup(self):
        relation = Relation("p", 3, [(1, 2, 3), (1, 2, 4), (1, 9, 3)])
        assert sorted(relation.lookup((0, 1), (1, 2))) == [(1, 2, 3), (1, 2, 4)]

    def test_copy_is_independent(self):
        original = Relation("p", 1, [(1,)])
        clone = original.copy()
        clone.add((2,))
        assert len(original) == 1
        assert len(clone) == 2

    def test_copy_can_rename(self):
        clone = Relation("p", 1, [(1,)]).copy(name="p@frag")
        assert clone.name == "p@frag"

    def test_clear(self):
        relation = Relation("p", 1, [(1,), (2,)])
        relation.index_on((0,))
        relation.clear()
        assert len(relation) == 0
        assert list(relation.lookup((0,), (1,))) == []

    def test_equality(self):
        assert Relation("p", 1, [(1,)]) == Relation("p", 1, [(1,)])
        assert Relation("p", 1, [(1,)]) != Relation("p", 1, [(2,)])
        assert Relation("p", 1) != Relation("q", 1)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Relation("p", 1))

    def test_facts_view_is_live(self):
        relation = Relation("p", 1)
        view = relation.facts()
        relation.add((1,))
        assert (1,) in view
        assert len(view) == 1


_facts = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30)
# How the batch reaches update(): the C-level path takes lists, tuples,
# sets and relations of plain tuples; lists-as-facts and generators take
# the per-fact loop.
_shapes = st.sampled_from(["list", "tuple", "set", "list-of-lists",
                           "generator"])


def _shaped(facts, shape):
    if shape == "relation":
        return Relation("q", 2, facts)
    if shape == "list":
        return list(facts)
    if shape == "tuple":
        return tuple(facts)
    if shape == "set":
        return set(facts)
    if shape == "list-of-lists":
        return [list(fact) for fact in facts]
    return (fact for fact in facts)


class TestUpdateMatchesAddLoop:
    @given(initial=_facts, batch=_facts,
           shape=_shapes | st.just("relation"), indexed=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_facts_indexes_and_count(self, initial, batch, shape,
                                          indexed):
        bulk = Relation("p", 2, initial)
        reference = Relation("p", 2, initial)
        if indexed:
            bulk.index_on((1,))
            reference.index_on((1,))
        added = bulk.update(_shaped(batch, shape))
        expected = sum(reference.add(fact) for fact in batch)
        assert added == expected
        assert bulk.as_set() == reference.as_set()
        if indexed:
            for value in range(6):
                assert (sorted(bulk.lookup((1,), (value,)))
                        == sorted(reference.lookup((1,), (value,))))

    @given(initial=_facts, batch=_facts, shape=_shapes,
           indexed=st.booleans(), bad_at=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_wrong_arity_raises_and_changes_nothing(self, initial, batch,
                                                    shape, indexed, bad_at):
        relation = Relation("p", 2, initial)
        if indexed:
            relation.index_on((0,))
        bad = list(batch)
        bad.insert(min(bad_at, len(bad)), (1, 2, 3))
        before = relation.as_set()
        with pytest.raises(ValueError):
            relation.update(_shaped(bad, shape))
        assert relation.as_set() == before
        if indexed:
            assert (sum(len(list(relation.lookup((0,), (v,))))
                        for v in range(6)) == len(before))

    def test_relation_of_another_arity_rejected(self):
        relation = Relation("p", 2, [(1, 2)])
        with pytest.raises(ValueError):
            relation.update(Relation("q", 3, [(1, 2, 3)]))
        assert relation.as_set() == {(1, 2)}


class TestUpdateFromRelation:
    """``update(Relation)`` of the same arity is a set union over the
    stored facts, with no per-fact scan."""

    def test_same_arity_is_the_union(self):
        relation = Relation("p", 2, [(1, 2), (2, 3)])
        other = Relation("q", 2, [(2, 3), (3, 4), (4, 5)])
        assert relation.update(other) == 2
        assert relation.as_set() == {(1, 2), (2, 3), (3, 4), (4, 5)}
        assert other.as_set() == {(2, 3), (3, 4), (4, 5)}

    def test_other_arity_raises_and_changes_nothing(self):
        relation = Relation("p", 2, [(1, 2)])
        relation.index_on((0,))
        for other in (Relation("q", 3, [(1, 2, 3)]), Relation("q", 1)):
            with pytest.raises(ValueError, match="q/"):
                relation.update(other)
            assert relation.as_set() == {(1, 2)}
            assert list(relation.lookup((0,), (1,))) == [(1, 2)]

    def test_indexes_receive_the_new_facts(self):
        relation = Relation("p", 2, [(1, 2)])
        relation.index_on((0,))
        relation.index_on((1,))
        assert relation.update(Relation("q", 2, [(1, 2), (1, 3), (5, 3)])) == 2
        assert sorted(relation.lookup((0,), (1,))) == [(1, 2), (1, 3)]
        assert sorted(relation.lookup((1,), (3,))) == [(1, 3), (5, 3)]
        assert list(relation.lookup((0,), (5,))) == [(5, 3)]
