"""Tests for hash indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts import HashIndex


class TestHashIndex:
    def test_lookup_by_key(self):
        index = HashIndex((0,))
        index.add((1, "a"))
        index.add((1, "b"))
        index.add((2, "c"))
        assert sorted(index.lookup((1,))) == [(1, "a"), (1, "b")]
        assert list(index.lookup((3,))) == []

    def test_key_of(self):
        index = HashIndex((2, 0))
        assert index.key_of(("a", "b", "c")) == ("c", "a")

    def test_discard_removes_and_prunes_bucket(self):
        index = HashIndex((0,))
        index.add((1, "a"))
        index.discard((1, "a"))
        assert list(index.lookup((1,))) == []
        assert len(index) == 0

    def test_discard_absent_is_noop(self):
        index = HashIndex((0,))
        index.add((1, "a"))
        index.discard((2, "b"))
        index.discard((1, "zzz"))
        assert len(index) == 1

    def test_empty_positions_index(self):
        index = HashIndex(())
        index.add((1,))
        index.add((2,))
        assert sorted(index.lookup(())) == [(1,), (2,)]

    def test_len_counts_all_facts(self):
        index = HashIndex((0,))
        for value in range(5):
            index.add((value % 2, value))
        assert len(index) == 5

    def test_add_is_idempotent(self):
        index = HashIndex((0,))
        index.add((1, "a"))
        index.add((1, "a"))
        assert len(index) == 1
        assert list(index.lookup((1,))) == [(1, "a")]

    def test_add_many_matches_repeated_add(self):
        bulk = HashIndex((1,))
        single = HashIndex((1,))
        facts = [(i, i % 3) for i in range(20)] + [(0, 0)]
        bulk.add_many(facts)
        for fact in facts:
            single.add(fact)
        assert len(bulk) == len(single) == 20
        for key in range(3):
            assert sorted(bulk.lookup((key,))) == sorted(
                single.lookup((key,)))

    def test_lookup_preserves_insertion_order(self):
        index = HashIndex((0,))
        facts = [(1, chr(ord("a") + i)) for i in range(8)]
        for fact in facts:
            index.add(fact)
        assert list(index.lookup((1,))) == facts
        index.discard(facts[3])
        expected = facts[:3] + facts[4:]
        assert list(index.lookup((1,))) == expected

    def test_len_tracks_interleaved_add_discard(self):
        index = HashIndex((0,))
        for value in range(100):
            index.add((value % 5, value))
        for value in range(0, 100, 2):
            index.discard((value % 5, value))
        assert len(index) == 50
        index.discard((17, "never added"))
        assert len(index) == 50


class TestLookupMany:
    def test_one_bucket_per_key_in_order(self):
        index = HashIndex((0,))
        index.add_many([(1, "a"), (2, "b"), (1, "c")])
        buckets = index.lookup_many([(2,), (1,), (2,)])
        assert [list(bucket) for bucket in buckets] == [
            [(2, "b")], [(1, "a"), (1, "c")], [(2, "b")]]

    def test_missing_keys_get_empty_buckets(self):
        index = HashIndex((0, 1))
        index.add((1, 2, 3))
        buckets = index.lookup_many(iter([(9, 9), (1, 2), (2, 1)]))
        assert [list(bucket) for bucket in buckets] == [[], [(1, 2, 3)], []]
        assert HashIndex((0,)).lookup_many([]) == []

    def test_keys_of_matches_key_of(self):
        facts = [(1, "a", 3.0), (2, "b", 4.0)]
        for positions in ((), (1,), (2, 0)):
            index = HashIndex(positions)
            assert list(index.keys_of(facts)) == [
                index.key_of(fact) for fact in facts]


_facts = st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abc")),
                  max_size=25)


class TestAddManyProperty:
    """``add_many`` is a loop of ``add``: same buckets in the same
    order, duplicates (within the batch or already indexed) no-ops,
    and ``len`` exact."""

    @pytest.mark.parametrize("positions", [(), (1,), (1, 0)])
    @given(existing=_facts, batch=_facts)
    @settings(max_examples=40, deadline=None)
    def test_equals_loop_of_add(self, positions, existing, batch):
        bulk, single = HashIndex(positions), HashIndex(positions)
        for fact in existing:
            bulk.add(fact)
            single.add(fact)
        bulk.add_many(iter(batch + existing))
        for fact in batch + existing:
            single.add(fact)
        assert len(bulk) == len(single) == len(set(existing + batch))
        for key in {single.key_of(fact) for fact in existing + batch}:
            assert list(bulk.lookup(key)) == list(single.lookup(key))
