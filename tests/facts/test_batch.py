"""Tests for fact batches: a round's delta, read as a relation."""

from repro.facts import FactBatch


class TestFactBatch:
    def test_scan_reads_the_facts_as_given(self):
        facts = [(2, 1), (1, 2), (1, 3)]
        batch = FactBatch("p#delta", 2, facts)
        assert batch.facts() is facts
        assert len(batch) == 3
        assert (batch.name, batch.arity) == ("p#delta", 2)

    def test_index_is_built_once_on_first_use(self):
        batch = FactBatch("p#delta", 2, [(2, 1), (1, 2), (1, 3)])
        index = batch.index_on((0,))
        assert batch.index_on([0]) is index
        assert list(index.lookup((1,))) == [(1, 2), (1, 3)]
        assert list(batch.index_on((1,)).lookup((1,))) == [(2, 1)]

    def test_empty_batch(self):
        batch = FactBatch("p#delta", 1)
        assert not batch
        assert list(batch.index_on((0,)).lookup((1,))) == []
