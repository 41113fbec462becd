"""Tests for Example 2's explicit partition and the fragmentation plan.

The split of a base relation itself is ``FragmentSpec.local_fragment``
(``tests/parallel/test_naming_and_plans.py``).
"""

from collections import Counter

import pytest

from repro.facts import (
    ArbitraryFragmentation,
    FragmentationPlan,
    Relation,
)


def _relation():
    return Relation("par", 2, [(i, i + 1) for i in range(6)])


class TestArbitraryFragmentation:
    def test_round_robin_is_balanced(self):
        policy = ArbitraryFragmentation.round_robin(_relation(), [0, 1])
        owners = Counter(policy.owner(fact) for fact in _relation())
        assert owners == {0: 3, 1: 3}

    def test_round_robin_deterministic(self):
        first = ArbitraryFragmentation.round_robin(_relation(), [0, 1])
        second = ArbitraryFragmentation.round_robin(_relation(), [0, 1])
        assert first.assignment == second.assignment

    def test_explicit_assignment(self):
        policy = ArbitraryFragmentation({(0, 1): "a", (1, 2): "b"})
        assert policy.owner((0, 1)) == "a"
        assert policy.owner((1, 2)) == "b"

    def test_owner_raises_on_unassigned(self):
        policy = ArbitraryFragmentation({})
        with pytest.raises(KeyError):
            policy.owner((1, 2))


class TestFragmentationPlan:
    def test_shared_and_partitioned_split(self):
        plan = FragmentationPlan(
            requirements={"par": "shared", "edge": "hash-partitioned"})
        assert plan.shared_predicates() == ("par",)
        assert plan.partitioned_predicates() == ("edge",)

    def test_describe_includes_notes(self):
        plan = FragmentationPlan(requirements={"par": "shared"},
                                 notes={"par": "needed whole by exit rule"})
        text = plan.describe()
        assert "par: shared" in text
        assert "needed whole" in text
