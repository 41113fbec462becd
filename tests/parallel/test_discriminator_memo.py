"""The discriminator memo is invisible: same targets, same pickles, bounded.

Every discriminator whose cost is ``stable_hash`` memoises per instance
(``repro.parallel.discriminating``).  The hash is a function of
``repr``, so values that compare equal but render differently (``1``,
``1.0``, ``True``) must never share a memo entry: sender and receiver
processes touch values in different orders, and a first-touch-dependent
target silently loses derivations.  These properties compare every
memoised path — ``__call__``, ``map_column`` and the constraint's
column form — with a straight ``stable_hash`` computation, in both
touch orders, before and after a pickle round trip.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.term import Variable
from repro.facts import ArbitraryFragmentation
from repro.parallel import (
    ConstantDiscriminator,
    HashConstraint,
    HashDiscriminator,
    LinearDiscriminator,
    LocalRetentionFamily,
    ModuloDiscriminator,
    PartitionDiscriminator,
    TupleDiscriminator,
    binary_g,
    stable_hash,
)
from repro.parallel import discriminating
from repro.parallel.metrics import (
    BATCH_OVERHEAD_BYTES,
    MESSAGE_OVERHEAD_BYTES,
    approx_batch_bytes,
    approx_fact_bytes,
)

PROCESSORS = (0, 1, 2)

# 1, 1.0 and True are equal and hash alike; 0.0 and -0.0 are equal
# floats with different reprs.
constants = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "1", "a", b"a"]),
    st.integers(-4, 4),
    st.floats(allow_nan=False, width=16),
    st.text(alphabet="ab1", max_size=2),
)


def _hash_reference(values, salt=0):
    return PROCESSORS[stable_hash(tuple(values), salt) % len(PROCESSORS)]


def _retention_reference(values):
    draw = (stable_hash(tuple(values), 9) % 10_000) / 10_000.0
    return 1 if draw < 0.5 else _hash_reference(values, salt=3)


def _modulo_reference(values):
    total = sum(v if isinstance(v, int) else stable_hash(v) for v in values)
    return PROCESSORS[total % len(PROCESSORS)]


def _partition():
    return PartitionDiscriminator(
        ArbitraryFragmentation({(1,): 0, ("a",): 0, (2,): 1}), PROCESSORS)


# (arity or None for any, factory, unmemoised reference)
CASES = [
    (None, lambda: HashDiscriminator(PROCESSORS), _hash_reference),
    (None, lambda: HashDiscriminator(PROCESSORS, salt=3),
     lambda values: _hash_reference(values, salt=3)),
    (None, lambda: LocalRetentionFamily(
        HashDiscriminator(PROCESSORS, salt=3), 0.5, salt=9).member(1),
     _retention_reference),
    (None, lambda: ModuloDiscriminator(PROCESSORS), _modulo_reference),
    (2, lambda: TupleDiscriminator(2),
     lambda values: tuple(binary_g(v) % 2 for v in values)),
    (2, lambda: LinearDiscriminator((1, -1)),
     lambda values: binary_g(values[0]) % 2 - binary_g(values[1]) % 2),
    (None, lambda: ConstantDiscriminator(PROCESSORS, 2), lambda values: 2),
]


def _agrees(discriminator, reference, rows):
    return all(discriminator(row) == reference(row) for row in rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(constants, min_size=1, max_size=12))
def test_single_position_matches_unmemoised_in_either_touch_order(column):
    rows = [(value,) for value in column]
    for arity, make, reference in CASES:
        if arity is not None:
            continue
        forward, backward = make(), make()
        expected = [reference(row) for row in rows]
        assert [forward(row) for row in rows] == expected
        assert [backward(row) for row in reversed(rows)] == expected[::-1]
        assert forward.map_column(column) == expected
        assert make().map_column(column) == expected      # cold batch path
        assert [forward((value,)) for value in column] == expected  # warm
        thawed = pickle.loads(pickle.dumps(forward))
        assert thawed.map_column(column) == expected
        assert _agrees(thawed, reference, rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(constants, constants), min_size=1, max_size=12))
def test_multi_position_matches_unmemoised_in_either_touch_order(rows):
    for _arity, make, reference in CASES:
        forward, backward = make(), make()
        assert _agrees(forward, reference, rows)
        assert _agrees(backward, reference, reversed(rows))
        assert _agrees(forward, reference, rows)              # warm
        assert _agrees(pickle.loads(pickle.dumps(forward)), reference, rows)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(constants, constants), min_size=0, max_size=12),
       st.lists(st.tuples(st.integers(-3, 3), st.sampled_from("ab")),
                max_size=6))
def test_column_form_equals_the_row_form(mixed, uniform):
    """``map_columns`` decides a batch column-wise; it must give each
    row what ``__call__`` gives it — on columns mixing ``int``, ``bool``,
    ``float`` and ``str`` (the row fallback) and on single-type columns
    (the shared memo table), cold, warm and after the rows were touched
    in the opposite order."""
    for rows in (mixed, uniform, uniform + mixed):
        columns = [list(column) for column in zip(*rows)] or [[], []]
        for _arity, make, reference in CASES:
            expected = [reference(row) for row in rows]
            assert make().map_columns(columns) == expected        # cold
            warm = make()
            assert _agrees(warm, reference, reversed(rows))
            assert warm.map_columns(columns) == expected
            assert warm.map_columns(columns) == expected
            assert _agrees(warm, reference, rows)


def test_column_form_marks_rows_outside_every_fragment():
    h = PartitionDiscriminator(
        ArbitraryFragmentation({(1, 2): 0, ("a", 2): 1}), PROCESSORS)
    assert h.map_columns([[1, "a", 1], [2, 2, 3]]) == [0, 1, None]
    keep = LocalRetentionFamily(h, 0.5, salt=9).member(1)
    # All-int columns: the shared-table pass meets the rows no fragment
    # owns (those the retention draw does not keep) and must fall back.
    rows = [(1, k) for k in range(2, 12)]
    expected = []
    for row in rows:
        try:
            expected.append(keep(row))
        except discriminating.RoutingError:
            expected.append(None)
    assert None in expected
    fresh = LocalRetentionFamily(h, 0.5, salt=9).member(1)
    assert fresh.map_columns([list(c) for c in zip(*rows)]) == expected


def test_partition_discriminator_is_untouched_by_the_memo():
    h = _partition()
    assert h.map_column([1, "a", 2, 3, 1.0]) == [0, 0, 1, None, 0]
    assert pickle.loads(pickle.dumps(h)).map_column([2, 3]) == [1, None]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(constants, constants), min_size=1, max_size=12),
       st.sampled_from(PROCESSORS))
def test_constraint_compiled_forms_match_unmemoised(rows, target):
    x, z = Variable("X"), Variable("Z")
    h = HashDiscriminator(PROCESSORS)
    one = HashConstraint(h, [x], target)
    two = HashConstraint(h, [x, z], target)
    firsts = [a for a, _ in rows]
    seconds = [b for _, b in rows]
    expected_one = [_hash_reference((a,)) == target for a in firsts]
    expected_two = [_hash_reference(row) == target for row in rows]
    assert one.satisfied_columns([firsts]) == expected_one
    assert two.satisfied_columns([firsts, seconds]) == expected_two


def test_constraint_on_partition_rejects_values_outside_every_fragment():
    constraint = HashConstraint(_partition(), [Variable("X")], 0)
    assert constraint.satisfied_columns([[1, 2, 3]]) == [True, False, False]


def test_pickled_size_does_not_depend_on_how_warm_the_memo_is():
    for _arity, make, _reference in CASES:
        cold, warm = make(), make()
        for value in range(500):
            warm((value, str(value)))
            warm.map_column([value, str(value)])
        assert len(pickle.dumps(warm)) == len(pickle.dumps(cold))
    constraint = HashConstraint(HashDiscriminator(PROCESSORS),
                                [Variable("X")], 0)
    before = len(pickle.dumps(constraint))
    constraint.satisfied_columns([list(range(500))])
    assert len(pickle.dumps(constraint)) == before


def test_memo_tables_respect_the_cap(monkeypatch):
    monkeypatch.setattr(discriminating, "_MEMO_MAX_ENTRIES", 8)
    h = HashDiscriminator(PROCESSORS)
    pairs = [(a, b) for a in range(10) for b in range(10)]
    assert _agrees(h, _hash_reference, pairs)
    assert _agrees(h, _hash_reference, pairs)      # past the cap, still right
    assert h.map_column(list(range(50))) == [
        _hash_reference((value,)) for value in range(50)]
    single, rows = h._memo
    assert len(single.table(int)) == 8
    assert len(rows.table((int, int))) == 8


facts = st.lists(st.tuples(constants, constants), max_size=10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["anc", "p"]), facts), max_size=3))
def test_batch_bytes_equal_the_per_fact_model(pairs):
    expected = MESSAGE_OVERHEAD_BYTES + sum(
        BATCH_OVERHEAD_BYTES + len(predicate)
        + sum(approx_fact_bytes(fact) for fact in batch)
        for predicate, batch in pairs)
    assert approx_batch_bytes(pairs) == expected


def test_batch_bytes_int_fast_path_equals_the_per_fact_model():
    batch = [(i, i + 1) for i in range(100)]
    assert approx_batch_bytes([("anc", batch)]) == (
        MESSAGE_OVERHEAD_BYTES + BATCH_OVERHEAD_BYTES + 3
        + sum(approx_fact_bytes(fact) for fact in batch))
