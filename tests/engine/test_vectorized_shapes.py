"""Property tests: the batch join on every join shape it branches on.

The batch join (``RulePlan.execute``) chooses its expansion per level
from the data: keys that barely repeat (a chain's delta) take one bulk
lookup per level, keys that repeat (a star, a fan-in, a grid) share one
bucket per distinct key, and per-fact checks cut buckets or rows — constants and repeated variables in the probed
atom, equalities on bound variables, and constraints at step 0, over
the probed atom alone, or spanning steps.  Every shape here is held to
the reference interpreter (``tests/reference_join.py``): the same head
batch as a multiset, and the same probe and firing counts.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, Rule, Variable, parse_program
from repro.datalog.term import Constant
from repro.engine import EvalCounters, compile_plan
from repro.engine import plan as plan_module
from repro.engine.plan import PlanStep, RulePlan
from repro.facts import Database
from repro.parallel import HashConstraint, HashDiscriminator
from repro.parallel.discriminating import ModuloDiscriminator

from ..reference_join import reference_execute

X, Y, Z = (Variable(name) for name in "XYZ")


def _chain(labels):
    return list(zip(labels, labels[1:]))


def _star(size):
    return [(0, leaf) for leaf in range(1, size + 1)]


def _fan_in(size):
    return [(leaf, 0) for leaf in range(1, size + 1)]


def _grid(width, height):
    def node(column, row):
        return row * width + column
    edges = []
    for row in range(height):
        for column in range(width):
            if column + 1 < width:
                edges.append((node(column, row), node(column + 1, row)))
            if row + 1 < height:
                edges.append((node(column, row), node(column, row + 1)))
    return edges


# One graph family each; unions of two mix singleton keys, one large
# bucket and repeated keys in a single delta, and overlapping labels
# leave some rows' buckets empty.
_shape = st.one_of(
    st.integers(2, 30).flatmap(lambda n: st.permutations(range(n))).map(
        _chain),
    st.integers(1, 20).map(_star),
    st.integers(1, 20).map(_fan_in),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
        lambda size: _grid(*size)),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
)
edge_sets = st.lists(_shape, min_size=1, max_size=2).map(
    lambda shapes: sorted({edge for shape in shapes for edge in shape}))
triples = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3),
                             st.integers(0, 3)), max_size=40).map(
    lambda facts: sorted(set(facts)))


def _assert_agree(plan, edges, facts=()):
    """The batch join and the reference: the reference's batch as a
    multiset, and its probes and firings."""
    database = Database()
    database.declare("e", 2).update(edges)
    database.declare("g", 3).update(facts)
    outcomes = {}
    for name, execute in (("reference", reference_execute),
                          ("batch", RulePlan.execute)):
        counters = EvalCounters()
        batch = execute(plan, database, counters)
        outcomes[name] = (Counter(batch), counters.total_firings(),
                          counters.probes)
    assert outcomes["batch"] == outcomes["reference"]
    return outcomes["reference"]


def _rule(text):
    return parse_program(text, validate=False).rules[0]


def _textual_plan(text, constraints=()):
    rule = _rule(text)
    if constraints:
        rule = rule.with_constraints(list(constraints))
    return compile_plan(rule, reorder=False)


def _manual_plan(rule, *steps):
    """A plan with chosen key positions (``(positions, constraints)``
    per body atom), so a step can leave bound positions unindexed."""
    return RulePlan(rule=rule, label=str(rule), pre_constraints=(),
                    steps=tuple(PlanStep(atom=atom, key_positions=positions,
                                         constraints=tuple(constraints))
                                for atom, (positions, constraints)
                                in zip(rule.body, steps)))


class _Below:
    """A protocol-only constraint (no column form): ``left < right``."""

    def __init__(self, left, right):
        self.variables = (left, right)

    def satisfied(self, binding):
        left, right = (binding.get(v) for v in self.variables)
        assert isinstance(left, Constant) and isinstance(right, Constant)
        return left.value < right.value


class TestJoinShapes:
    @given(edge_sets)
    @settings(max_examples=60, deadline=None)
    def test_single_variable_keys(self, edges):
        _assert_agree(
            _textual_plan("p(X, Y) :- e(X, Z), e(Z, Y)."), edges)
        _assert_agree(
            _textual_plan("p(X, W) :- e(X, Y), e(Y, Z), e(Z, W)."), edges)

    @given(edge_sets, triples)
    @settings(max_examples=40, deadline=None)
    def test_two_variable_and_mixed_keys(self, edges, facts):
        for text in ("p(X, W) :- e(X, Y), g(X, Y, W).",
                     "p(X, W) :- e(X, Y), g(Y, 1, W).",
                     "p(X, W) :- e(X, Y), g(2, 1, W)."):
            _assert_agree(_textual_plan(text), edges, facts)

    @given(edge_sets)
    @settings(max_examples=25, deadline=None)
    def test_full_scan_cross_product(self, edges):
        _assert_agree(
            _textual_plan("p(X, W) :- e(X, Y), e(Z, W)."), edges[:20])

    @given(edge_sets, triples)
    @settings(max_examples=40, deadline=None)
    def test_prefilter_constants_and_repeated_variables(self, edges, facts):
        # A repeated variable the lookup cannot guarantee ...
        _assert_agree(
            _textual_plan("p(X, Y) :- e(X, Y), g(Y, Z, Z)."), edges, facts)
        # ... and a constant left out of the key by hand.
        rule = _rule("p(X, W) :- e(X, Y), g(Y, 2, W).")
        plan = _manual_plan(rule, ((), ()), ((0,), ()))
        assert plan._kernel_for().steps[1].const_checks == ((1, 2),)
        _assert_agree(plan, edges, facts)

    @given(edge_sets)
    @settings(max_examples=40, deadline=None)
    def test_bound_variable_equalities(self, edges):
        rule = _rule("p(X, Y) :- e(X, Y), e(Y, X).")
        indexed = _manual_plan(rule, ((), ()), ((0,), ()))
        assert indexed._kernel_for().steps[1].bound_checks == ((1, X),)
        _assert_agree(indexed, edges)
        scanned = _manual_plan(rule, ((), ()), ((), ()))
        assert len(scanned._kernel_for().steps[1].bound_checks) == 2
        _assert_agree(scanned, edges)

    @given(edge_sets, st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_constraints_at_step_zero_and_later(self, edges, target):
        modulo = ModuloDiscriminator((0, 1))
        hashed = HashDiscriminator((0, 1))
        plan = _textual_plan("p(X, Y) :- e(X, Z), e(Z, Y).", (
            HashConstraint(modulo, [X], target),         # step 0
            HashConstraint(hashed, [Z, Y], target),      # the probed fact
            HashConstraint(hashed, [X, Y], 1 - target),  # spans steps
            _Below(Z, Y),                                # the probed fact
        ))
        kernel = plan._kernel_for()
        assert len(plan.steps[0].constraints) == 1
        assert len(kernel.fact_constraints[1]) == 2
        assert len(kernel.row_constraints[1]) == 1
        _assert_agree(plan, edges)
        # X is read after step 1 only by the constraint spanning steps.
        projected = _textual_plan("p(Y) :- e(X, Z), e(Z, Y).", (
            HashConstraint(hashed, [X, Y], target),))
        _assert_agree(projected, edges)

    @given(edge_sets)
    @settings(max_examples=25, deadline=None)
    def test_zero_arity_head(self, edges):
        body = _rule("p(X, Z) :- e(X, Y), e(Y, Z).").body
        rule = Rule(Atom("found", ()), body)
        firings = _assert_agree(compile_plan(rule, reorder=False),
                                edges)[1]
        constrained = rule.with_constraints(
            [HashConstraint(HashDiscriminator((0, 1)), [Y, Z], 0)])
        _assert_agree(compile_plan(constrained, reorder=False), edges)
        assert firings == sum(
            1 for _x, y in edges for y2, _z in edges if y == y2)


class TestExpansionForm:
    """The form follows the data: a chain's keys never repeat, a
    fan-in's do."""

    def _forms(self, monkeypatch, edges):
        seen = []
        for name in ("_expand_rows", "_expand_shared"):
            inner = getattr(plan_module, name)

            def spy(*args, _inner=inner, _name=name):
                seen.append(_name)
                return _inner(*args)
            monkeypatch.setattr(plan_module, name, spy)
        plan = _textual_plan("p(X, Y) :- e(X, Z), e(Z, Y).")
        _assert_agree(plan, edges)
        return set(seen)

    def test_chain_expands_per_row(self, monkeypatch):
        labels = [7, 3, 11, 5, 2, 13, 1, 8]
        assert self._forms(monkeypatch, _chain(labels)) == {"_expand_rows"}

    def test_fan_in_shares_buckets(self, monkeypatch):
        # Six of the ten first-step rows join on the hub 0.
        assert self._forms(monkeypatch, _fan_in(6) + _star(4)) == {
            "_expand_shared"}
