"""Equivalence of the compiled route kernel and the per-fact sending rule.

:meth:`~repro.parallel.routing.RouterTable.partition` is the compiled
batch partitioner; the reference here aggregates per-fact
``Route.targets`` calls.  Theorems 1 and 2 rest on routing being
*exactly* the sending rules, so the two must agree on buckets, bucket
order, and the broadcast count — over random routes and fragments
(Hypothesis) and over the paper's schemes end-to-end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atom import Atom
from repro.datalog.term import Constant, Variable
from repro.engine import evaluate
from repro.errors import RoutingError
from repro.parallel import (
    ConstantDiscriminator,
    HashDiscriminator,
    Route,
    RouterTable,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    run_parallel,
    wolfson_scheme,
)
from repro.parallel.discriminating import Discriminator
from repro.workloads import ancestor_program, random_tree_edges
from repro.facts import Database


class _OddRejector(Discriminator):
    """Routes even sums, raises RoutingError on odd — exercises the
    partition-defined path where a tuple belongs to no fragment."""

    def __call__(self, values):
        total = sum(v if isinstance(v, int) else len(str(v))
                    for v in values)
        if total % 2:
            raise RoutingError(f"no fragment for {values!r}")
        return self.processors[total % len(self.processors)]


def _reference_partition(routes, facts):
    """Straight-line transcription of the historical per-fact walk."""
    buckets = {}
    broadcasts = 0
    for fact in facts:
        seen = set()
        for route in routes:
            targets = route.targets(fact)
            if targets and route.is_broadcast():
                broadcasts += 1
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    buckets.setdefault(target, []).append(fact)
    return buckets, broadcasts


# 1, 1.0 and True are equal but hash to different processors: a batch
# mixing them must route each by its own repr.
_VALUES = st.one_of(st.integers(min_value=-5, max_value=20),
                    st.sampled_from(["a", "b", "xyz", "", 1.0, True, 0.0]))


@st.composite
def _route_for(draw, predicate, arity, processors):
    variables = [Variable(name) for name in ("X", "Y", "Z")]
    terms = [draw(st.one_of(st.sampled_from(variables),
                            st.builds(Constant, _VALUES)))
             for _ in range(arity)]
    pattern = Atom(predicate, terms)
    discriminator = draw(st.one_of(
        st.builds(lambda salt: HashDiscriminator(processors, salt=salt),
                  st.integers(min_value=0, max_value=3)),
        st.sampled_from([ConstantDiscriminator(processors, processors[0]),
                         _OddRejector(processors)])))
    broadcast = draw(st.booleans())
    if broadcast:
        positions = None
    else:
        positions = tuple(draw(st.lists(
            st.integers(min_value=0, max_value=arity - 1),
            min_size=0, max_size=arity)))
    return Route(predicate=predicate, pattern=pattern,
                 positions=positions, discriminator=discriminator)


@st.composite
def _case(draw):
    processors = tuple(range(draw(st.integers(min_value=1, max_value=4))))
    arity = draw(st.integers(min_value=1, max_value=3))
    routes = draw(st.lists(_route_for("t", arity, processors),
                           min_size=1, max_size=3))
    facts = draw(st.lists(
        st.tuples(*[_VALUES] * draw(st.integers(min_value=1, max_value=4))),
        min_size=0, max_size=25))
    return routes, [tuple(fact) for fact in facts]


class TestKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(case=_case())
    def test_partition_matches_reference(self, case):
        routes, facts = case
        compiled = RouterTable(routes).partition("t", facts)
        reference = _reference_partition(routes, facts)
        # Bucket *lists* compare ordered, so this equality also pins
        # down per-target emission order, not just membership ...
        assert compiled == reference
        # ... and targets keep first-seen order (dict equality does not
        # look at it; message order in the executors does).
        assert list(compiled[0]) == list(reference[0])

    @settings(max_examples=80, deadline=None)
    @given(case=_case())
    def test_split_returns_the_facts_no_route_takes(self, case):
        """``split`` is ``partition`` plus, in order, the facts of the
        routes' arity that no route takes; a single-target table puts
        each fact in at most one bucket."""
        routes, facts = case
        table = RouterTable(routes)
        buckets, broadcasts, unrouted = table.split("t", facts)
        assert (buckets, broadcasts) == table.partition("t", facts)
        arity = routes[0].pattern.arity
        assert unrouted == [
            fact for fact in facts if len(fact) == arity
            and not any(route.targets(fact) for route in routes)]
        if table.single_target("t"):
            routed = [fact for bucket in buckets.values() for fact in bucket]
            assert len(routed) + len(unrouted) == sum(
                len(fact) == arity for fact in facts)

    def test_empty_sequence_routes_every_fact_to_one_target(self):
        """``v(r) = ()`` (rewrite_general admits it): ``h(())`` is the
        target of every fact, alone or beside a broadcast route."""
        h = HashDiscriminator((0, 1, 2))
        facts = [(1, 2), (3, 4), (1, 2)]
        alone = RouterTable([Route("t", Atom("t", [Variable("X"),
                                                   Variable("Y")]), (), h)])
        assert alone.partition("t", facts) == ({h(()): facts}, 0)
        both = [Route("t", Atom("t", [Variable("X"), Variable("Y")]), (), h),
                Route("t", Atom("t", [Variable("X"), Constant(2)]), None, h)]
        assert (RouterTable(both).partition("t", facts)
                == _reference_partition(both, facts))

    def test_unknown_predicate_routes_nowhere(self):
        pattern = Atom("t", [Variable("X")])
        table = RouterTable([Route("t", pattern, (0,),
                                   HashDiscriminator((0, 1)))])
        assert table.partition("other", [(1,)]) == ({}, 0)
        assert table.routes_for("t") and not table.routes_for("other")


class TestKernelToggle:
    @pytest.mark.parametrize("scheme", ["example2", "example3", "hash",
                                        "wolfson"])
    def test_schemes_identical_under_both_kernels(self, scheme,
                                                  monkeypatch):
        """End-to-end: simulator metrics and answers are those of the
        per-fact sending rules."""
        program = ancestor_program()
        database = Database.from_facts(
            {"par": random_tree_edges(40, seed=3)})
        if scheme == "example2":
            parallel = example2_scheme(program, (0, 1, 2), database)
        elif scheme == "example3":
            parallel = example3_scheme(program, (0, 1, 2))
        elif scheme == "hash":
            parallel = hash_scheme(program, (0, 1, 2))
        else:
            parallel = wolfson_scheme(program, (0, 1))
        compiled = run_parallel(parallel, database)
        monkeypatch.setattr(
            RouterTable, "partition", lambda table, predicate, facts:
            _reference_partition(table.routes_for(predicate), facts))
        generic = run_parallel(parallel, database)
        assert (compiled.relation("anc").as_set()
                == generic.relation("anc").as_set()
                == evaluate(program, database).relation("anc").as_set())
        assert compiled.metrics.summary() == generic.metrics.summary()
