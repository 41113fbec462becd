"""Tests for the Section 3/6 linear-sirup rewrites."""

import pytest

from repro.datalog import Variable, as_linear_sirup, parse_program
from repro.engine import evaluate
from repro.errors import RewriteError
from repro.facts import Database
from repro.parallel import (
    HashDiscriminator,
    LocalRetentionFamily,
    UniformFamily,
    example1_scheme,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    rewrite_linear_family,
    rewrite_linear_sirup,
    run_parallel,
    wolfson_scheme,
)
from repro.parallel.naming import in_name, out_name
from repro.workloads import (
    ancestor_program,
    same_generation_database,
    same_generation_program,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def sirup(ancestor):
    return as_linear_sirup(ancestor)


def _rewrite(sirup, processors=(0, 1, 2), v_r=(Y,), v_e=(Y,), **kwargs):
    h = HashDiscriminator(processors)
    return rewrite_linear_sirup(sirup, processors, v_r, v_e, h, **kwargs)


class TestRewriteLinear:
    def test_one_program_per_processor(self, sirup):
        program = _rewrite(sirup)
        assert set(program.programs) == {0, 1, 2}
        assert program.derived == ("anc",)

    def test_processing_rule_structure(self, sirup):
        program = _rewrite(sirup)
        processing = program.program_for(1).processing_rules[0]
        assert processing.head.predicate == out_name("anc")
        body_preds = [atom.predicate for atom in processing.body]
        assert in_name("anc") in body_preds
        assert len(processing.constraints) == 1
        assert processing.constraints[0].target == 1

    def test_init_rule_structure(self, sirup):
        program = _rewrite(sirup)
        init = program.program_for(2).init_rules[0]
        assert init.head.predicate == out_name("anc")
        assert init.constraints[0].target == 2

    def test_example1_choice_shares_base(self, sirup):
        # v(r) = <Y> does not occur in par(X, Z): par must be shared.
        program = _rewrite(sirup, v_r=(Y,), v_e=(Y,))
        assert program.fragmentation.requirements["par"] == "shared"
        shared_specs = [s for s in program.fragments if s.predicate == "par"]
        assert all(spec.kind == "shared" for spec in shared_specs)

    def test_example3_choice_fragments_base(self, sirup):
        # v(r) = <Z> occurs in par(X, Z): par is hash-fragmented.
        program = _rewrite(sirup, v_r=(Z,), v_e=(X,))
        assert program.fragmentation.requirements["par"] == "hash-partitioned"
        kinds = {spec.kind for spec in program.fragments
                 if spec.predicate == "par"}
        assert kinds == {"hash"}

    def test_fragments_partition_the_relation(self, sirup, tree_db):
        program = _rewrite(sirup, v_r=(Z,), v_e=(X,))
        total = len(tree_db.relation("par"))
        for spec in program.fragments:
            sizes = sum(
                len(spec.local_fragment(tree_db.relation("par"), proc))
                for proc in program.processors)
            assert sizes == total

    def test_replication_factor(self, sirup, tree_db):
        shared = _rewrite(sirup, v_r=(Y,), v_e=(Y,))
        fragmented = _rewrite(sirup, v_r=(Z,), v_e=(X,))
        assert shared.replication_factor(tree_db) == pytest.approx(3.0)
        # Exit fragment + recursion fragment: each a full partition.
        assert fragmented.replication_factor(tree_db) == pytest.approx(2.0)

    def test_route_point_to_point_when_vr_in_body_atom(self, sirup):
        program = _rewrite(sirup, v_r=(Y,), v_e=(Y,))
        (route,) = program.program_for(0).routes
        assert not route.is_broadcast()
        assert route.positions == (1,)

    def test_route_broadcast_when_vr_missing(self, sirup):
        program = _rewrite(sirup, v_r=(X, Z), v_e=(X, Y))
        (route,) = program.program_for(0).routes
        assert route.is_broadcast()

    def test_unknown_discriminating_variable_rejected(self, sirup):
        with pytest.raises(RewriteError):
            _rewrite(sirup, v_r=(Variable("Nope"),))

    def test_head_only_variable_rejected(self):
        # W appears in the head of the exit rule only... construct a
        # sirup where a variable is missing from the recursive body.
        program = parse_program("""
            p(X, Y) :- q(X, Y).
            p(X, Y) :- r(X, Z), p(Z, Y).
        """)
        sirup = as_linear_sirup(program)
        with pytest.raises(RewriteError):
            rewrite_linear_sirup(sirup, (0, 1), (Variable("W"),), (Y,),
                                 HashDiscriminator((0, 1)))

    def test_empty_processors_rejected(self, sirup):
        h = HashDiscriminator((0,))
        with pytest.raises(RewriteError):
            rewrite_linear_sirup(sirup, (), (Y,), (Y,), h)

    def test_duplicate_processors_rejected(self, sirup):
        with pytest.raises(RewriteError):
            _rewrite(sirup, processors=(0, 0))

    def test_union_program_is_valid_datalog(self, sirup):
        program = _rewrite(sirup, processors=(0, 1))
        union = program.union
        # init + processing + N sending + N receiving + pooling, per processor
        assert len(union.rules) == 2 * (1 + 1 + 2 + 2 + 1)

    def test_unknown_processor_lookup(self, sirup):
        program = _rewrite(sirup)
        with pytest.raises(RewriteError):
            program.program_for(99)


class TestRewriteFamily:
    def test_processing_unconstrained(self, sirup):
        base = HashDiscriminator((0, 1))
        family = LocalRetentionFamily(base, keep_fraction=0.5)
        program = rewrite_linear_family(sirup, (0, 1), v_e=(X, Y),
                                        family=family, h_prime=base)
        processing = program.program_for(0).processing_rules[0]
        assert processing.constraints == ()

    def test_bases_shared(self, sirup):
        base = HashDiscriminator((0, 1))
        program = rewrite_linear_family(
            sirup, (0, 1), v_e=(X, Y),
            family=UniformFamily(base), h_prime=base)
        assert program.fragmentation.requirements["par"] == "shared"

    def test_routes_resolved_per_sender(self, sirup):
        base = HashDiscriminator((0, 1))
        family = LocalRetentionFamily(base, keep_fraction=1.0)
        program = rewrite_linear_family(sirup, (0, 1), v_e=(X, Y),
                                        family=family, h_prime=base)
        route0 = program.program_for(0).routes[0]
        route1 = program.program_for(1).routes[0]
        assert route0.targets((4, 5)) == (0,)
        assert route1.targets((4, 5)) == (1,)

    def test_vr_must_be_within_recursive_atom(self, sirup):
        base = HashDiscriminator((0, 1))
        with pytest.raises(RewriteError):
            rewrite_linear_family(sirup, (0, 1), v_e=(X, Y),
                                  family=UniformFamily(base), h_prime=base,
                                  v_r=(X,))


# The Section 3 schemes at two processors, pinned so that building Q_i
# from per-rule specs keeps every name, kind, position and order:
# fragments as (local name, kind, positions), then per processor the
# init rules, the processing rules and the routes as
# (predicate, pattern, positions).
SECTION3_STRUCTURE = {
    ('ancestor', 'example1'): (
        (('par', 'shared', None),),
        {
            0: (('anc@out(X, Y) :- par(X, Y), h(Y) = 0.',),
                ('anc@out(X, Y) :- par(X, Z), anc@in(Z, Y), h(Y) = 0.',),
                (('anc', 'anc(Z, Y)', (1,)),)),
            1: (('anc@out(X, Y) :- par(X, Y), h(Y) = 1.',),
                ('anc@out(X, Y) :- par(X, Z), anc@in(Z, Y), h(Y) = 1.',),
                (('anc', 'anc(Z, Y)', (1,)),)),
        }),
    ('ancestor', 'example2'): (
        (('par@frag@0', 'arbitrary', (0, 1)),),
        {
            0: (('anc@out(X, Y) :- par@frag@0(X, Y), h(X, Y) = 0.',),
                ('anc@out(X, Y) :- par@frag@0(X, Z), anc@in(Z, Y), h(X, Z) = 0.',),
                (('anc', 'anc(Z, Y)', None),)),
            1: (('anc@out(X, Y) :- par@frag@0(X, Y), h(X, Y) = 1.',),
                ('anc@out(X, Y) :- par@frag@0(X, Z), anc@in(Z, Y), h(X, Z) = 1.',),
                (('anc', 'anc(Z, Y)', None),)),
        }),
    ('ancestor', 'example3'): (
        (('par@frag@0', 'hash', (0,)), ('par@frag@1', 'hash', (1,))),
        {
            0: (('anc@out(X, Y) :- par@frag@0(X, Y), h(X) = 0.',),
                ('anc@out(X, Y) :- par@frag@1(X, Z), anc@in(Z, Y), h(Z) = 0.',),
                (('anc', 'anc(Z, Y)', (0,)),)),
            1: (('anc@out(X, Y) :- par@frag@0(X, Y), h(X) = 1.',),
                ('anc@out(X, Y) :- par@frag@1(X, Z), anc@in(Z, Y), h(Z) = 1.',),
                (('anc', 'anc(Z, Y)', (0,)),)),
        }),
    ('ancestor', 'hash'): (
        (('par', 'shared', None),),
        {
            0: (('anc@out(X, Y) :- par(X, Y), h(X, Y) = 0.',),
                ('anc@out(X, Y) :- par(X, Z), anc@in(Z, Y), h(Z, Y) = 0.',),
                (('anc', 'anc(Z, Y)', (0, 1)),)),
            1: (('anc@out(X, Y) :- par(X, Y), h(X, Y) = 1.',),
                ('anc@out(X, Y) :- par(X, Z), anc@in(Z, Y), h(Z, Y) = 1.',),
                (('anc', 'anc(Z, Y)', (0, 1)),)),
        }),
    ('same_generation', 'example3'): (
        (('flat@frag@0', 'hash', (0,)), ('up@frag@1', 'hash', (1,)), ('down', 'shared', None)),
        {
            0: (('sg@out(X, Y) :- flat@frag@0(X, Y), h(X) = 0.',),
                ('sg@out(X, Y) :- up@frag@1(X, U), sg@in(U, V), down(V, Y), h(U) = 0.',),
                (('sg', 'sg(U, V)', (0,)),)),
            1: (('sg@out(X, Y) :- flat@frag@0(X, Y), h(X) = 1.',),
                ('sg@out(X, Y) :- up@frag@1(X, U), sg@in(U, V), down(V, Y), h(U) = 1.',),
                (('sg', 'sg(U, V)', (0,)),)),
        }),
    ('same_generation', 'hash'): (
        (('flat@frag@0', 'hash', (0, 1)), ('up', 'shared', None), ('down', 'shared', None)),
        {
            0: (('sg@out(X, Y) :- flat@frag@0(X, Y), h(X, Y) = 0.',),
                ('sg@out(X, Y) :- up(X, U), sg@in(U, V), down(V, Y), h(U, V) = 0.',),
                (('sg', 'sg(U, V)', (0, 1)),)),
            1: (('sg@out(X, Y) :- flat@frag@0(X, Y), h(X, Y) = 1.',),
                ('sg@out(X, Y) :- up(X, U), sg@in(U, V), down(V, Y), h(U, V) = 1.',),
                (('sg', 'sg(U, V)', (0, 1)),)),
        }),
}

_PROGRAMS = {"ancestor": ancestor_program,
             "same_generation": same_generation_program}
_SCHEMES = {
    "example1": lambda program: example1_scheme(program, (0, 1)),
    "example2": lambda program: example2_scheme(
        program, (0, 1),
        Database.from_facts({"par": [(i, i + 1) for i in range(1, 11)]})),
    "example3": lambda program: example3_scheme(program, (0, 1)),
    "hash": lambda program: hash_scheme(program, (0, 1)),
}


class TestSection3Structure:
    @pytest.mark.parametrize("case", sorted(SECTION3_STRUCTURE))
    def test_structure_pinned(self, case):
        program_name, scheme_name = case
        parallel = _SCHEMES[scheme_name](_PROGRAMS[program_name]())
        fragments, processors = SECTION3_STRUCTURE[case]
        assert tuple((f.local_name, f.kind, f.positions)
                     for f in parallel.fragments) == fragments
        for proc, (init, processing, routes) in processors.items():
            program = parallel.program_for(proc)
            assert tuple(str(r) for r in program.init_rules) == init
            assert tuple(str(r) for r in program.processing_rules) == processing
            assert tuple((r.predicate, str(r.pattern), r.positions)
                         for r in program.routes) == routes


class TestSection6Fragmentation:
    def test_exit_only_base_predicate_is_hash_partitioned(self):
        # flat occurs only in the exit rule, which keeps its
        # h'(v(e)) = i constraint, so each processor reads only its own
        # hash fragment of it; up and down stay shared.  The answer and
        # the firings are those of the all-shared plan.
        program = same_generation_program()
        database = same_generation_database(pairs=8, depth=4, seed=1)
        parallel = wolfson_scheme(program, (0, 1, 2))
        assert parallel.fragmentation.requirements == {
            "flat": "hash-partitioned", "up": "shared", "down": "shared"}
        result = run_parallel(parallel, database)
        assert (result.relation("sg").as_set()
                == evaluate(program, database).relation("sg").as_set())
        assert len(result.relation("sg")) == 44
        assert result.metrics.firings == {0: 17, 1: 21, 2: 6}
