"""The paper's theorems as executable properties.

* Theorem 1 — the union program ``∪ Q_i`` has the same least model as
  the source sirup (checked by evaluating the union sequentially) and
  the operational parallel execution pools the same answer.
* Theorem 2 — the Section 3 scheme is semi-naive non-redundant; at
  n = 1, ``Q_1`` does exactly the work of ``L``.
* Theorem 3 — the dataflow-cycle choice yields zero communication.
* Theorem 4 — the Section 6 family rewriting is correct for any choice.
* Theorem 5 — the Section 7 general rewriting is correct.
* Theorem 6 — the general rewriting never fires more than sequential
  semi-naive evaluation when a shared ``h`` is used.

All are checked over random databases and random discriminating
choices via hypothesis.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.datalog import as_linear_sirup, parse_program
from repro.engine import evaluate
from repro.facts import Database
from repro.parallel import (
    HashDiscriminator,
    LocalRetentionFamily,
    example1_scheme,
    rewrite_general,
    rewrite_linear_family,
    rewrite_linear_sirup,
    run_parallel,
    tradeoff_scheme,
)
from repro.workloads import (
    ancestor_program,
    example6_program,
    nonlinear_ancestor_program,
    random_dag_edges,
    reverse_chain_program,
    same_generation_database,
    same_generation_program,
    transitive_closure_program,
)

edge_lists = st.lists(
    st.tuples(st.integers(1, 10), st.integers(1, 10)),
    min_size=0, max_size=30).map(lambda edges: sorted(set(edges)))
processor_counts = st.integers(1, 5)
salts = st.integers(0, 1000)


def _par_db(edges):
    database = Database()
    database.declare("par", 2).update(edges)
    return database


@st.composite
def discriminating_choices(draw):
    """A random legal (v_r, v_e) pair for the ancestor sirup.

    v(r) draws from the recursive body variables {X, Z, Y}; v(e) from
    the exit body variables {X, Y}.  Sequences may repeat variables.
    """
    sirup = as_linear_sirup(ancestor_program())
    body_vars = list(sirup.recursive_rule.body_variables())
    exit_vars = list(sirup.exit_rule.body_variables())
    v_r = tuple(draw(st.lists(st.sampled_from(body_vars),
                              min_size=1, max_size=3)))
    v_e = tuple(draw(st.lists(st.sampled_from(exit_vars),
                              min_size=1, max_size=2)))
    return v_r, v_e


class TestTheorem1:
    @given(edge_lists, processor_counts, discriminating_choices(), salts)
    @settings(max_examples=40, deadline=None)
    def test_union_program_least_model(self, edges, count, choice, salt):
        program = ancestor_program()
        database = _par_db(edges)
        v_r, v_e = choice
        processors = tuple(range(count))
        parallel = rewrite_linear_sirup(
            program, processors, v_r, v_e,
            HashDiscriminator(processors, salt=salt))
        union_result = evaluate(parallel.union, database)
        expected = evaluate(program, database)
        assert (union_result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    @given(edge_lists, processor_counts, discriminating_choices(), salts)
    @settings(max_examples=40, deadline=None)
    def test_operational_execution_pools_same_answer(self, edges, count,
                                                     choice, salt):
        program = ancestor_program()
        database = _par_db(edges)
        v_r, v_e = choice
        processors = tuple(range(count))
        parallel = rewrite_linear_sirup(
            program, processors, v_r, v_e,
            HashDiscriminator(processors, salt=salt))
        result = run_parallel(parallel, database)
        expected = evaluate(program, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())


class TestTheorem2:
    @given(edge_lists, processor_counts, discriminating_choices(), salts)
    @settings(max_examples=40, deadline=None)
    def test_seminaive_non_redundancy(self, edges, count, choice, salt):
        program = ancestor_program()
        database = _par_db(edges)
        v_r, v_e = choice
        processors = tuple(range(count))
        parallel = rewrite_linear_sirup(
            program, processors, v_r, v_e,
            HashDiscriminator(processors, salt=salt))
        result = run_parallel(parallel, database)
        sequential = evaluate(program, database)
        assert (result.metrics.total_firings()
                <= sequential.counters.total_firings())

    @pytest.mark.parametrize("make", [
        ancestor_program, transitive_closure_program,
        nonlinear_ancestor_program, same_generation_program,
        example6_program, reverse_chain_program,
    ], ids=lambda make: make.__name__)
    def test_q1_is_l(self, make):
        """At n = 1, ``Q_1`` is ``L`` up to renaming and both run one
        semi-naive loop, so it fires, probes and iterates exactly what
        sequential semi-naive evaluation does."""
        program = make()
        if make is same_generation_program:
            database = same_generation_database(pairs=3, depth=3, seed=5)
        else:
            database = Database.from_facts({
                predicate: random_dag_edges(40, seed=index)
                for index, predicate in enumerate(program.base_predicates)})
        sequential = evaluate(program, database).counters
        q1 = run_parallel(rewrite_general(program, (0,)),
                          database).counters[0]
        assert ((q1.total_firings(), q1.probes, q1.iterations)
                == (sequential.total_firings(), sequential.probes,
                    sequential.iterations))


class TestTheorem3:
    @given(edge_lists, processor_counts)
    @settings(max_examples=40, deadline=None)
    def test_cycle_choice_never_communicates(self, edges, count):
        program = ancestor_program()
        database = _par_db(edges)
        parallel = example1_scheme(program, tuple(range(count)))
        result = run_parallel(parallel, database)
        assert result.metrics.total_sent() == 0
        expected = evaluate(program, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())


class TestTheorem4:
    @given(edge_lists, st.integers(2, 4),
           st.sampled_from([0.0, 0.3, 0.7, 1.0]), salts)
    @settings(max_examples=40, deadline=None)
    def test_family_rewriting_correct(self, edges, count, fraction, salt):
        program = ancestor_program()
        database = _par_db(edges)
        parallel = tradeoff_scheme(program, tuple(range(count)), fraction,
                                   salt=salt)
        result = run_parallel(parallel, database)
        expected = evaluate(program, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    @given(edge_lists, st.integers(2, 4),
           st.sampled_from([0.0, 0.5, 1.0]), salts)
    @settings(max_examples=25, deadline=None)
    def test_family_union_program(self, edges, count, fraction, salt):
        program = ancestor_program()
        sirup = as_linear_sirup(program)
        database = _par_db(edges)
        processors = tuple(range(count))
        base = HashDiscriminator(processors, salt=salt)
        family = LocalRetentionFamily(base, keep_fraction=fraction, salt=salt)
        parallel = rewrite_linear_family(
            sirup, processors, v_e=sirup.exit_rule.head.variables(),
            family=family, h_prime=base)
        union_result = evaluate(parallel.union, database)
        expected = evaluate(program, database)
        assert (union_result.relation("anc").as_set()
                == expected.relation("anc").as_set())


class TestTheorem5:
    @given(edge_lists, processor_counts, salts)
    @settings(max_examples=30, deadline=None)
    def test_general_rewriting_correct_nonlinear(self, edges, count, salt):
        program = nonlinear_ancestor_program()
        database = _par_db(edges)
        parallel = rewrite_general(program, tuple(range(count)),
                                   scheme="t5")
        result = run_parallel(parallel, database)
        expected = evaluate(program, database)
        assert (result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    @given(edge_lists, st.integers(2, 3),
           st.none() | st.tuples(st.integers(1, 10), st.integers(1, 10)))
    @example(edges=[(1, 2), (2, 3)], count=2, start=(100, 1))
    @settings(max_examples=15, deadline=None)
    def test_general_union_program(self, edges, count, start):
        """``start`` is an optional program fact of ``anc``; the union
        extends it through ``par`` as sequential evaluation does."""
        program = nonlinear_ancestor_program()
        if start is not None:
            program = program.extend(parse_program(f"anc{start}."))
        database = _par_db(edges)
        parallel = rewrite_general(program, tuple(range(count)))
        union_result = evaluate(parallel.union, database)
        expected = evaluate(program, database)
        assert (union_result.relation("anc").as_set()
                == expected.relation("anc").as_set())

    @given(edge_lists, edge_lists, edge_lists, st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_general_rewriting_same_generation(self, up, down, flat, count):
        program = same_generation_program()
        database = Database()
        database.declare("up", 2).update(up)
        database.declare("down", 2).update(down)
        database.declare("flat", 2).update(flat)
        parallel = rewrite_general(program, tuple(range(count)))
        result = run_parallel(parallel, database)
        expected = evaluate(program, database)
        assert (result.relation("sg").as_set()
                == expected.relation("sg").as_set())


class TestTheorem6:
    @given(edge_lists, processor_counts, salts)
    @settings(max_examples=30, deadline=None)
    def test_general_scheme_non_redundant(self, edges, count, salt):
        program = nonlinear_ancestor_program()
        database = _par_db(edges)
        parallel = rewrite_general(program, tuple(range(count)))
        result = run_parallel(parallel, database)
        sequential = evaluate(program, database)
        assert (result.metrics.total_firings()
                <= sequential.counters.total_firings())
