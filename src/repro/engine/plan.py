"""Executable join plans for single rules.

A :class:`RulePlan` fixes an order over the body atoms and, for each
step, the argument positions that are already bound when the step runs
(these drive an index lookup) and the constraints that become evaluable
after the step (pushed as early as possible, mirroring the paper's
discussion of pushing the discriminating selection into the join).

Execution is a batch join over hash indexes returning the batch of
head tuples, one per successful ground substitution.  It runs the plan
over the *whole input batch at once* instead of one backtracking probe
per tuple: the first step's matches become value columns, and each
later step expands the rows against their keys' buckets at C speed —
one bulk :meth:`~repro.facts.index.HashIndex.lookup_many` per level
where keys barely repeat, one lookup and one column gather per distinct
key where they repeat — so its Python work is per level and per
distinct bucket, never per row.  Counter totals (probes = partial
bindings arriving at each step, firings = ground substitutions) are
those of a depth-first nested-loops join over the same plan; the test
suite holds the batch, as a multiset, and both counters to a recursive
reference interpreter (``tests/reference_join.py``).  Emission *order*
within a batch is unspecified; all consumers are order-insensitive
sets/counters.  The batch leaves the join whole — one ``zip`` over the
head columns — and every consumer (the round close of
:mod:`.seminaive`, the processor runtimes) takes it as one list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..datalog.atom import Atom
from ..datalog.rule import Constraint, Rule
from ..datalog.substitution import Substitution
from ..datalog.term import Constant, Variable
from ..errors import EvaluationError
from ..facts.database import Database
from ..facts.relation import Fact
from .counters import EvalCounters

__all__ = ["PlanStep", "RulePlan"]

# Constraints over one step's atom alone, each with the position in the
# atom of every variable it reads (see ``_PlanKernel.fact_constraints``).
_FactConstraints = Tuple[Tuple[Constraint, Dict[Variable, int]], ...]


@dataclass(frozen=True)
class PlanStep:
    """One join step of a plan.

    Attributes:
        atom: the body atom matched at this step.
        key_positions: argument positions bound before the step runs
            (constants, or variables bound by earlier steps).
        constraints: constraints evaluable right after this step.
    """

    atom: Atom
    key_positions: Tuple[int, ...]
    constraints: Tuple[Constraint, ...]


class _StepKernel:
    """The compiled form of one :class:`PlanStep`.

    Every per-tuple decision a term-by-term interpreter makes
    dynamically (``isinstance`` on terms, "is this variable bound yet")
    is resolved here once, at compile time:

    Attributes:
        predicate: relation to probe.
        key_positions: positions driving the index lookup (may be empty).
        key_parts: ``(is_var, var_or_value)`` per key position.
        const_key: precomputed key when every part is a constant.
        const_checks: ``(position, value)`` equalities not already
            guaranteed by the index lookup.
        bound_checks: ``(position, variable)`` equalities against
            earlier-step bindings not guaranteed by the lookup.
        same_checks: ``(position, earlier_position)`` within-atom
            repeated-variable equalities.
        bind_specs: ``(position, variable)`` first occurrences to bind.
    """

    __slots__ = ("predicate", "key_positions", "key_parts", "const_key",
                 "const_checks", "bound_checks", "same_checks", "bind_specs")

    def __init__(self, predicate: str, key_positions: Tuple[int, ...],
                 key_parts: Tuple[Tuple[bool, object], ...],
                 const_key: Optional[Tuple[object, ...]],
                 const_checks: Tuple[Tuple[int, object], ...],
                 bound_checks: Tuple[Tuple[int, Variable], ...],
                 same_checks: Tuple[Tuple[int, int], ...],
                 bind_specs: Tuple[Tuple[int, Variable], ...]) -> None:
        self.predicate = predicate
        self.key_positions = key_positions
        self.key_parts = key_parts
        self.const_key = const_key
        self.const_checks = const_checks
        self.bound_checks = bound_checks
        self.same_checks = same_checks
        self.bind_specs = bind_specs


class _PlanKernel:
    """A fully compiled plan: step kernels plus the head template.

    Attributes:
        steps: one :class:`_StepKernel` per body atom.
        head_parts: ``(is_var, var_or_value)`` per head position.
        fact_constraints: per step, the constraints over that step's
            atom alone, each with its variables' positions in the atom:
            a function of the matched fact, so the join checks them
            once per bucket fact, before the rows expand.
        row_constraints: per step, its other constraints, checked on
            the expanded rows.
        live: per step, the variables read after it has matched — by
            its row constraints, a later step's key, check or
            constraint, or the head.  The join carries only these
            columns from one level to the next.
    """

    __slots__ = ("steps", "head_parts", "fact_constraints",
                 "row_constraints", "live")

    def __init__(self, steps: Tuple[_StepKernel, ...],
                 head_parts: Tuple[Tuple[bool, object], ...],
                 fact_constraints: Tuple[_FactConstraints, ...],
                 row_constraints: Tuple[Tuple[Constraint, ...], ...],
                 live: Tuple[FrozenSet[Variable], ...],
                 ) -> None:
        self.steps = steps
        self.head_parts = head_parts
        self.fact_constraints = fact_constraints
        self.row_constraints = row_constraints
        self.live = live


def _satisfied_boxed(constraint: Constraint, variables, values) -> bool:
    """Ask a protocol-only constraint about raw ``values``: box them
    into the :class:`Substitution` its ``satisfied`` expects."""
    return constraint.satisfied(Substitution(
        {variable: Constant(value)
         for variable, value in zip(variables, values)}))


def _constraint_mask(constraint: Constraint,
                     cols: Dict[Variable, List[object]]) -> List[bool]:
    """One verdict per row of the batch columns.

    Constraints exposing ``satisfied_columns`` decide the whole batch
    in one call; others are asked row by row through the protocol.
    """
    column_form = getattr(constraint, "satisfied_columns", None)
    if column_form is not None:
        return column_form([cols[variable]
                            for variable in constraint.sequence])
    variables = tuple(constraint.variables)
    return [_satisfied_boxed(constraint, variables, row)
            for row in zip(*(cols[variable] for variable in variables))]


def _keep_rows(cols: Dict[Variable, List[object]], mask: List[bool],
               ) -> Tuple[Dict[Variable, List[object]], int]:
    """The batch columns restricted to the rows ``mask`` keeps."""
    return ({variable: list(compress(column, mask))
             for variable, column in cols.items()}, sum(mask))


def _carry(carried: List[Tuple[Variable, Sequence[object]]],
           counts: List[int], n: int,
           ) -> Tuple[Dict[Variable, Sequence[object]], int]:
    """The carried columns of a level whose row ``i`` matched
    ``counts[i]`` facts, and the level's output row count.

    Each row's values are repeated by its count, row-major, at C speed.
    Where no row matched more than once (a chain) the columns are only
    compressed — or kept as they are when every row matched once.
    """
    total = sum(counts)
    if max(counts) > 1:
        return ({variable: list(chain.from_iterable(map(repeat, column,
                                                        counts)))
                 for variable, column in carried}, total)
    if total == n:
        return dict(carried), total
    return ({variable: list(compress(column, counts))
             for variable, column in carried}, total)


def _fact_mask(facts: List[Fact],
               constraints: _FactConstraints) -> List[bool]:
    """One verdict per fact: does it satisfy every fact-local constraint?

    Each constraint reads its variables straight off the facts'
    positions (one ``itemgetter`` map per variable) and decides the
    whole list in one column-wise call.
    """
    masks = [_constraint_mask(constraint, {
                 variable: list(map(itemgetter(position), facts))
                 for variable, position in position_of.items()})
             for constraint, position_of in constraints]
    return masks[0] if len(masks) == 1 else list(map(all, zip(*masks)))


def _filter_buckets(buckets: List[Iterable[Fact]], kstep: _StepKernel,
                    fact_constraints: _FactConstraints,
                    ) -> List[List[Fact]]:
    """The distinct buckets of a level, each cut to the facts that pass
    the step's per-fact checks.

    Constants and repeated variables the lookup does not guarantee are
    checked fact by fact; fact-local constraints decide every bucket's
    facts in one column-wise call, whose verdicts are then dealt back
    bucket by bucket.
    """
    if kstep.const_checks or kstep.same_checks:
        buckets = [[fact for fact in bucket
                    if all(fact[position] == value
                           for position, value in kstep.const_checks)
                    and all(fact[position] == fact[earlier]
                            for position, earlier in kstep.same_checks)]
                   for bucket in buckets]
    if fact_constraints:
        verdicts = iter(_fact_mask(list(chain.from_iterable(buckets)),
                                   fact_constraints))
        buckets = [list(compress(bucket, islice(verdicts, len(bucket))))
                   for bucket in buckets]
    return buckets


def _expand_rows(buckets: List[Iterable[Fact]], n: int,
                 carried: List[Tuple[Variable, Sequence[object]]],
                 new_specs: List[Tuple[int, Variable]],
                 fact_constraints: _FactConstraints,
                 ) -> Tuple[Dict[Variable, Sequence[object]], int]:
    """Expand a level whose row ``i`` matches every fact of ``buckets[i]``.

    The form for keys that barely repeat: the facts are chained in row
    order, fact-local constraints cut the expanded rows by one mask, and
    every newly bound column is read off the facts with one
    ``itemgetter`` map.
    """
    out, total = _carry(carried, list(map(len, buckets)), n)
    right = list(chain.from_iterable(buckets))
    if fact_constraints:
        mask = _fact_mask(right, fact_constraints)
        right = list(compress(right, mask))
        out = {variable: list(compress(column, mask))
               for variable, column in out.items()}
        total = len(right)
    for position, variable in new_specs:
        out[variable] = list(map(itemgetter(position), right))
    return out, total


def _expand_shared(keys: Sequence[object], distinct: Sequence[object],
                   buckets: List[Iterable[Fact]], n: int,
                   carried: List[Tuple[Variable, Sequence[object]]],
                   new_specs: List[Tuple[int, Variable]],
                   ) -> Tuple[Dict[Variable, Sequence[object]], int]:
    """Expand a level whose rows share buckets: row ``i`` matches every
    fact of ``buckets[j]`` where ``distinct[j] == keys[i]``.

    The form for keys that repeat: each distinct bucket is measured and
    has its newly bound columns gathered once; every row then looks its
    count and columns up by key and the columns are chained in row
    order — C calls per level and column, none per row.
    """
    count_of = dict(zip(distinct, map(len, buckets)))
    out, total = _carry(carried, list(map(count_of.__getitem__, keys)), n)
    for position, variable in new_specs:
        # One gathered list per bucket: list(map(getter, bucket)).
        column_of = dict(zip(distinct, map(list, map(
            map, repeat(itemgetter(position)), buckets))))
        out[variable] = list(chain.from_iterable(
            map(column_of.__getitem__, keys)))
    return out, total


def _compile_kernel(plan: "RulePlan") -> _PlanKernel:
    """Specialize ``plan`` into a :class:`_PlanKernel`."""
    bound_before: Set[Variable] = set()
    steps: List[_StepKernel] = []
    for step in plan.steps:
        atom = step.atom
        in_key = frozenset(step.key_positions)
        use_lookup = bool(step.key_positions)
        key_parts: List[Tuple[bool, object]] = []
        for position in step.key_positions:
            term = atom.terms[position]
            if isinstance(term, Constant):
                key_parts.append((False, term.value))
            else:
                key_parts.append((True, term))
        const_key: Optional[Tuple[object, ...]] = None
        if use_lookup and not any(is_var for is_var, _ in key_parts):
            const_key = tuple(value for _, value in key_parts)

        const_checks: List[Tuple[int, object]] = []
        bound_checks: List[Tuple[int, Variable]] = []
        same_checks: List[Tuple[int, int]] = []
        bind_specs: List[Tuple[int, Variable]] = []
        first_at: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            guaranteed = use_lookup and position in in_key
            if isinstance(term, Constant):
                if not guaranteed:
                    const_checks.append((position, term.value))
            elif term in bound_before:
                if not guaranteed:
                    bound_checks.append((position, term))
            elif term in first_at:
                same_checks.append((position, first_at[term]))
            else:
                first_at[term] = position
                bind_specs.append((position, term))
        bound_before |= set(atom.variables())
        steps.append(_StepKernel(
            predicate=atom.predicate,
            key_positions=tuple(step.key_positions),
            key_parts=tuple(key_parts),
            const_key=const_key,
            const_checks=tuple(const_checks),
            bound_checks=tuple(bound_checks),
            same_checks=tuple(same_checks),
            bind_specs=tuple(bind_specs),
        ))
    head_parts = tuple(
        (False, term.value) if isinstance(term, Constant) else (True, term)
        for term in plan.rule.head.terms)
    fact_constraints = []
    row_constraints = []
    for step in plan.steps:
        position_of: Dict[Variable, int] = {}
        for position, term in enumerate(step.atom.terms):
            if isinstance(term, Variable):
                position_of.setdefault(term, position)
        on_fact = tuple(c for c in step.constraints
                        if set(c.variables) <= position_of.keys())
        fact_constraints.append(tuple(
            (c, {variable: position_of[variable] for variable in c.variables})
            for c in on_fact))
        row_constraints.append(tuple(c for c in step.constraints
                                     if c not in on_fact))
    needed = {part for is_var, part in head_parts if is_var}
    live: List[FrozenSet[Variable]] = []
    for level in range(len(steps) - 1, -1, -1):
        for constraint in row_constraints[level]:
            needed.update(constraint.variables)
        live.append(frozenset(needed))
        kstep = steps[level]
        needed.update(part for is_var, part in kstep.key_parts if is_var)
        needed.update(variable for _position, variable in kstep.bound_checks)
    return _PlanKernel(steps=tuple(steps), head_parts=head_parts,
                       fact_constraints=tuple(fact_constraints),
                       row_constraints=tuple(row_constraints),
                       live=tuple(reversed(live)))


@dataclass(frozen=True)
class RulePlan:
    """A compiled rule: ordered steps plus a head template.

    Attributes:
        rule: the source rule.
        label: identifier used for counters (defaults to ``str(rule)``).
        steps: the join steps, in execution order.
        pre_constraints: constraints with no variables (evaluated once).
    """

    rule: Rule
    label: str
    steps: Tuple[PlanStep, ...]
    pre_constraints: Tuple[Constraint, ...]

    def _kernel_for(self) -> _PlanKernel:
        """Return (building and caching on first use) the compiled kernel."""
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = _compile_kernel(self)
            object.__setattr__(self, "_kernel", kernel)
        return kernel

    def execute(self, database: Database,
                counters: Optional[EvalCounters] = None) -> List[Fact]:
        """Return one head tuple per successful ground substitution.

        Batch semi-join: the whole step-0 input processed at once.
        The first step's matches become per-variable value columns (one
        list per bound variable, row-aligned).  Each later step expands
        the rows against the buckets their join keys probe, in one of
        two forms chosen per level from the data — one C-level
        ``dict.fromkeys`` over the key column counts the distinct keys:

        * **keys that barely repeat** (more distinct keys than half the
          rows, no per-fact check; a chain's delta): no grouping.  One
          :meth:`~repro.facts.index.HashIndex.lookup_many` resolves
          every row's bucket, the buckets are chained, and each column
          is one ``map`` over the facts or the per-row counts
          (:func:`_expand_rows`);
        * **keys that repeat** (a DAG's or a non-linear rule's delta):
          every distinct key's bucket is looked up, filtered and
          gathered into value columns once, and each row chains its
          key's columns (:func:`_expand_shared`).

        Either way the Python work is per level and per distinct
        bucket, never per row.  Constants and repeated variables in the
        probed atom are checked once per distinct bucket; equalities on
        bound variables once per (row, fact).  A constraint over the
        probed atom's variables alone is a function of the fact, so it
        cuts the distinct buckets before the rows expand; the step's
        other constraints cut the expanded rows.  Only the columns a
        later step, constraint or the head reads are carried forward.
        The head batch is one ``zip`` over the final columns.

        The counters are those of a depth-first nested-loops join by
        construction: step 0 records one probe, every later step one
        probe per row arriving at it (one probe per partial binding),
        and firings equal the final row count (one per ground
        substitution).  Emission *order* within the batch differs
        between the two forms; every consumer treats the batch as a
        multiset, so answers, counters and round structure are
        unaffected.

        Args:
            database: must contain a relation for every body predicate.
            counters: optional counters updated with firings and probes.

        Raises:
            EvaluationError: if a body relation is missing.
        """
        empty_binding = Substitution.empty()
        for constraint in self.pre_constraints:
            if not constraint.satisfied(empty_binding):
                return []

        kernel = self._kernel_for()
        steps = kernel.steps
        depth = len(steps)
        head_parts = kernel.head_parts
        label = self.label

        sources: List[Tuple[Optional[object], object]] = []
        for kstep in steps:
            relation = database.get(kstep.predicate)
            if relation is None:
                raise EvaluationError(
                    f"no relation for predicate {kstep.predicate!r} "
                    f"needed by rule {self.label}")
            if kstep.key_positions:
                sources.append((relation.index_on(kstep.key_positions),
                                relation))
            else:
                sources.append((None, relation))

        binding: Dict[Variable, object] = {}
        if depth == 0:
            if counters is not None:
                counters.record_firing(label)
            return [tuple(binding[part] if is_var else part
                          for is_var, part in head_parts)]

        # ---- step 0: seed the batch columns -------------------------
        kstep = steps[0]
        index, relation = sources[0]
        if counters is not None:
            counters.record_probe()
        if index is not None:
            key = kstep.const_key
            if key is None:
                key = tuple(binding[part] if is_var else part
                            for is_var, part in kstep.key_parts)
            rows = index.lookup(key)
        else:
            rows = relation.facts()

        bind_specs = kstep.bind_specs
        cols: Dict[Variable, Sequence[object]] = {}
        if kstep.const_checks or kstep.bound_checks or kstep.same_checks:
            kept: List[Fact] = []
            for fact in rows:
                matches = True
                for position, value in kstep.const_checks:
                    if fact[position] != value:
                        matches = False
                        break
                if matches:
                    for position, variable in kstep.bound_checks:
                        if fact[position] != binding[variable]:
                            matches = False
                            break
                if matches:
                    for position, earlier in kstep.same_checks:
                        if fact[position] != fact[earlier]:
                            matches = False
                            break
                if matches:
                    kept.append(fact)
            n = len(kept)
            if n:
                by_position = list(zip(*kept))
                for position, variable in bind_specs:
                    cols[variable] = by_position[position]
        else:
            # One C-level transpose; the columns are read-only tuples.
            n = len(rows)
            if n:
                by_position = list(zip(*rows))
                for position, variable in bind_specs:
                    cols[variable] = by_position[position]
        if not n:
            return []
        # Constraints pushed to this step decide the whole batch at
        # once, column-wise.
        for constraint in self.steps[0].constraints:
            cols, n = _keep_rows(cols, _constraint_mask(constraint, cols))

        # ---- steps 1..depth-1: probe, expand -------------------------
        for level in range(1, depth):
            if not n:
                return []
            kstep = steps[level]
            index, relation = sources[level]
            if counters is not None:
                counters.record_probe(n)
            live = kernel.live[level]
            carried = [(variable, column) for variable, column in cols.items()
                       if variable in live]
            new_specs = [(position, variable)
                         for position, variable in kstep.bind_specs
                         if variable in live]
            fact_constraints = kernel.fact_constraints[level]
            prefilter = kstep.const_checks or kstep.same_checks

            # One probe key per row: a single-variable key is its raw
            # column (wrapped into the index's 1-tuple key only to look
            # a bucket up), a wider one is zipped once.  A constant key
            # or a full scan is one bucket every row shares.
            if index is None or kstep.const_key is not None:
                keys: Sequence[object] = [None] * n
                distinct: Optional[List[object]] = [None]
                buckets = [relation.facts() if index is None
                           else index.lookup(kstep.const_key)]
            else:
                wrap = len(kstep.key_parts) == 1
                if wrap:
                    keys = cols[kstep.key_parts[0][1]]
                else:
                    keys = list(zip(*[cols[part] if is_var else repeat(part)
                                      for is_var, part in kstep.key_parts]))
                distinct = list(dict.fromkeys(keys))
                if (2 * len(distinct) > n and not prefilter
                        and not kstep.bound_checks):
                    # Keys that barely repeat: sharing buckets saves
                    # nothing, so look every row's key up in bulk.
                    distinct = None
                    buckets = index.lookup_many(zip(keys) if wrap else keys)
                else:
                    buckets = index.lookup_many(zip(distinct) if wrap
                                                else distinct)
            if distinct is not None and (prefilter or fact_constraints):
                buckets = _filter_buckets(buckets, kstep, fact_constraints)
                fact_constraints = ()
            if kstep.bound_checks:
                # Equalities on variables bound by earlier steps: every
                # row keeps the facts of its bucket that agree with it.
                bucket_of = dict(zip(distinct, buckets))
                checks = [(position, cols[variable])
                          for position, variable in kstep.bound_checks]
                buckets = [[fact for fact in bucket_of[key]
                            if all(fact[position] == column[i]
                                   for position, column in checks)]
                           for i, key in enumerate(keys)]
                distinct = None
            if distinct is None:
                cols, n = _expand_rows(buckets, n, carried, new_specs,
                                       fact_constraints)
            else:
                cols, n = _expand_shared(keys, distinct, buckets, n,
                                         carried, new_specs)
            # The step's other constraints: one column-wise pass over
            # the expanded batch, before it reaches the next step.
            for constraint in kernel.row_constraints[level]:
                cols, n = _keep_rows(cols, _constraint_mask(constraint, cols))

        # ---- head drain ---------------------------------------------
        if not n:
            return []
        if counters is not None:
            counters.record_firing(label, n)
        if any(is_var for is_var, _part in head_parts):
            return list(zip(*(cols[part] if is_var else repeat(part)
                              for is_var, part in head_parts)))
        return [tuple(part for _is_var, part in head_parts)] * n

    def __str__(self) -> str:
        parts = [f"plan for {self.label}:"]
        for number, step in enumerate(self.steps, start=1):
            bound = ",".join(str(p) for p in step.key_positions) or "-"
            parts.append(f"  {number}. {step.atom} [bound: {bound}]"
                         + (f" + {len(step.constraints)} constraint(s)"
                            if step.constraints else ""))
        return "\n".join(parts)
