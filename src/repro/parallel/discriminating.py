"""Discriminating sequences and discriminating functions (paper, Section 3).

A *discriminating sequence* ``v(r)`` is a sequence of variables of a
rule; a *discriminating function* ``h`` maps ground instances of the
sequence to processor ids.  The partition of ground substitutions that
``h`` induces is what distributes the workload: processor ``i``
evaluates only the substitutions with ``h(v(r)) = i``.

All discriminators here are deterministic and process-stable: they use
:func:`stable_hash` (BLAKE2) rather than Python's per-process ``hash``,
so the same tuple routes to the same processor in every worker process
of the multiprocessing executor.

Memoisation.  ``stable_hash`` renders and digests its argument on every
call, while a run touches each distinct constant hundreds of times (the
constraint of every candidate substitution, then the route of every
emitted tuple).  Every discriminator whose cost is ``stable_hash``
therefore keeps a per-instance memo, so each distinct constant is
hashed once per process.  Three rules keep the memo invisible:

* the hash is a function of ``repr``, so the memo never merges values
  that compare equal but render differently (``1``, ``1.0``, ``True``):
  it is keyed by exact type first and only for the types in
  :data:`_MEMO_TYPES`, everything else is hashed directly.  A memo keyed
  on the raw value alone would make the target depend on which of the
  equal values a process touched first, and sender and receiver
  processes touch them in different orders;
* it never travels: pickling a discriminator drops it, so a pickled
  program does not grow with how warm the process was;
* it is bounded: each table stops growing at
  :data:`_MEMO_MAX_ENTRIES`, past which values are hashed directly.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable, Optional, Sequence, Tuple

from ..errors import RoutingError
from ..facts.fragments import ArbitraryFragmentation

__all__ = [
    "stable_hash",
    "Discriminator",
    "HashDiscriminator",
    "ModuloDiscriminator",
    "TupleDiscriminator",
    "LinearDiscriminator",
    "PartitionDiscriminator",
    "ConstantDiscriminator",
    "DiscriminatorFamily",
    "UniformFamily",
    "LocalRetentionFamily",
    "binary_g",
]

ProcessorId = Hashable
Values = Tuple[object, ...]

# Exact types whose values are equal only when their ``repr`` is equal,
# so a dict keyed on the value can stand in for the repr-based hash.
# ``float`` is out (``0.0 == -0.0``), containers are out (``(1,) ==
# (1.0,)``) and so are subclasses (the test is on the exact type).
_MEMO_TYPES = frozenset({int, str, bool, bytes, type(None)})

# Entries one memo table may hold.  Single-position tables are bounded
# by the active domain anyway; multi-position ones (one entry per
# distinct value *tuple*) are not.
_MEMO_MAX_ENTRIES = 1 << 16


class _Memo(dict):
    """``key -> function(key)``, filled on first touch up to the cap.

    ``memo[key]`` is a plain C-level dict read on a hit; ``__missing__``
    computes (and, while there is room, stores) on a miss, so batch
    callers can map a whole column through ``memo.__getitem__``.
    """

    __slots__ = ("_function",)

    def __init__(self, function: Callable[[object], object]) -> None:
        super().__init__()
        self._function = function

    def __missing__(self, key: object) -> object:
        result = self._function(key)
        if len(self) < _MEMO_MAX_ENTRIES:
            self[key] = result
        return result


class _TypedMemo:
    """Memo of a pure function of one argument, keyed by exact type.

    One :class:`_Memo` per *kind* of argument that ``memoisable``
    admits — by default the exact type of a constant, which must be in
    :data:`_MEMO_TYPES`; arguments of any other kind go straight to the
    function.
    """

    __slots__ = ("_function", "_memoisable", "_tables")

    def __init__(self, function: Callable[[object], object],
                 memoisable: Callable[[object], bool]
                 = _MEMO_TYPES.__contains__) -> None:
        self._function = function
        self._memoisable = memoisable
        self._tables: dict = {}

    def table(self, kind: object) -> Optional[_Memo]:
        """The memo for arguments of ``kind``; None if not memoised."""
        table = self._tables.get(kind)
        if table is None and self._memoisable(kind):
            table = self._tables[kind] = _Memo(self._function)
        return table

    def __call__(self, value: object) -> object:
        table = self._tables.get(type(value))   # hot path: one dict read
        if table is None:
            table = self.table(type(value))
            if table is None:
                return self._function(value)
        return table[value]


def stable_hash(value: object, salt: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``value``.

    Stable across processes and Python invocations (unlike built-in
    ``hash`` on strings), which the multiprocessing executor requires.
    """
    digest = hashlib.blake2b(
        repr((salt, value)).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def binary_g(value: object, salt: int = 0) -> int:
    """An arbitrary function from constants to ``{0, 1}``.

    This is the ``g`` of Examples 6 and 7: any function from database
    constants to a small codomain, out of which structured
    discriminating functions are composed.
    """
    return stable_hash(value, salt) & 1


class Discriminator:
    """Base class of discriminating functions.

    A discriminator is a callable from value tuples (ground instances of
    the discriminating sequence) to processor ids, together with the
    processor set it ranges over.  :attr:`total` is True on the classes
    that map every value tuple to a processor (never raising
    :class:`~repro.errors.RoutingError`).
    """

    total = False

    def __init__(self, processors: Sequence[ProcessorId]) -> None:
        if not processors:
            raise RoutingError("processor set must be non-empty")
        self.processors: Tuple[ProcessorId, ...] = tuple(processors)
        self._memo = self._new_memo()

    def _new_memo(self) -> object:
        """A fresh, empty memo (see the module docstring); None if the
        function is cheap enough not to need one.  Called at the end of
        construction and again after unpickling."""
        return None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = self._new_memo()

    def __call__(self, values: Values) -> ProcessorId:
        raise NotImplementedError

    def map_column(self, column: Sequence[object]) -> "list":
        """Batch form of ``__call__`` over a single-position column.

        Takes the gathered values of one discriminating position (the
        single-position point-to-point case the route kernel fast-paths)
        and returns one target per value, with ``None`` for values that
        belong to no fragment.  The default applies ``__call__``
        per value; subclasses with cheap dispatch override it with a
        tight comprehension over the whole column.  Must agree with
        ``__call__`` value-for-value — routing always works on raw
        constants, so packed and plain batches partition identically
        (docs/DATA_PLANE.md).
        """
        targets = []
        append = targets.append
        for value in column:
            try:
                append(self((value,)))
            except RoutingError:
                append(None)
        return targets

    def map_columns(self, columns: Sequence[Sequence[object]]) -> "list":
        """Batch form of ``__call__`` over row-aligned columns.

        ``columns[k]`` holds the values of the ``k``-th discriminating
        position; the result has one target per row, ``None`` where the
        row belongs to no fragment.  Agrees with ``__call__`` row for
        row.  The default is the row form itself.
        """
        if len(columns) == 1:
            return self.map_column(columns[0])
        targets = []
        append = targets.append
        for values in zip(*columns):
            try:
                append(self(values))
            except RoutingError:
                append(None)
        return targets

    def describe(self) -> str:
        """Human-readable summary for reports."""
        return type(self).__name__


class _HashedDiscriminator(Discriminator):
    """A discriminator that hashes the whole value tuple, memoised.

    Subclasses define :meth:`_compute` (the unmemoised function, one
    ``stable_hash`` per call); ``__call__`` reads the memo: a
    :class:`_TypedMemo` over raw constants for single-position sequences
    and, for longer ones, one :class:`_Memo` over value tuples per tuple
    of exact element types.
    """

    def _compute(self, values: Values) -> ProcessorId:
        raise NotImplementedError

    def _new_memo(self) -> object:
        compute = self._compute
        # Single-position: constants by exact type.  Longer sequences:
        # value tuples by the tuple of their exact element types.
        return (_TypedMemo(lambda value: compute((value,))),
                _TypedMemo(compute, _MEMO_TYPES.issuperset))

    def __call__(self, values: Values) -> ProcessorId:
        if type(values) is not tuple:
            return self._compute(values)
        single, rows = self._memo
        if len(values) == 1:
            return single(values[0])
        table = rows.table(tuple(map(type, values)))
        return self._compute(values) if table is None else table[values]

    def map_columns(self, columns: Sequence[Sequence[object]]) -> "list":
        # One exact-type set per column instead of one type tuple per
        # row: when every column holds a single memoised type, all rows
        # share the memo table ``__call__`` would pick for each of them
        # and map through it in one C-level pass.  A mixed-type column
        # takes the row form, so ``1``/``1.0``/``True`` still never
        # share an entry.
        if len(columns) > 1:
            kinds = [set(map(type, column)) for column in columns]
            if all(len(kind) == 1 for kind in kinds):
                table = self._memo[1].table(
                    tuple(kind.pop() for kind in kinds))
                if table is not None:
                    try:
                        return list(map(table.__getitem__, zip(*columns)))
                    except RoutingError:
                        pass    # some row has no fragment: row form
        return super().map_columns(columns)


class HashDiscriminator(_HashedDiscriminator):
    """``h(values) = processors[stable_hash(values) mod N]``.

    The workhorse discriminator: a uniform hash partition of ground
    instances over the processor set.
    """

    total = True

    def __init__(self, processors: Sequence[ProcessorId], salt: int = 0) -> None:
        super().__init__(processors)
        self.salt = salt

    def _compute(self, values: Values) -> ProcessorId:
        return self.processors[stable_hash(values, self.salt)
                               % len(self.processors)]

    def map_column(self, column: Sequence[object]) -> "list":
        # Hash dispatch never raises, so a column of one memoised type
        # maps through that type's table in a single C-level pass
        # (misses fall into ``_Memo.__missing__``).
        kinds = set(map(type, column))
        if len(kinds) == 1:
            table = self._memo[0].table(kinds.pop())
            if table is not None:
                return list(map(table.__getitem__, column))
        return list(map(self._memo[0], column))

    def describe(self) -> str:
        return f"hash mod {len(self.processors)} (salt={self.salt})"


class ModuloDiscriminator(Discriminator):
    """``h(values) = processors[sum(values) mod N]`` for integer values.

    Readable in examples and, being a symmetric function of its
    arguments, invariant under the cyclic shifts that Theorem 3's
    zero-communication construction relies on.
    """

    total = True

    def _new_memo(self) -> object:
        return _TypedMemo(stable_hash)  # for the non-integer values

    def __call__(self, values: Values) -> ProcessorId:
        hashed = self._memo
        total = 0
        for value in values:
            if isinstance(value, int):
                total += value
            else:
                total += hashed(value)
        return self.processors[total % len(self.processors)]

    def map_column(self, column: Sequence[object]) -> "list":
        processors = self.processors
        count = len(processors)
        hashed = self._memo
        return [processors[(value if isinstance(value, int)
                            else hashed(value)) % count]
                for value in column]

    def describe(self) -> str:
        return f"sum mod {len(self.processors)}"


class TupleDiscriminator(Discriminator):
    """``h(a1, ..., am) = (g(a1), ..., g(am))`` — Example 6.

    Processor ids are tuples over the codomain of ``g``; with the
    default binary ``g`` and ``m = 2`` the processors are
    ``(0,0), (0,1), (1,0), (1,1)``.
    """

    def __init__(self, length: int, g: Callable[[object], int] = binary_g,
                 g_range: int = 2) -> None:
        self.length = length
        self.g = g
        self.g_range = g_range
        super().__init__(_tuple_space(length, g_range))

    def _new_memo(self) -> object:
        return _TypedMemo(self.g)

    def __call__(self, values: Values) -> ProcessorId:
        if len(values) != self.length:
            raise RoutingError(
                f"expected {self.length} values, got {len(values)}")
        g, g_range = self._memo, self.g_range
        return tuple(g(v) % g_range for v in values)

    def compose_g(self, g_values: Sequence[int]) -> ProcessorId:
        """Apply the discriminator to pre-computed ``g`` values.

        The compile-time network derivation (Section 5) enumerates
        symbolic ``g`` values; any discriminator that factors through
        ``g`` per position exposes this hook.
        """
        return tuple(g_values)

    def describe(self) -> str:
        return f"(g(a1), ..., g(a{self.length})) with g range {self.g_range}"


def _tuple_space(length: int, g_range: int) -> Tuple[Tuple[int, ...], ...]:
    """All tuples in ``{0..g_range-1}^length``, lexicographically."""
    if length == 0:
        return ((),)
    shorter = _tuple_space(length - 1, g_range)
    return tuple((value, *rest) for value in range(g_range) for rest in shorter)


class LinearDiscriminator(Discriminator):
    """``h(a1, ..., am) = c1·g(a1) + ... + cm·g(am)`` — Example 7.

    With coefficients ``(1, -1, 1)`` and binary ``g`` this is exactly
    the paper's ``h(a1,a2,a3) = g(a1) - g(a2) + g(a3)`` whose processor
    set is ``{-1, 0, 1, 2}``.  An optional modulus folds the range onto
    ``{0..modulus-1}``.
    """

    def __init__(self, coefficients: Sequence[int],
                 g: Callable[[object], int] = binary_g,
                 g_range: int = 2, modulus: Optional[int] = None) -> None:
        self.coefficients = tuple(coefficients)
        self.g = g
        self.g_range = g_range
        self.modulus = modulus
        super().__init__(self._range())

    def _range(self) -> Tuple[int, ...]:
        """The exact set of reachable values of the linear form."""
        values = {0}
        for coefficient in self.coefficients:
            values = {v + coefficient * b
                      for v in values for b in range(self.g_range)}
        if self.modulus is not None:
            values = {v % self.modulus for v in values}
        return tuple(sorted(values))

    def _new_memo(self) -> object:
        return _TypedMemo(self.g)

    def __call__(self, values: Values) -> ProcessorId:
        if len(values) != len(self.coefficients):
            raise RoutingError(
                f"expected {len(self.coefficients)} values, got {len(values)}")
        g, g_range = self._memo, self.g_range
        total = sum(c * (g(v) % g_range)
                    for c, v in zip(self.coefficients, values))
        if self.modulus is not None:
            total %= self.modulus
        return total

    def compose_g(self, g_values: Sequence[int]) -> ProcessorId:
        """Apply the linear form to pre-computed ``g`` values (Section 5)."""
        total = sum(c * b for c, b in zip(self.coefficients, g_values))
        if self.modulus is not None:
            total %= self.modulus
        return total

    def describe(self) -> str:
        terms = " + ".join(f"{c}*g(a{k + 1})"
                           for k, c in enumerate(self.coefficients))
        if self.modulus is not None:
            terms = f"({terms}) mod {self.modulus}"
        return terms


class PartitionDiscriminator(Discriminator):
    """A discriminating function *defined by* a horizontal partition.

    Example 2's ``h(a, b) = i`` iff ``(a, b) ∈ par^i``: the arbitrary
    fragmentation of the base relation is itself the discriminator.
    Value tuples outside the partition belong to no processor; they can
    never satisfy the processing constraint anywhere, which is harmless
    because such tuples cannot match the fragmented base atom either.
    """

    def __init__(self, fragmentation: ArbitraryFragmentation,
                 processors: Sequence[ProcessorId]) -> None:
        super().__init__(processors)
        self.fragmentation = fragmentation

    def __call__(self, values: Values) -> ProcessorId:
        owner = self.fragmentation.assignment.get(tuple(values))
        if owner is None:
            raise RoutingError(f"values {values!r} belong to no fragment")
        return owner

    def contains(self, values: Values) -> bool:
        """True iff some fragment owns ``values``."""
        return tuple(values) in self.fragmentation.assignment

    def describe(self) -> str:
        return "partition-defined (Example 2)"


class ConstantDiscriminator(Discriminator):
    """``h(values) = target`` for every tuple.

    Section 6, property 1: when processor ``i`` uses ``h_i ≡ i`` it
    keeps every generated tuple for self-processing, yielding the
    communication-free (but redundant) scheme of Wolfson [18].
    """

    def __init__(self, processors: Sequence[ProcessorId],
                 target: ProcessorId) -> None:
        super().__init__(processors)
        if target not in self.processors:
            raise RoutingError(f"target {target!r} not in processor set")
        self.target = target

    def __call__(self, values: Values) -> ProcessorId:
        return self.target

    def describe(self) -> str:
        return f"constant {self.target!r}"


class DiscriminatorFamily:
    """A per-processor family ``{h_i}`` (paper, Section 6).

    The non-redundant scheme of Section 3 is the special case where
    every member is the same function.
    """

    def member(self, processor: ProcessorId) -> Discriminator:
        """Return ``h_i`` for processor ``i``."""
        raise NotImplementedError

    def is_uniform(self) -> bool:
        """True iff every member is the same function (non-redundant case)."""
        return False

    def describe(self) -> str:
        return type(self).__name__


class UniformFamily(DiscriminatorFamily):
    """Every processor uses the same discriminating function ``h``."""

    def __init__(self, discriminator: Discriminator) -> None:
        self.discriminator = discriminator

    def member(self, processor: ProcessorId) -> Discriminator:
        return self.discriminator

    def is_uniform(self) -> bool:
        return True

    def describe(self) -> str:
        return f"uniform {self.discriminator.describe()}"


class _RetentionDiscriminator(_HashedDiscriminator):
    """Keep a deterministic fraction of tuples local, route the rest."""

    def __init__(self, owner: ProcessorId, base: Discriminator,
                 keep_fraction: float, salt: int) -> None:
        super().__init__(base.processors)
        self.owner = owner
        self.base = base
        self.keep_fraction = keep_fraction
        self.salt = salt

    def _compute(self, values: Values) -> ProcessorId:
        draw = (stable_hash(values, self.salt) % 10_000) / 10_000.0
        if draw < self.keep_fraction:
            return self.owner
        return self.base(values)

    def describe(self) -> str:
        return (f"keep {self.keep_fraction:.0%} at {self.owner!r}, "
                f"else {self.base.describe()}")


class LocalRetentionFamily(DiscriminatorFamily):
    """The trade-off family of Section 6.

    Processor ``i`` keeps a (deterministic, hash-chosen) fraction of its
    generated tuples for self-processing and routes the remainder by a
    shared base discriminator.  ``keep_fraction = 0`` reproduces the
    non-redundant scheme; ``keep_fraction = 1`` reproduces Wolfson's
    communication-free scheme.  Intermediate values trace the
    redundancy/communication spectrum the paper describes.
    """

    def __init__(self, base: Discriminator, keep_fraction: float,
                 salt: int = 0) -> None:
        if not 0.0 <= keep_fraction <= 1.0:
            raise RoutingError("keep_fraction must be within [0, 1]")
        self.base = base
        self.keep_fraction = keep_fraction
        self.salt = salt

    def member(self, processor: ProcessorId) -> Discriminator:
        if self.keep_fraction == 0.0:
            return self.base
        return _RetentionDiscriminator(processor, self.base,
                                       self.keep_fraction, self.salt)

    def is_uniform(self) -> bool:
        return self.keep_fraction == 0.0

    def describe(self) -> str:
        return (f"local retention {self.keep_fraction:.0%} over "
                f"{self.base.describe()}")
