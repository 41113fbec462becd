"""Hash constraints: the ``h(v(r)) = i`` conjuncts of rewritten rules.

A :class:`HashConstraint` implements the engine's
:class:`~repro.datalog.rule.Constraint` protocol, so rewritten rules run
on the unmodified sequential engine.  The planner pushes the constraint
to the earliest join step at which all of ``v(r)`` is bound — the
selection pushdown the paper identifies as the prerequisite for
effective parallelism (Section 3).
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from ..datalog.substitution import Substitution
from ..datalog.term import Constant, Variable
from ..errors import RoutingError
from .discriminating import Discriminator

__all__ = ["HashConstraint"]


class HashConstraint:
    """The conjunct ``h(v) = target`` attached to a rewritten rule.

    Attributes:
        discriminator: the discriminating function ``h``.
        sequence: the discriminating sequence of variables ``v``.
        target: the processor id the hash must equal.
    """

    __slots__ = ("discriminator", "sequence", "target")

    def __init__(self, discriminator: Discriminator,
                 sequence: Sequence[Variable], target: Hashable) -> None:
        self.discriminator = discriminator
        self.sequence: Tuple[Variable, ...] = tuple(sequence)
        self.target = target

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """The variables the constraint reads (the sequence, deduplicated)."""
        seen = []
        for variable in self.sequence:
            if variable not in seen:
                seen.append(variable)
        return tuple(seen)

    def satisfied(self, binding: Substitution) -> bool:
        """True iff ``h`` maps the bound sequence values to ``target``.

        A value tuple outside the discriminator's domain (possible for
        partition-defined discriminators) satisfies the constraint at no
        processor.
        """
        values = []
        for variable in self.sequence:
            term = binding.get(variable)
            if not isinstance(term, Constant):
                raise RoutingError(
                    f"constraint variable {variable} not bound to a constant")
            values.append(term.value)
        try:
            return self.discriminator(tuple(values)) == self.target
        except RoutingError:
            return False

    def satisfied_columns(self,
                          columns: Sequence[Sequence[object]]) -> List[bool]:
        """Column form: one verdict per row of the row-aligned columns.

        ``columns[k]`` holds the values of ``sequence[k]``; the batch
        join calls this once per step over the whole batch instead of
        once per row.
        """
        target = self.target
        return [owner == target
                for owner in self.discriminator.map_columns(columns)]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HashConstraint)
                and self.discriminator is other.discriminator
                and self.sequence == other.sequence
                and self.target == other.target)

    def __hash__(self) -> int:
        return hash((id(self.discriminator), self.sequence, self.target))

    def __str__(self) -> str:
        args = ", ".join(str(v) for v in self.sequence)
        return f"h({args}) = {self.target!r}"

    def __repr__(self) -> str:
        return (f"HashConstraint({self.discriminator.describe()}, "
                f"{list(self.sequence)}, {self.target!r})")
