"""Naming conventions for rewritten predicates.

The rewrites of the paper introduce predicates ``t_out^i``, ``t_in^i``
and channel predicates ``t_ij``.  We embed these as decorated predicate
names using ``@`` — a character the surface parser rejects — so rewritten
programs can never collide with user predicates.
"""

from __future__ import annotations

from typing import Hashable

__all__ = [
    "IN_MARK",
    "OUT_MARK",
    "processor_tag",
    "in_name",
    "out_name",
    "channel_name",
    "fragment_name",
    "strip_decoration",
]

IN_MARK = "@in"
OUT_MARK = "@out"
_CHANNEL_MARK = "@ch"
_FRAGMENT_MARK = "@frag"


def processor_tag(processor: Hashable) -> str:
    """Render a processor id as a name-safe tag.

    Integer ids map to their digits; tuple ids (Example 6 uses processor
    ids like ``(0, 0)``) map to underscore-joined components.
    """
    if isinstance(processor, tuple):
        return "_".join(processor_tag(part) for part in processor)
    text = str(processor)
    return "".join(ch if (ch.isalnum() or ch == "_") else "m" for ch in text)


def in_name(predicate: str, processor: Hashable = None) -> str:
    """Name of the ``t_in`` relation (optionally per-processor)."""
    suffix = f"@{processor_tag(processor)}" if processor is not None else ""
    return f"{predicate}{IN_MARK}{suffix}"


def out_name(predicate: str, processor: Hashable = None) -> str:
    """Name of the ``t_out`` relation (optionally per-processor)."""
    suffix = f"@{processor_tag(processor)}" if processor is not None else ""
    return f"{predicate}{OUT_MARK}{suffix}"


def channel_name(predicate: str, sender: Hashable, receiver: Hashable) -> str:
    """Name of the channel predicate ``t_ij``."""
    return (f"{predicate}{_CHANNEL_MARK}"
            f"@{processor_tag(sender)}@{processor_tag(receiver)}")


def fragment_name(predicate: str, occurrence: int) -> str:
    """Name of the base fragment first read by base-atom occurrence
    ``occurrence`` (counted over the program's rule bodies in order)."""
    return f"{predicate}{_FRAGMENT_MARK}@{occurrence}"


def strip_decoration(name: str) -> str:
    """Return the original predicate symbol of a decorated name."""
    return name.split("@", 1)[0]
