"""CPython's cyclic collector: paused for a fixpoint run, and run young
at each round boundary.

A run allocates its fact tuples by the hundred thousand, so the
collector's young generation fills hundreds of times per run and now
and then a full collection walks the whole heap — yet a run builds no
reference cycles, so every collection frees nothing (the invariant
``tests/test_collector.py`` pins).  Each executor's entry point
therefore runs under :func:`collector_paused`; reference counting still
frees everything a run drops.

What a young collection does do is untrack: each tuple of constants it
meets leaves the collector's lists for good.  Every kept fact must pay
that once, and it is cheapest while the fact is still in cache.  So
each executor calls :func:`collect_young` at its round boundary — after
a sequential round closes, after a simulated processor's step, after
the mp coordinator pools a RESULT — once the round's duplicates are
dropped, so the collection walks what the round kept and little else
(docs/PERFORMANCE.md, "The cyclic collector").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collect_young", "collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector inside the block, then restore it.

    The collector is re-enabled on exit only if it was enabled on
    entry, so a caller's own pause (or an outer run's) survives.  Being
    a :func:`~contextlib.contextmanager`, it also decorates a function:
    ``@collector_paused()`` pauses each call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def collect_young() -> None:
    """Collect the young generation now, paused or not.

    It walks every object allocated and still alive since the last
    collection, untracks the tuples of constants among them, and moves
    the rest to the middle generation, which no collection reaches
    while the pause lasts.
    """
    gc.collect(0)
