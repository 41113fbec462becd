"""CPython's cyclic collector, paused for the length of a fixpoint run.

A run allocates its fact tuples by the hundred thousand, so the
collector's young generation fills hundreds of times per run and now
and then a full collection walks the whole heap — yet a run builds no
reference cycles, so every collection frees nothing (the invariant
``tests/test_collector.py`` pins).  Each executor's entry point
therefore runs under :func:`collector_paused`; reference counting still
frees everything a run drops.  The price is paid once, when the pause
ends: the first allocation after it runs a young collection over all
that the run kept (docs/PERFORMANCE.md, "The cyclic collector").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


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
