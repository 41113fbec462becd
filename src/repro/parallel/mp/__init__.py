"""Real multiprocessing execution of rewritten programs.

One OS process per processor — the coordinator's own process steps
the first (:mod:`.runner`) — one socket pair per channel — one
channel per ordered pair of processes, written and read by each
process's own loop with no thread (:mod:`.channels`) — a Mattern-style
counting double-probe for quiescence, and a fault tolerance layer
backed by Theorem 1 plus Datalog's monotonicity: restart-and-replay
from the base fragment (``recovery="restart"``) or from periodic
coordinator-held snapshots with sent-log truncation at the
acknowledged watermarks (``recovery="checkpoint"``), under a restart
budget with per-worker exponential backoff.  The protocol and its
invariants are documented in :mod:`.protocol`; every decision it
describes is made by the two state machines of :mod:`.machines`, which
the I/O loops of :mod:`.worker` and :mod:`.runner` drive; the snapshot
payload format is in :mod:`.checkpoint` (see also
``docs/FAULT_TOLERANCE.md``).
"""

from .protocol import WorkerStats
from .runner import MPResult, default_ack_deadline, run_multiprocessing

__all__ = ["MPResult", "WorkerStats", "default_ack_deadline",
           "run_multiprocessing"]
