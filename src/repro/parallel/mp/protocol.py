"""Wire protocol of the multiprocessing executor, and its invariants.

This is the one full statement of the protocol.  Every decision it
describes is made by one of the two machines of :mod:`.machines` —
:class:`~.machines.WorkerMachine` or
:class:`~.machines.CoordinatorMachine` — and the method that makes it
is named in brackets; the I/O loops of :mod:`.worker` and :mod:`.runner`
only carry the messages.

Messages are plain picklable tuples; the first element is a tag.  Each
ordered pair of processes has a channel of its own (:mod:`.channels`):
FIFO, written by the sender's loop and read by the receiver's, with
no order across the channels into one process.

Data plane (worker → worker):

* ``("data", sender, pairs, epoch, stamp)`` — tuples on a channel (the
  paper's ``t_ij`` predicates): ``pairs`` is a list of
  ``(predicate, facts)`` groups, so one message (one put on the
  channel to the peer: one pickle, one write) carries one step's
  whole output for the peer across several predicates.  ``facts`` is
  the plain list of fact tuples the runtime routed to the peer, and
  all protocol accounting below counts facts.  ``epoch`` is the *recovery epoch* the sender was in when
  it *enqueued* the message (see below); receivers always ingest the
  facts (monotonicity makes stale deliveries harmless) but count them
  toward quiescence only when the epochs match.  ``stamp`` is the
  channel watermark stamp ``(incarnation, seq)``: ``incarnation`` is
  the epoch the sending worker was *spawned* in (strictly increasing
  over a processor's successive incarnations) and ``seq`` a
  per-channel message counter, so stamps are lexicographically
  monotone per channel; receivers keep the maximum stamp dequeued per
  sender and publish it in their checkpoints (see the checkpoint plane
  below).  A message with no ``pairs`` is an *epoch marker* and counts
  as one unit where a data message counts its facts (see "Epoch
  markers" below).

Control plane (coordinator ↔ worker):

* ``("probe", seq)`` — coordinator → worker, a quiescence probe.
* ``("ack", processor, seq, sent, received, activity, epoch,
  pending)`` — worker → coordinator, counters at probe time.
  ``sent``/``received`` count only current-epoch data tuples (and
  markers); ``activity`` is a monotone counter of tuples ingested,
  emitted and re-sent; ``pending`` is True iff the worker holds staged
  input it has not yet processed (see below).
* ``("ack", processor, 0, sent, received, activity, epoch, False)`` —
  worker → coordinator, a *passive notice*: the same counters, sent
  unprompted when a pass of the worker loop that did work (stepped,
  or drained data, a replay or a truncation) ends with no staged input
  left [``WorkerMachine.step``].  Probe waves are numbered from 1, so
  ``seq == 0`` marks the notice and one parser reads both.  A notice
  is a hint that ends the coordinator's wait for the next wave early;
  it is never a wave member (see "Passive notices" below).
* ``("stop",)`` — coordinator → worker, terminate and report.
* ``("result", processor, outputs, stats)`` — worker → coordinator,
  final output relations and cumulative counters.  ``outputs`` maps
  each derived predicate to a plain list of the worker's ``t_out``
  facts, in no particular order: the coordinator pools them into a
  set.
* ``("error", processor, text)`` — worker → coordinator, crash report
  (only reachable when the worker's Python level survives to format a
  traceback — a ``SIGKILL`` produces no message at all, which is why
  the coordinator also polls ``Process.is_alive``).
* ``("trace", processor, events)`` — worker → coordinator, a batch of
  trace events in flat dict form (see :mod:`repro.obs`); sent only when
  the run is traced, flushed at probe time and before the final result.

Recovery plane (coordinator → worker):

* ``("reset", epoch)`` — a worker died and was restarted; survivors
  enter recovery epoch ``epoch`` and zero their quiescence counters.
  A ``data`` message stamped with a later epoch than the receiver's
  own has the same effect (see "Epoch adoption" below).
* ``("replay", target)`` — re-send every tuple still held in the
  per-target sent-log for ``target`` under the current epoch (the full
  history under ``recovery="restart"``; the post-truncation suffix
  under ``recovery="checkpoint"``) [``WorkerMachine._replay``].

Checkpoint plane (``recovery="checkpoint"``, see :mod:`.checkpoint`):

* ``("checkpoint", processor, watermarks, blob)`` — worker →
  coordinator, a snapshot of the worker's derived state, its
  cumulative counters, its own sent-log and its per-sender watermarks,
  cut at the end of every ``checkpoint_interval``-th burst — a run of
  steps that ends when the worker has no staged input left — with
  every step's output on the wire [``WorkerMachine.step``].  ``blob``
  is the whole snapshot as one ``pickle.dumps``; ``watermarks`` is the
  per-sender maximum stamp, the one part the coordinator reads.  The
  coordinator keeps only the latest blob per processor (checkpoints
  are cumulative, not incremental), undecoded, hands it to the
  processor's next incarnation, and fans the watermarks out as
  ``truncate`` messages [``CoordinatorMachine._store_checkpoint``].
* ``("truncate", target, stamp)`` — coordinator → worker: ``target``'s
  checkpoint acknowledged everything you sent it up to ``stamp``; drop
  those facts from your sent-log for ``target``
  [``WorkerMachine._truncate``].

Watermark/truncation invariant
------------------------------

A sender may truncate a log entry for ``target`` exactly when the fact
is guaranteed to be inside ``target``'s last checkpoint.  The stamp
machinery makes that checkable locally: channels are FIFO and stamps
are lexicographically monotone per channel (``incarnation`` breaks
ties across a sender's restarts — a dying worker writes out every
channel's backlog before it kills itself, and its successor is forked
after its death on the same channels, so a successor's messages really
do follow its predecessor's), hence every message with stamp ≤ the
receiver's watermark was *dequeued* — and therefore staged or ingested
— before the checkpoint snapshot was cut.  A fact enters the sender's
log when the message carrying it is returned for the put
[``WorkerMachine._data``], and the loop puts every message before it
reads another, so every entry has a stamp to compare.  Replay after
truncation is unchanged code: "re-send the whole remaining log" is
exactly "re-send the unacknowledged suffix".  When several workers die
in one detection, every newcomer — a restored one holds its
predecessor's log — also replays to every *other* casualty
[``CoordinatorMachine._on_deaths``]: a fellow casualty may have
dequeued those facts after its own last checkpoint, and neither side
will derive them again.

Replay equivalence of the deduplicated log: receivers discard
duplicates (the difference step of the paper's receiving rules), so
replaying each logged fact once is indistinguishable to the receiver
from replaying the raw historical send sequence.  Deduplication also
bounds the log: per peer it can never exceed the worker's own ``t_out``
sizes (times fan-out), reported as ``sent_log_facts``.  Under
``recovery="fail"`` nothing is ever replayed, so no log is kept.

Quiescence invariant
--------------------

The coordinator detects termination with a counting double probe
(Mattern-style) [``CoordinatorMachine._wave_done``].  A wave is
*balanced* when ``Σ sent == Σ received`` over all acks of the wave,
*unchanged* when no worker's ``activity`` moved since the previous
wave, and *clear* when no ack of the wave reports ``pending``.  A wave
that is balanced, clear and unchanged from the one before it implies
all channels are empty and all workers are idle, because:

1. every data tuple increments exactly one ``sent`` at the sender (at
   enqueue time) and one ``received`` at the receiver (at dequeue
   time), so ``Σ sent − Σ received`` equals the number of in-flight
   tuples — *provided both ends count in the same epoch*, which the
   epoch stamp guarantees.  No derived tuple waits in its sender
   uncounted: a worker reads its inbox (and so its probes) only
   between steps, and every step's remote output is enqueued — and
   counted — before the next read.  So at every snapshot the
   coordinator compares, "in flight" means exactly "enqueued and not
   yet dequeued", and a message is stamped and counted in the epoch
   its sender is in when it enqueues it, symmetric with the
   receiver's dequeue-time epoch check [``WorkerMachine._data``,
   ``WorkerMachine._ingest``];
2. a worker bumps ``activity`` for every tuple it stages, emits or
   re-sends, and a clear ack holds no unstepped input — so two equal
   snapshots, the second clear, bracket a window with no work in it;
3. balanced counters taken *between* two unchanged snapshots cannot be
   a coincidence of crossing messages: any message received after wave
   one would have moved ``activity`` by wave two.

``pending`` is needed although workers run free: a worker acks every
probe of one drain pass before it steps, so two consecutive waves can
both find it holding staged input, with equal ``activity`` and
balanced counters.  Without the flag that double probe would end the
run and lose what the input derives.  It delays detection only until
the drain pass ends and the worker steps.

Passive notices.  Between waves the coordinator keeps a *view*: the
latest current-epoch ack or notice from each worker
[``CoordinatorMachine.on_message``].  It starts the next wave as soon
as the view is balanced with no ``pending`` flag — at once when the
wave that just completed was itself balanced and clear, otherwise when
the notice that makes it so arrives — and only falls back to waiting
``probe_interval`` when neither happens [``CoordinatorMachine.tick``].
The view decides *when* a wave is sent, never *whether* termination
holds: a notice is not a wave member, so the test above still needs
two consecutive real waves, and a stale or crossing notice can at
worst start a wave that fails it.  Nor does the confirming wave need a
pause after the first: the argument above uses only that every
snapshot of wave two is taken after every snapshot of wave one, which
holds because the coordinator sends wave two once every ack of wave
one is in hand.

Recovery epochs exist to protect invariant (1) across a restart: the
counters of a dead worker vanish with it, so the global sums would
never balance again.  Bumping the epoch and zeroing every survivor's
``sent``/``received`` restarts the accounting from a consistent cut
[``CoordinatorMachine._on_deaths``]: tuples from the old epoch that
are still in flight are ingested but not counted (their send-side
count was zeroed too), and every replayed or newly derived tuple is
counted symmetrically in the new epoch.  An ack or notice from an
older epoch is ignored.  The RESETs go out before the next wave's
probes and before the REPLAYs, on the coordinator's own channel to
each worker, so each survivor zeroes its counters before it answers a
probe or replays.

Epoch adoption.  "Counted symmetrically" needs the receiver to be in
the sender's epoch when it dequeues, and the ``reset`` alone cannot
guarantee that.  An inbox is several channels — one from the
coordinator and one from every peer — each FIFO, with no order across
them, so the coordinator's ``reset(e+1)``, put before it forks the
replacement, can still be read by a survivor *after* the
replacement's first ``data(e+1)``, which travels on another
channel.  A survivor that merely
skipped the count for a foreign epoch would then ingest those facts,
zero its counters on the late ``reset``, and leave the newcomer's
``sent`` permanently ahead of the cluster's ``received`` — quiescence
never detected.  So a worker that dequeues ``data`` with an epoch
later than its own adopts that epoch first (zeroing ``sent`` and
``received``, exactly what the in-flight ``reset`` would do) and then
counts the message; the ``reset`` arrives as a no-op, because epochs
only move forward [``WorkerMachine._adopt``].  Adopting early is safe
for the same reason the reset itself is: everything the survivor
counted in the old epoch is discarded either way, and whatever it
sends from now on is stamped with the new epoch, which every receiver
reaches by the same rule.

Epoch markers.  "Ingested but not counted" leaves one gap: an
old-epoch message still in flight when the new epoch's double probe
completes is on no counter, so nothing stops the coordinator from
declaring quiescence — and sending STOP, which another channel can
deliver first — before the message is read; what it would
have derived is lost.  A survivor's data put just before it read the
``reset`` can be that message.  So a worker that enters an epoch —
by adoption, or by being spawned in one — first puts an *epoch
marker* on every peer channel [``WorkerMachine._markers``]: a
``data`` message with no facts, stamped like any other, counted as
one unit in ``sent`` at the put and in ``received`` at the dequeue.
Each channel is FIFO, and a respawned worker's messages follow its
predecessor's (the backlogs written out before ``SIGKILL``), so the
marker reaches the peer after everything put on that channel before
it; no wave of the new epoch balances until every marker, and so
every old-epoch message, has been dequeued.  Markers cost ``n − 1``
messages per worker per recovery, and none in an undisturbed run.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = [
    "DATA",
    "PROBE",
    "ACK",
    "STOP",
    "RESULT",
    "ERROR",
    "TRACE",
    "RESET",
    "REPLAY",
    "CHECKPOINT",
    "TRUNCATE",
    "WorkerStats",
]

DATA = "data"
PROBE = "probe"
ACK = "ack"
STOP = "stop"
RESULT = "result"
ERROR = "error"
TRACE = "trace"
RESET = "reset"
REPLAY = "replay"
CHECKPOINT = "checkpoint"
TRUNCATE = "truncate"


class WorkerStats:
    """Picklable snapshot of one worker's cumulative counters.

    Unlike the per-epoch quiescence counters in ``ack`` messages, these
    are cumulative over the worker's lifetime (a restarted worker starts
    fresh — its predecessor's counters died with it).

    Attributes:
        firings: successful ground substitutions.
        probes: index probes performed by the engine.
        iterations: local semi-naive iterations.
        sent_by_target: per-peer count of tuples actually put on the
            channel to the peer (replays included).
        messages_by_target: per-peer count of coalesced ``data``
            messages carrying those tuples (each = one put: one pickle
            and one or more records written).
        bytes_by_target: per-peer approximate payload bytes (the
            deterministic size model of
            :func:`repro.parallel.metrics.approx_batch_bytes`).
        received: data tuples read off the inbox.
        duplicates_dropped: tuples read off the inbox that ``t_in``
            already held (duplicates in the worker's own share are not
            counted: they never crossed a channel).
        self_delivered: tuples routed to the worker itself (no channel),
            as produced: the own share is deduplicated only when
            ``t_in`` ingests it, so copies are counted.
        replayed: tuples re-sent while serving ``replay`` requests.
        sent_log_facts: total facts held in the deduplicated per-peer
            replay logs at exit (the bounded-memory satellite metric;
            under ``recovery="checkpoint"`` truncation keeps this from
            growing with total derived facts, and under
            ``recovery="fail"`` no log is kept, so it reads 0).
        log_truncated: sent-log facts dropped after a peer's checkpoint
            watermark covered them.
        inbox_wait_s: seconds spent in ``inbox.get`` calls that may
            block (the worker had nothing to step), including the
            reading and unpickling of what they returned.
        drain_s: seconds spent draining the inbox apart from those
            waits: the non-blocking ``inbox.get`` calls (polling,
            reading, unpickling, flushing backlogs) and the ingest of
            every message read, blocking or not.
        step_s: seconds spent in semi-naive steps, including the
            runtime's routing of each step's output (splitting by
            target and deduplicating the remote shares).
        send_s: seconds spent sending steps' output (staging
            self-deliveries) and putting data messages,
            replays and epoch markers included, on peer channels: a
            put pickles the message and writes what the socket takes.
        longest_step_s: the longest single step, in seconds.
        cpu_s: the worker process's CPU seconds (user and system,
            ``time.process_time``) when it sends its result; 0 until
            then.
    """

    __slots__ = ("firings", "probes", "iterations", "sent_by_target",
                 "messages_by_target", "bytes_by_target", "received",
                 "duplicates_dropped", "self_delivered", "replayed",
                 "sent_log_facts", "log_truncated", "inbox_wait_s",
                 "drain_s", "step_s", "send_s", "longest_step_s", "cpu_s")

    def __init__(self) -> None:
        self.firings: int = 0
        self.probes: int = 0
        self.iterations: int = 0
        self.sent_by_target: Dict[Hashable, int] = {}
        self.messages_by_target: Dict[Hashable, int] = {}
        self.bytes_by_target: Dict[Hashable, int] = {}
        self.received: int = 0
        self.duplicates_dropped: int = 0
        self.self_delivered: int = 0
        self.replayed: int = 0
        self.sent_log_facts: int = 0
        self.log_truncated: int = 0
        self.inbox_wait_s: float = 0.0
        self.drain_s: float = 0.0
        self.step_s: float = 0.0
        self.send_s: float = 0.0
        self.longest_step_s: float = 0.0
        self.cpu_s: float = 0.0

    def total_sent(self) -> int:
        """Tuples this worker put on remote channels."""
        return sum(self.sent_by_target.values())
