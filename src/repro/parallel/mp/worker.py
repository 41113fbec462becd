"""The worker process of the multiprocessing executor.

An I/O loop around one :class:`~.machines.WorkerMachine`, which makes
every protocol decision; the invariants are stated in :mod:`.protocol`.
Each pass of the loop drains the inbox — every channel into this
worker (:mod:`.channels`) — without blocking while the machine is busy,
so whatever peers sent meanwhile joins the next step's batch; then it
asks the machine for one step and writes each returned message on its
channel before the next drain, timing the puts.  The loop's own thread
does all of it: a put pickles and writes, a get reads and unpickles,
and every read of the inbox also flushes what this worker's channels
could not take yet.  A pass with nothing to step blocks on the inbox
until a message arrives: a blocked read still writes out the backlogs,
and a step with nothing staged does nothing.  When the machine says
its kill fault is due, the loop writes out every backlog and
``SIGKILL``\\ s its own process: the failure is silent at the protocol
level but clean at the OS level, with every message already put on the
wire.  A Python-level crash is reported as an
``error`` message.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import traceback
from time import perf_counter, process_time
from typing import Hashable, Mapping, Optional

from ..processor import ProcessorRuntime
from .machines import COORDINATOR, WorkerMachine
from .protocol import ERROR

__all__ = ["worker_main"]

ProcessorId = Hashable


def worker_main(runtime: ProcessorRuntime, inbox,
                peer_queues: Mapping[ProcessorId, object],
                coordinator_queue,
                kill_after: Optional[int] = None,
                epoch: int = 0,
                checkpoint_interval: Optional[int] = None,
                restore: Optional[bytes] = None,
                replayable: bool = True) -> None:
    """Entry point of a worker process, forked from the coordinator.

    Args:
        runtime: this processor's runtime, built by the coordinator and
            never stepped.  On a traced run its tracer buffers events in
            an :class:`~repro.obs.sinks.InMemorySink`; the worker streams
            them to the coordinator as ``("trace", ...)`` batches.
        inbox: every channel into this worker, read with
            ``get(timeout=)`` (a :class:`~.channels.Inbox`).
        peer_queues: this worker's channel to each peer, written with
            ``put`` (a :class:`~.channels.Sender` each); an entry for
            the worker itself is ignored.
        coordinator_queue: this worker's channel to the coordinator,
            for acks, checkpoints, trace batches and the result.
        kill_after: firing count at which this worker kills itself
            (an injected kill fault), or ``None``.
        epoch: recovery epoch to start in (non-zero for workers spawned
            as replacements after a failure).
        checkpoint_interval: when set (``recovery="checkpoint"``), ship
            a checkpoint to the coordinator every this many bursts.
        restore: optional checkpoint blob
            (:func:`~.checkpoint.encode_checkpoint`); when given, the
            worker resumes from the snapshot instead of firing its
            initialization rules.
        replayable: whether the run's recovery policy can ever ask for
            a replay (the coordinator passes ``recovery != "fail"``).
            When False the worker keeps no sent-log and no per-fact
            stamps.
    """
    try:
        me = runtime.program.processor
        machine = WorkerMachine(runtime, perf_counter,
                                [peer for peer in peer_queues if peer != me],
                                kill_after=kill_after,
                                epoch=epoch,
                                checkpoint_interval=checkpoint_interval,
                                restore=restore, replayable=replayable)
        stats = machine.stats

        def put(outputs) -> None:
            if machine.stopped:
                # The RESULT among ``outputs`` carries these stats.
                stats.cpu_s = process_time()
            for target, message in outputs:
                if target is COORDINATOR:
                    coordinator_queue.put(message)
                else:
                    started = perf_counter()
                    peer_queues[target].put(message)
                    stats.send_s += perf_counter() - started

        def die() -> None:
            for peer_queue in peer_queues.values():
                peer_queue.close()
                peer_queue.join_thread()
            coordinator_queue.close()
            coordinator_queue.join_thread()
            os.kill(os.getpid(), signal.SIGKILL)

        put(machine.start())
        if machine.dying:
            die()
        while not machine.stopped:
            while not machine.stopped:
                idle = not machine.busy
                started = perf_counter()
                try:
                    message = inbox.get(timeout=None if idle else 0.0)
                except queue_module.Empty:
                    message = None
                if idle:
                    # A get that may block is a wait; what follows it
                    # is a drain, as a whole non-blocking get is.
                    waited = perf_counter()
                    stats.inbox_wait_s += waited - started
                    started = waited
                if message is None:
                    stats.drain_s += perf_counter() - started
                    break
                outputs = machine.on_message(message)
                stats.drain_s += perf_counter() - started
                put(outputs)
            if machine.stopped:
                break
            put(machine.step())
            if machine.dying:
                die()
    except Exception:  # pragma: no cover - crash path
        coordinator_queue.put(
            (ERROR, runtime.program.processor, traceback.format_exc()))
