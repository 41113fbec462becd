"""The loop that drives a processor's machine, and the worker process.

:class:`WorkerLoop` drives one :class:`~.machines.WorkerMachine`, which
makes every protocol decision (the invariants are stated in
:mod:`.protocol`).  Every processor runs it, the one the coordinator
steps itself (:mod:`.runner`'s resident) and a forked worker alike.

:func:`worker_main`, a forked worker's body, is the inbox around that
loop.  Each pass drains the inbox — every channel into this worker
(:mod:`.channels`) — without blocking while the machine is busy, so
whatever peers sent meanwhile joins the next step's batch; then it asks
the loop for one step.  The process's own thread does all of it: a put
pickles and writes, a get reads and unpickles, and every read of the
inbox also flushes what this worker's channels could not take yet.  A
pass with nothing to step blocks on the inbox until a message arrives:
a blocked read still writes out the backlogs, and a step with nothing
staged does nothing.  When the machine says its kill fault is due, the
worker writes out every backlog and ``SIGKILL``\\ s its own process:
the failure is silent at the protocol level but clean at the OS level,
with every message already put on the wire.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import traceback
from time import perf_counter, process_time
from typing import Callable, Hashable, Mapping, Optional

from .machines import COORDINATOR, WorkerMachine
from .protocol import ERROR

__all__ = ["WorkerLoop", "worker_main"]

ProcessorId = Hashable


class WorkerLoop:
    """Drive one :class:`~.machines.WorkerMachine` and carry what it
    returns.

    The loop calls the machine's ``start``, ``on_message`` and ``step``
    and puts each returned message for a peer on the peer's channel
    before the next call, timing the puts.  A Python-level crash becomes
    an ``error`` message.  Once the machine stops, crashes or is
    ``dying``, the loop lets go of it, and with it of its runtime.

    Args:
        machine: the processor's machine, not yet started.
        senders: this processor's channel to each peer, written with
            ``put`` (a :class:`~.channels.Sender` each).
        report: called with each message for the coordinator: acks,
            checkpoints, trace batches, the result and a crash's
            ``error``.
        cpu_started: ``time.process_time()`` at which the processor's
            ``cpu_s`` begins; 0 in a forked worker, whose process
            started with it.
    """

    __slots__ = ("machine", "senders", "report", "_cpu_started")

    def __init__(self, machine: WorkerMachine,
                 senders: Mapping[ProcessorId, object],
                 report: Callable[[tuple], None],
                 cpu_started: float = 0.0) -> None:
        # None once the machine stopped, crashed or is dying.
        self.machine: Optional[WorkerMachine] = machine
        self.senders = senders
        self.report = report
        self._cpu_started = cpu_started

    @property
    def busy(self) -> bool:
        return self.machine is not None and self.machine.busy

    def start(self) -> None:
        self._run(self.machine.start)

    def receive(self, message: tuple) -> None:
        """Hand the machine one message taken off the inbox; only the
        machine's reaction counts as draining, the puts it returns
        count as sending."""
        self._run(self.machine.on_message, message)

    def step(self) -> None:
        self._run(self.machine.step)

    def _run(self, call, *message) -> None:
        machine = self.machine
        stats = machine.stats
        started = perf_counter()
        try:
            outputs = call(*message)
        except Exception:
            self._let_go(machine)
            self.report((ERROR, machine.me, traceback.format_exc()))
            return
        if message:
            stats.drain_s += perf_counter() - started
        if machine.stopped:
            # The RESULT among ``outputs`` carries these stats.
            stats.cpu_s = process_time() - self._cpu_started
        for target, out in outputs:
            if target is COORDINATOR:
                self.report(out)
            else:
                started = perf_counter()
                self.senders[target].put(out)
                stats.send_s += perf_counter() - started
        if machine.stopped or machine.dying:
            self._let_go(machine)

    def _let_go(self, machine: WorkerMachine) -> None:
        """Drop ``machine``, which stopped, crashed or is dying."""
        self.machine = None


def worker_main(machine: WorkerMachine, inbox,
                senders: Mapping[ProcessorId, object],
                to_coordinator) -> None:
    """Body of a worker process, forked from the coordinator.

    Args:
        machine: this processor's machine, built by the coordinator
            before the fork and not yet started.  On a traced run its
            runtime's tracer buffers events in an
            :class:`~repro.obs.sinks.InMemorySink`; the machine streams
            them to the coordinator as ``("trace", ...)`` batches.
        inbox: every channel into this worker, read with
            ``get(timeout=)`` (a :class:`~.channels.Inbox`).
        senders: this worker's channel to each peer, written with
            ``put`` (a :class:`~.channels.Sender` each).
        to_coordinator: this worker's channel to the coordinator, for
            acks, checkpoints, trace batches and the result.
    """
    loop = WorkerLoop(machine, senders, to_coordinator.put)
    stats = machine.stats
    loop.start()
    while loop.machine is not None:
        busy = loop.machine.busy
        started = perf_counter()
        try:
            message = inbox.get(timeout=0.0 if busy else None)
        except queue_module.Empty:
            stats.drain_s += perf_counter() - started
            loop.step()
            continue
        if not busy:
            # A get that may block is a wait; what follows it is a
            # drain, as a whole non-blocking get is.
            waited = perf_counter()
            stats.inbox_wait_s += waited - started
            started = waited
        stats.drain_s += perf_counter() - started
        loop.receive(message)
    if machine.dying:
        for sender in (*senders.values(), to_coordinator):
            sender.write_out()
        os.kill(os.getpid(), signal.SIGKILL)
