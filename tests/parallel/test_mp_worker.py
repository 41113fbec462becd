"""The mp worker loop, driven in-process with fabricated inbox orders.

Real mp runs are too fast and too racy to pin what a worker does with
one particular interleaving of messages, so these tests run
:func:`~repro.parallel.mp.worker.worker_main` in a thread over plain
``queue.Queue`` objects and queue the messages before it starts: the
order is then exact, with no sleeps or kills.
"""

import queue
import threading

import pytest

from repro.facts import Database
from repro.facts.packing import ensure_facts
from repro.parallel import hash_scheme
from repro.parallel.mp.protocol import ACK, DATA, PROBE, RESET, RESULT, STOP
from repro.parallel.mp.worker import worker_main
from repro.parallel.processor import ProcessorRuntime
from repro.workloads import ancestor_program


class _InProcessWorker:
    """Drive ``worker_main`` in a thread over plain ``queue.Queue``s.

    Single-processor programs route every derivation to themselves, so
    no real peer or process machinery is needed.  The runtime is built
    the way the coordinator builds it before forking.
    """

    def __init__(self, parallel, database):
        proc = parallel.processors[0]
        runtime = ProcessorRuntime(parallel.program_for(proc),
                                   parallel.local_database(proc, database))
        self.inbox = queue.Queue()
        self.coordinator = queue.Queue()
        self.thread = threading.Thread(
            target=worker_main,
            args=(runtime, self.inbox, {proc: self.inbox}, self.coordinator),
            daemon=True)

    def start(self):
        self.thread.start()

    def probe(self, seq):
        self.inbox.put((PROBE, seq))

    def next_ack(self, timeout=10.0):
        while True:
            message = self.coordinator.get(timeout=timeout)
            if message[0] == ACK:
                return message

    def stop(self, timeout=10.0):
        self.inbox.put((STOP,))
        while True:
            message = self.coordinator.get(timeout=timeout)
            if message[0] == RESULT:
                self.thread.join(timeout=timeout)
                return message


def _single_worker():
    database = Database.from_facts({"par": [(0, 1)]})
    return _InProcessWorker(hash_scheme(ancestor_program(), (0,)), database)


@pytest.mark.faultinjection
class TestEpochAdoption:
    def test_data_overtaking_its_reset_is_counted(self):
        """A newcomer's ``DATA(epoch+1)`` can reach a survivor before
        the coordinator's ``RESET(epoch+1)`` (two producers, one inbox).
        The survivor must adopt the epoch from the DATA and count it;
        skipping the count and then zeroing on the late RESET leaves
        ``sent > received`` for ever ("no quiescence within N
        seconds")."""
        worker = _single_worker()
        facts = [(10, 11), (11, 12), (12, 13)]
        worker.inbox.put((DATA, 1, [("anc", facts)], 1, (1, 1)))
        worker.inbox.put((RESET, 1))
        worker.probe(1)
        worker.start()
        _, _proc, seq, sent, received, _activity, epoch, _pending \
            = worker.next_ack()
        worker.stop()
        assert (seq, epoch) == (1, 1)
        assert sent == 0
        assert received == len(facts)


class TestPendingFlag:
    def test_two_waves_acked_before_staged_input_is_stepped(self):
        """A worker acks every probe of one drain pass before it steps,
        so two consecutive waves can both see it holding staged input
        with the same ``activity``.  Only ``pending`` tells the
        coordinator that this double probe is not quiescence."""
        worker = _single_worker()
        # Each received anc(1, y) joins par(0, 1) into anc(0, y).
        facts = [(1, 5), (1, 6), (1, 7)]
        worker.inbox.put((DATA, 1, [("anc", facts)], 0, (0, 1)))
        worker.probe(1)
        worker.probe(2)
        worker.start()
        first = worker.next_ack()
        second = worker.next_ack()
        message = worker.stop()
        assert (first[2], second[2]) == (1, 2)
        # (ACK, proc, seq, sent, received, activity, epoch, pending)
        assert first[3:5] == second[3:5] == (0, len(facts))
        assert first[5] == second[5]
        assert first[7] is True and second[7] is True
        # The staged facts were stepped on after the pass: nothing lost.
        assert {(0, 5), (0, 6), (0, 7)} <= set(ensure_facts(message[2]["anc"]))
