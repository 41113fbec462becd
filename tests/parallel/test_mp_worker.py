"""The mp worker loop, driven in-process with fabricated inbox orders.

Real mp runs are too fast and too racy to pin what a worker does with
one particular interleaving of messages, so these tests run
:func:`~repro.parallel.mp.worker.worker_main` in a thread over plain
``queue.Queue`` objects and queue the messages before it starts: the
order is then exact, with no sleeps or kills.  The loop it shares with
the resident, :class:`~repro.parallel.mp.worker.WorkerLoop`, is also
driven directly with a fake machine.
"""

import queue
import threading
import time
import types

import pytest

from repro.facts import Database
from repro.parallel import example3_scheme, hash_scheme
from repro.parallel.discriminating import ModuloDiscriminator
from repro.parallel.mp.machines import WorkerMachine
from repro.parallel.mp.protocol import (
    ACK,
    DATA,
    PROBE,
    RESET,
    RESULT,
    STOP,
    WorkerStats,
)
from repro.parallel.mp.worker import WorkerLoop, worker_main
from repro.parallel.processor import ProcessorRuntime
from repro.workloads import ancestor_program


class _InProcessWorker:
    """Drive ``worker_main`` in a thread over plain ``queue.Queue``s.

    The worker runs the first processor of ``parallel``; every other
    processor is a bare queue in ``peers``, so what the worker sends
    can be read back message by message.  Single-processor programs
    route every derivation to themselves.  The runtime and its machine
    are built the way the coordinator builds them before forking.
    """

    def __init__(self, parallel, database):
        proc = parallel.processors[0]
        self.runtime = ProcessorRuntime(
            parallel.program_for(proc),
            parallel.local_database(proc, database))
        self.inbox = queue.Queue()
        self.peers = {other: queue.Queue()
                      for other in parallel.processors if other != proc}
        self.coordinator = queue.Queue()
        machine = WorkerMachine(self.runtime, time.perf_counter,
                                list(self.peers))
        self.thread = threading.Thread(
            target=worker_main,
            args=(machine, self.inbox, self.peers, self.coordinator),
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

    def wait_idle(self):
        """Wait for the passive notice of a worker with nothing staged."""
        while True:
            ack = self.next_ack()
            if ack[2] == 0 and ack[7] is False:
                return ack

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
        assert {(0, 5), (0, 6), (0, 7)} <= set(message[2]["anc"])


class TestSendAsYouStep:
    def test_each_step_puts_its_remote_output_on_the_wire(self):
        """Processor 0 of a two-processor Example 3 scheme (``h`` is
        ``v mod 2``) on a chain of even nodes, each with an odd parent:
        each step derives paths one edge longer, delivers those that
        start at an even node to itself and those that start at an odd
        node to peer 1.  The self-deliveries keep the burst going, and
        the peer gets one message per step, carrying that step's
        facts."""
        chain = [(2 * k + 2, 2 * k) for k in range(5)]
        odd_parents = [(2 * k + 1, 2 * k) for k in range(6)]
        database = Database.from_facts({"par": chain + odd_parents})
        parallel = example3_scheme(ancestor_program(), (0, 1),
                                   h=ModuloDiscriminator((0, 1)))
        worker = _InProcessWorker(parallel, database)
        worker.start()
        worker.wait_idle()
        stats = worker.stop()[3]
        peer = worker.peers[1]
        messages = []
        while not peer.empty():
            messages.append(peer.get())
        assert stats.iterations == 5
        assert stats.messages_by_target == {1: 5}
        # (DATA, sender, pairs, epoch, stamp): one per step, in order.
        assert [m[0] for m in messages] == [DATA] * 5
        assert [m[4] for m in messages] == [(0, seq) for seq in range(1, 6)]
        # Step k derives the paths of k + 1 edges from the odd parents.
        sizes = [sum(len(facts) for _, facts in m[2])
                 for m in messages]
        assert sizes == [5, 4, 3, 2, 1]

    def test_fat_batches_cross_as_plain_fact_lists(self):
        """Processor 0 of the same scheme on twelve odd parents of every
        node of an even chain: each step's share for peer 1 and the
        worker's part of the answer hold at least eight facts, and
        each crosses as the plain list of fact tuples it was."""
        chain = [(2 * k + 2, 2 * k) for k in range(4)]
        odd_parents = [(2 * j + 1, 2 * k) for j in range(12) for k in range(5)]
        database = Database.from_facts({"par": chain + odd_parents})
        parallel = example3_scheme(ancestor_program(), (0, 1),
                                   h=ModuloDiscriminator((0, 1)))
        worker = _InProcessWorker(parallel, database)
        worker.start()
        worker.wait_idle()
        outputs = worker.stop()[2]
        peer = worker.peers[1]
        payloads = []
        while not peer.empty():
            message = peer.get()
            assert message[0] == DATA
            payloads += [facts for _, facts in message[2]]
        assert payloads
        payloads.append(outputs["anc"])
        for facts in payloads:
            assert type(facts) is list
            assert all(type(fact) is tuple for fact in facts)
        assert min(map(len, payloads)) >= 8

    def test_probe_is_acked_between_steps_of_a_burst(self):
        """A probe that arrives during a multi-step burst is answered at
        the next step boundary, while the worker still holds staged
        input, not after the burst."""
        database = Database.from_facts({"par": [(k, k + 1) for k in range(6)]})
        worker = _InProcessWorker(hash_scheme(ancestor_program(), (0,)),
                                  database)
        step_batches = worker.runtime.step_batches
        probed = []

        def probing_step():
            if not probed:
                probed.append(True)
                worker.probe(1)
            return step_batches()

        worker.runtime.step_batches = probing_step
        worker.start()
        first = worker.next_ack()
        # (ACK, proc, seq, sent, received, activity, epoch, pending)
        assert first[2] == 1
        assert first[7] is True
        idle = worker.wait_idle()
        stats = worker.stop()[3]
        assert first[5] < idle[5]
        assert stats.iterations == 6


class TestWorkerTimings:
    def test_timings_are_non_negative_and_bound_the_longest_step(self):
        worker = _single_worker()
        worker.inbox.put((DATA, 1, [("anc", [(1, 5), (1, 6)])], 0, (0, 1)))
        worker.start()
        worker.wait_idle()
        stats = worker.stop()[3]
        assert stats.iterations > 0
        for value in (stats.inbox_wait_s, stats.drain_s, stats.step_s,
                      stats.send_s, stats.longest_step_s, stats.cpu_s):
            assert value >= 0.0
        assert 0.0 < stats.longest_step_s <= stats.step_s
        assert stats.cpu_s > 0.0



class TestWorkerLoop:
    def test_reply_puts_count_as_sending_not_draining(self):
        """The loop every processor runs times a message's reaction as
        ``drain_s`` and the puts it returns as ``send_s``, not both."""
        stats = WorkerStats()
        machine = types.SimpleNamespace(
            me=0, stats=stats, stopped=False, dying=False,
            on_message=lambda message: [(1, (DATA, 0, [], 0, (0, 1)))])
        sender = types.SimpleNamespace(put=lambda message: time.sleep(0.05))
        WorkerLoop(machine, {1: sender}, [].append).receive((PROBE, 1))
        assert stats.send_s >= 0.05
        assert stats.drain_s < 0.05
