"""The mp executor's channels: one socket per ordered pair, no threads.

Each test forks real processes over
:class:`~repro.parallel.mp.channels.Channels`.  Writes never block, so
two processes sending each other megabytes both finish, and a worker
whose peer is dead keeps answering the coordinator; a writer or reader
killed in the middle of a message leaves nothing the next incarnation
could mistake for a message; a run leaves no descriptor, thread or
process behind, whatever way it ends; and a run that would exceed the
descriptor limit is refused before it forks.
"""

import gc
import multiprocessing
import os
import queue
import resource
import signal
import threading
import time
import warnings
import zlib

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.facts import Database
from repro.parallel import build_fault_plan, example3_scheme
from repro.parallel.discriminating import ModuloDiscriminator
from repro.parallel.mp import run_multiprocessing, runner
from repro.parallel.mp.channels import RECORD_BYTES, Channels
from repro.parallel.mp.machines import COORDINATOR, WorkerMachine
from repro.parallel.mp.protocol import ACK, DATA, PROBE, RESULT, STOP
from repro.parallel.processor import ProcessorRuntime
from repro.workloads import ancestor_program

pytestmark = pytest.mark.mp


def _fork(target, *args):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the channels are inherited through fork")
    process = multiprocessing.get_context("fork").Process(
        target=target, args=args, daemon=True)
    process.start()
    return process


def _payload(me, index, size):
    """A deterministic, incompressible-enough blob of ``size`` bytes."""
    seed = f"{me}:{index}:".encode()
    return (seed * (size // len(seed) + 1))[:size]


def _exchange(channels, me, peer, messages, size):
    """Put every message to ``peer`` before reading any from it, then
    read all of the peer's, write out the rest of its own and report
    the checksum upward."""
    senders = channels.senders(me)
    inbox = channels.inbox(me, senders.values())
    for index in range(messages):
        senders[peer].put(("blob", me, index, _payload(me, index, size)))
    crc = 0
    for expected in range(messages):
        _, sender, index, blob = inbox.get(timeout=60)
        assert (sender, index) == (peer, expected)
        assert blob == _payload(peer, index, size)
        crc = zlib.crc32(blob, crc)
    senders[peer].write_out()
    senders[COORDINATOR].put(("done", me, crc))
    senders[COORDINATOR].write_out()


class TestWritesNeverBlock:
    def test_two_workers_exchange_ten_megabytes_at_once(self):
        """Each side writes 10 MiB before it reads a byte, fifty times
        what a socket buffer holds: with blocking writes both would
        stop in their first full write and never read."""
        messages, size = 20, 512 * 1024
        channels = Channels((0, 1), COORDINATOR)
        try:
            inbox = channels.inbox(COORDINATOR, ())
            workers = [_fork(_exchange, channels, me, 1 - me, messages, size)
                       for me in (0, 1)]
            done = {}
            for _ in workers:
                _, me, crc = inbox.get(timeout=60)
                done[me] = crc
            for worker in workers:
                worker.join(timeout=10)
                assert worker.exitcode == 0
        finally:
            channels.close()
        for me in (0, 1):
            crc = 0
            for index in range(messages):
                crc = zlib.crc32(_payload(1 - me, index, size), crc)
            assert done[me] == crc

    def test_worker_with_a_full_channel_to_a_dead_peer_still_acks(self):
        """Processor 0 of Example 3 (``h`` is ``v mod 2``) turns each
        batch of ``anc(2k, y)`` into as many ``anc(2k + 1, y)`` for
        processor 1, which is dead.  Eight batches write far more than
        a socket buffer holds; the worker still steps on each, acks
        every probe and reports, and most of what it sent is still in
        its backlog when it exits."""
        parallel = example3_scheme(ancestor_program(), (0, 1),
                                   h=ModuloDiscriminator((0, 1)))
        database = Database.from_facts(
            {"par": [(2 * k + 1, 2 * k) for k in range(100)]})
        runtime = ProcessorRuntime(parallel.program_for(0),
                                   parallel.local_database(0, database))
        rounds = 8
        channels = Channels((0, 1), COORDINATOR)
        try:
            dead = _fork(os._exit, 0)
            dead.join(timeout=10)
            senders = channels.senders(0)
            to_coordinator = senders.pop(COORDINATOR)
            worker = _fork(runner._run_worker,
                           WorkerMachine(runtime, time.perf_counter, [1]),
                           channels.inbox(0, [*senders.values(),
                                              to_coordinator]),
                           senders, to_coordinator)
            to_worker = channels.senders(COORDINATOR)[0]
            inbox = channels.inbox(COORDINATOR, ())

            def next_ack(seq):
                while True:
                    message = inbox.get(timeout=30)
                    if message[0] == ACK and message[2] == seq:
                        return message

            for stamp in range(1, rounds + 1):
                facts = [(2 * k, 1000 * stamp + j)
                         for k in range(100) for j in range(50)]
                # As if peer 1 had sent it before it died.
                to_worker.put((DATA, 1, [("anc", facts)], 0, (0, stamp)))
                assert next_ack(0)[7] is False
            acks = []
            for seq in (1, 2, 3):
                to_worker.put((PROBE, seq))
                acks.append(next_ack(seq))
            to_worker.put((STOP,))
            while True:
                message = inbox.get(timeout=30)
                if message[0] == RESULT:
                    break
            worker.join(timeout=10)
            stats = message[3]
            # Whole messages that reached processor 1's end.
            delivered = 0
            peer_inbox = channels.inbox(1, ())
            while True:
                try:
                    peer_inbox.get(timeout=0.2)
                except queue.Empty:
                    break
                delivered += 1
        finally:
            channels.close()
        assert worker.exitcode == 0
        assert [ack[2] for ack in acks] == [1, 2, 3]
        assert stats.received == rounds * 5000
        assert stats.messages_by_target == {1: rounds}
        assert delivered < rounds


def _torn_writer(channels):
    """Write the first records of a multi-record message, then die as a
    ``SIGKILL`` would leave it: the rest only in the dead backlog."""
    channels.senders(0)[1].put(("torn", b"x" * (40 * RECORD_BYTES)))
    os.kill(os.getpid(), signal.SIGKILL)


def _successor(channels, messages):
    sender = channels.senders(0)[1]
    for message in messages:
        sender.put(message)
    sender.write_out()


class TestTornFrames:
    def test_killed_writer_is_followed_intact_by_its_successor(self):
        # The successor starts with a multi-record message: its FIRST
        # record alone tells the reader the open frame is torn.
        successor = [("large", b"y" * (3 * RECORD_BYTES + 7)), ("small", 1),
                     ("small", 2)]
        channels = Channels((0, 1), COORDINATOR)
        try:
            writer = _fork(_torn_writer, channels)
            writer.join(timeout=10)
            assert writer.exitcode == -signal.SIGKILL
            inbox = channels.inbox(1, ())
            # The dead writer's records are all there, and make nothing.
            with pytest.raises(queue.Empty):
                inbox.get(timeout=0.2)
            second = _fork(_successor, channels, successor)
            got = [inbox.get(timeout=30) for _ in successor]
            second.join(timeout=10)
            with pytest.raises(queue.Empty):
                inbox.get(timeout=0.2)
        finally:
            channels.close()
        assert second.exitcode == 0
        assert got == successor

    def test_a_frame_begun_by_a_killed_reader_is_dropped(self):
        """A reader that dies after taking a message's first record
        leaves its tail; the next reader skips it up to the next
        message."""
        channels = Channels((0, 1), COORDINATOR)
        try:
            sender = channels.senders(0)[1]
            sender.put(("large", b"z" * (2 * RECORD_BYTES)))
            sender.put(("after", 1))
            # The dead reader's one record, taken off the socket as its
            # inbox would have (the test reaches the channel's read end).
            read_end = channels._pairs[(0, 1)][1]
            assert read_end.recv(RECORD_BYTES)[0] == 1
            inbox = channels.inbox(1, ())
            assert inbox.get(timeout=5) == ("after", 1)
            with pytest.raises(queue.Empty):
                inbox.get(timeout=0.1)
        finally:
            channels.close()


def _lowered_limit_run(report):
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
    database = Database.from_facts({"par": [(0, 1)]})
    try:
        run_multiprocessing(example3_scheme(ancestor_program(),
                                            tuple(range(16))), database)
    except ConfigurationError as error:
        report.put((str(error), len(multiprocessing.active_children())))
    else:
        report.put(("no error", None))


class TestDescriptorLimit:
    def test_too_few_descriptors_is_a_precise_error_before_any_fork(self):
        """Sixteen processors need 2·16·17 = 544 descriptors; a child
        that lowers its own soft limit to 64 is told so, and nothing
        is forked."""
        channels = Channels((0,), COORDINATOR)
        try:
            report = channels.inbox(COORDINATOR, ())
            child = _fork(_report_into, channels, _lowered_limit_run)
            message, forked = report.get(timeout=60)
            child.join(timeout=10)
        finally:
            channels.close()
        assert child.exitcode == 0
        assert forked == 0
        assert "16 processors" in message
        assert "544 file descriptors" in message
        assert "RLIMIT_NOFILE is 64" in message


    def test_platform_without_seqpacket_sockets_is_refused(
            self, monkeypatch):
        """Where ``AF_UNIX`` has no ``SOCK_SEQPACKET`` the error names
        the channels, not a socket traceback."""
        import errno
        import socket

        def unsupported(*_args):
            raise OSError(errno.EPROTONOSUPPORT, "Protocol not supported")

        monkeypatch.setattr(socket, "socketpair", unsupported)
        with pytest.raises(ConfigurationError, match="SOCK_SEQPACKET"):
            Channels((0, 1), COORDINATOR)


def _report_into(channels, body):
    sender = channels.senders(0)[COORDINATOR]
    body(sender)
    sender.write_out()


def _descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.faultinjection
class TestNothingLeftBehind:
    def test_twenty_runs_leave_no_descriptor_thread_or_process(
            self, tree_db):
        """Eighteen undisturbed runs, one kill under ``recovery="fail"``
        (raising) and one restart: every channel end is closed, not
        left to the garbage collector, and no descriptor, thread or
        worker outlives the run that made it."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("counts descriptors through /proc/self/fd")
        program = example3_scheme(ancestor_program(), (0, 1, 2))
        kill = build_fault_plan(["kill:1@10"])
        before = (_descriptors(), threading.active_count())
        children = set(multiprocessing.active_children())
        outcomes = []
        with warnings.catch_warnings(record=True) as caught:
            # An unclosed socket warns when it is collected.
            warnings.simplefilter("always", ResourceWarning)
            for run in range(20):
                if run == 6:
                    with pytest.raises(ExecutionError,
                                       match="recovery policy"):
                        run_multiprocessing(program, tree_db, faults=kill,
                                            timeout=60)
                    outcomes.append("failed")
                else:
                    result = run_multiprocessing(
                        program, tree_db, timeout=60,
                        **({"faults": kill, "recovery": "restart"}
                           if run == 13 else {}))
                    outcomes.append(result.restarts)
                assert (_descriptors(),
                        threading.active_count()) == before, run
            gc.collect()
        assert not [warning for warning in caught
                    if issubclass(warning.category, ResourceWarning)]
        assert set(multiprocessing.active_children()) <= children
        assert outcomes.count(1) == 1 and outcomes.count("failed") == 1
