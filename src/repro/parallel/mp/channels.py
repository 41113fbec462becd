"""The channels of the multiprocessing executor: one socket per ordered pair.

Every ordered pair of processes — worker to worker, worker to
coordinator, coordinator to worker — has a channel of its own, the
paper's ``t_ij`` (Section 3): an ``AF_UNIX``/``SOCK_SEQPACKET`` socket
pair whose first end only the producer writes and whose second end
only the consumer reads.  The coordinator creates every channel before
the first fork (:class:`Channels`), so each worker and each restart
inherits them all, and a restart reads what was sent to its
predecessor.  No thread carries a message: the sender pickles it and
writes it from its own loop (:class:`Sender`), and the receiver reads
every channel into it with one reused ``select.poll`` (:class:`Inbox`).
Each channel is FIFO; across the channels into one process there is
no order.  The coordinator's process also steps one processor, so its
inbox reads the channels into both (:meth:`Channels.read_ends`), and
stops reading that processor's when a kill fault retires it
(:meth:`Inbox.stop_reading`).

Records.  A message is pickled once and written as one or more
records of at most :data:`RECORD_BYTES`.  The kernel queues and
delivers a record whole or not at all, so a process killed in the
middle of a write loses whole records only.  Each record starts with
one flag byte, ``FIRST`` on a message's first record and ``LAST`` on
its last (one-record messages carry both), and the reader assembles a
message from a ``FIRST`` record through the next ``LAST``.  A writer
killed inside a multi-record message leaves a frame without its
``LAST``; every successor's first record carries ``FIRST``, and the
reader drops the torn frame.  A reader killed inside one leaves the
frame's tail, which its successor drops up to the next ``FIRST``.  No
kill at either end desynchronises a channel for the next incarnation.

Writes never block.  Records that do not fit in the socket's buffer
wait, in order, in the sender's backlog.  An :class:`Inbox` flushes
its process's backlogs whenever it reads and, while it blocks, also polls
the write ends that still hold some, so two processes sending each
other megabytes both keep reading, and a process whose peer is dead
keeps answering everybody else.  :meth:`Sender.write_out` blocks
until the backlog is written: a worker calls it on every sender before
it kills itself, and on its channel to the coordinator after its last
message.
"""

from __future__ import annotations

import collections
import errno
import pickle
import queue
import select
import socket
import time
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Tuple

from ...errors import ConfigurationError

__all__ = ["RECORD_BYTES", "Channels", "Inbox", "Sender"]

ProcessorId = Hashable

#: Bytes of one record, flag byte included.  A record must fit in the
#: socket's send buffer whole (208 KiB by default on Linux); a free
#: quarter of that buffer is what makes a write end poll writable, so
#: a record of this size always fits once it does.
RECORD_BYTES = 64 * 1024
_PAYLOAD = RECORD_BYTES - 1

_FIRST = 1
_LAST = 2
_WHOLE = bytes([_FIRST | _LAST])


def _records(data: bytes) -> List[bytes]:
    """``data`` cut into flagged records."""
    if len(data) <= _PAYLOAD:
        return [_WHOLE + data]
    view = memoryview(data)
    starts = range(0, len(data), _PAYLOAD)
    return [bytes([(_FIRST if start == 0 else 0)
                   | (_LAST if start == starts[-1] else 0)])
            + view[start:start + _PAYLOAD]
            for start in starts]


class Sender:
    """The write end of one channel, with a queue's ``put``.

    Args:
        sock: the channel's first socket, non-blocking.
    """

    __slots__ = ("_sock", "_backlog")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._backlog: Deque[bytes] = collections.deque()

    def put(self, message: object) -> None:
        """Pickle ``message`` and write it, keeping what does not fit."""
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        if not self._backlog and len(data) <= _PAYLOAD:
            try:
                self._sock.send(_WHOLE + data)
                return
            except BlockingIOError:
                pass
        self._backlog.extend(_records(data))
        self.flush()

    def flush(self) -> bool:
        """Write backlogged records until the socket is full; True iff
        nothing is left."""
        backlog = self._backlog
        send = self._sock.send
        try:
            while backlog:
                send(backlog[0])
                backlog.popleft()
        except BlockingIOError:
            return False
        return True

    @property
    def backlogged(self) -> bool:
        return bool(self._backlog)

    def fileno(self) -> int:
        return self._sock.fileno()

    def write_out(self) -> None:
        """Block until every backlogged record is written."""
        if self.flush():
            return
        poller = select.poll()
        poller.register(self._sock, select.POLLOUT)
        while not self.flush():
            poller.poll()


class Inbox:
    """The read ends of every channel into one process, with a queue's
    ``get``.

    Args:
        sockets: the second sockets of the channels into this process
            (into the coordinator and its resident processor, in the
            coordinator's), non-blocking.
        senders: this process's own write ends: each call flushes their
            backlogs, and a blocking call also wakes when one of them
            can take more.
    """

    def __init__(self, sockets: Iterable[socket.socket],
                 senders: Iterable[Sender]) -> None:
        self._sockets = {sock.fileno(): sock for sock in sockets}
        self._senders = list(senders)
        # Built at the first call, in the process that reads.
        self._poller: Optional[select.poll] = None
        self._writing: set = set()
        # Per read end, the records of a message still missing its LAST.
        self._frames: Dict[int, Optional[List[memoryview]]] = {}
        self._ready: Deque[object] = collections.deque()

    def stop_reading(self, sockets: Iterable[socket.socket]) -> None:
        """Read no more from these read ends, as a killed reader would
        not: what they hold is left to the next process that reads
        them, and a frame begun here is its torn tail.  Messages
        already read stay ready."""
        for sock in sockets:
            fd = sock.fileno()
            if self._sockets.pop(fd, None) is None:
                continue
            self._frames.pop(fd, None)
            if self._poller is not None:
                try:
                    self._poller.unregister(fd)
                except KeyError:
                    pass    # unregistered at end of file already

    def get(self, timeout: Optional[float] = None) -> object:
        """The next message read from any channel, waiting at most
        ``timeout`` seconds (``None``: for ever).

        Raises:
            queue.Empty: nothing arrived in time.
        """
        if not self._ready:
            self._wait(timeout)
        return pickle.loads(self._ready.popleft())

    def _wait(self, timeout: Optional[float]) -> None:
        poller = self._poller
        if poller is None:
            poller = self._poller = select.poll()
            for fd in self._sockets:
                poller.register(fd, select.POLLIN)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._flush(poller)
            wait_ms = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()) * 1000.0)
            for fd, _ in poller.poll(wait_ms):
                if fd in self._sockets:
                    self._read(fd)
            if self._ready:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise queue.Empty

    def _flush(self, poller: select.poll) -> None:
        """Flush every backlog; poll for writability exactly the write
        ends still holding one."""
        writing = self._writing
        for sender in self._senders:
            if sender.backlogged and not sender.flush():
                if sender.fileno() not in writing:
                    writing.add(sender.fileno())
                    poller.register(sender.fileno(), select.POLLOUT)
            elif writing and sender.fileno() in writing:
                writing.discard(sender.fileno())
                poller.unregister(sender.fileno())

    def _read(self, fd: int) -> None:
        """Take records off the read end ``fd`` until one completes a
        message or none is left, dropping torn frames.  One message per
        ready channel per poll: a further read would mostly find the
        socket empty, and a failed read costs more than a poll."""
        recv = self._sockets[fd].recv
        frame = self._frames.get(fd)
        while True:
            try:
                record = recv(RECORD_BYTES)
            except BlockingIOError:
                break
            if not record:
                # Every write end is closed: nothing more can come.
                self._poller.unregister(fd)
                break
            flags = record[0]
            if flags == _FIRST | _LAST:
                frame = None
                self._ready.append(memoryview(record)[1:])
                break
            if flags & _FIRST:
                # A frame still open here was torn by a killed writer.
                frame = []
            elif frame is None:
                # The tail of a frame a killed reader began.
                continue
            frame.append(memoryview(record)[1:])
            if flags & _LAST:
                self._ready.append(b"".join(frame))
                frame = None
                break
        self._frames[fd] = frame


class Channels:
    """Every channel of one run, and each process's view of them.

    Args:
        processors: the run's workers.
        coordinator: the key that stands for the coordinator.

    Raises:
        ConfigurationError: the ``2·n·(n+1)`` descriptors the channels
            need exceed the soft ``RLIMIT_NOFILE``, the process ran out
            of descriptors while creating them, or the platform has no
            ``AF_UNIX``/``SOCK_SEQPACKET`` sockets (Linux has them).
    """

    def __init__(self, processors: Iterable[ProcessorId],
                 coordinator: object) -> None:
        import resource  # POSIX only, as the fork the channels serve

        ends = [coordinator, *processors]
        n = len(ends) - 1
        needed = 2 * n * (n + 1)
        limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        shortage = (f"the mp executor needs {needed} file descriptors for "
                    f"the channels of {n} processors (2·n·(n+1)), and the "
                    f"soft RLIMIT_NOFILE is {limit}")
        if limit != resource.RLIM_INFINITY and needed > limit:
            raise ConfigurationError(
                f"{shortage}: run fewer processors or raise the limit")
        self._pairs: Dict[Tuple[object, object],
                          Tuple[socket.socket, socket.socket]] = {}
        try:
            for source in ends:
                for target in ends:
                    if source != target:
                        pair = socket.socketpair(socket.AF_UNIX,
                                                 socket.SOCK_SEQPACKET)
                        self._pairs[(source, target)] = pair
                        for sock in pair:
                            sock.setblocking(False)
        except OSError as error:
            self.close()
            if error.errno in (errno.EMFILE, errno.ENFILE):
                raise ConfigurationError(
                    f"{shortage}, of which the descriptors already open "
                    "left too few: run fewer processors or raise the "
                    "limit") from error
            if error.errno in (errno.EPROTONOSUPPORT, errno.EOPNOTSUPP,
                               errno.ESOCKTNOSUPPORT, errno.EAFNOSUPPORT):
                raise ConfigurationError(
                    "the mp executor's channels are AF_UNIX SOCK_SEQPACKET "
                    f"socket pairs, which this platform cannot make: {error}"
                ) from error
            raise

    def senders(self, source: object) -> Dict[object, Sender]:
        """A fresh :class:`Sender` on every channel out of ``source``."""
        return {target: Sender(pair[0])
                for (origin, target), pair in self._pairs.items()
                if origin == source}

    def read_ends(self, target: object,
                  sources: Optional[Iterable[object]] = None
                  ) -> List[socket.socket]:
        """The read ends of the channels into ``target``, or of those
        from ``sources`` only."""
        wanted = None if sources is None else set(sources)
        return [pair[1] for (origin, end), pair in self._pairs.items()
                if end == target and (wanted is None or origin in wanted)]

    def inbox(self, target: object, senders: Iterable[Sender]) -> Inbox:
        """A fresh :class:`Inbox` on every channel into ``target``."""
        return Inbox(self.read_ends(target), senders)

    def close(self) -> None:
        """Close both ends of every channel (this process's copies)."""
        for pair in self._pairs.values():
            for sock in pair:
                sock.close()
