"""Census workers: one process per worker, each on its own duplex pipe,
driven from the calling thread, with no handler threads, queue or locks.

``Workers.map`` is the builtin ``map`` run on the workers: lazy, in order,
raising a task's exception in place of its result. A map reads an item
only while some worker has fewer than ``IN_FLIGHT`` tasks unanswered, or
while it has none of its own in flight, so that it always has a task of
its own to wait on; its items may come from another map over the same
workers, as whichever map waits reads the results of both. Leaving the
``with`` block reads the results in flight and lets the workers exit, or,
on an exception, terminates them. A worker whose pipe breaks (it exited,
or was killed, with a task in flight) stops the whole set and raises
CapabilityError, where ``multiprocessing.Pool`` would wait forever.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from multiprocessing.connection import wait

from .errors import CapabilityError

# tasks sent to one worker and not yet answered: the one it runs and the
# one waiting in its pipe. A map sends the item it has read even when the
# read ran another map that filled the workers, so in the census a worker
# can hold IN_FLIGHT + 1. Sends do not block as long as the waiting tasks
# fit in the pipe's buffer, as census tasks, each at most 16 KB pickled, do
IN_FLIGHT = 2

_END = object()  # what ``next`` returns on a map's exhausted items


class Workers:
    """Worker processes with a lazy, ordered ``map``, used as a ``with`` block."""

    def __init__(self, processes: int):
        self._workers = []  # (process, connection, result slots in flight) per worker
        try:
            for _ in range(processes):
                conn, child = multiprocessing.Pipe()
                parent_ends = [conn, *(end for _, end, _ in self._workers)]
                with child:
                    process = multiprocessing.Process(target=_serve, args=(child, parent_ends), daemon=True)
                    process.start()
                self._workers.append((process, conn, deque()))
        except BaseException:
            self._stop()
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        if exc_type is None:
            # finish every task in flight, then let the workers exit
            while any(sent for _, _, sent in self._workers):
                self._receive()
            for worker in self._workers:
                self._send(worker, None)
        self._stop(terminate=exc_type is not None)

    def map(self, func, iterable):
        items = iter(iterable)
        mine = deque()  # the result slots of this map's tasks in flight, in the order sent
        while True:
            if mine and mine[0]:
                done, value = mine.popleft()[0]
                if not done:
                    raise value
                yield value
                continue
            while not mine or any(len(sent) < IN_FLIGHT for _, _, sent in self._workers):
                item = next(items, _END)
                if item is _END:
                    break
                # picked after the read, which may have run another map on these workers
                worker = min(self._workers, key=lambda worker: len(worker[2]))
                slot = []
                worker[2].append(slot)
                mine.append(slot)
                self._send(worker, (func, item))
            if not mine:
                return
            self._receive()

    def _receive(self):
        # each result that is ready, into the oldest slot of its worker
        busy = {conn: (process, sent) for process, conn, sent in self._workers if sent}
        for conn in wait(busy):
            process, sent = busy[conn]
            try:
                outcome = conn.recv()
            except (EOFError, OSError):
                self._lost(process)
            sent.popleft().append(outcome)

    def _send(self, worker, message):
        process, conn, _ = worker
        try:
            conn.send(message)
        except OSError:  # BrokenPipeError or ConnectionResetError
            self._lost(process)

    def _lost(self, process):
        # a broken pipe: no result in flight on it will come back
        self._stop()
        index = next(i for i, worker in enumerate(self._workers, 1) if worker[0] is process)
        raise CapabilityError(f"census worker {index} of {len(self._workers)} (pid {process.pid}) "
                              f"exited with code {process.exitcode}") from None

    def _stop(self, terminate=True):
        for process, conn, _ in self._workers:
            if terminate:
                process.terminate()
            process.join()
            conn.close()


def _serve(conn, parent_ends):
    # a worker: run each task in the order sent, until the parent sends
    # None or goes away, and send back (True, result) or (False, exception).
    # A forked worker closes its copies of the parent's ends, so that it
    # sees end of file when the parent dies, even one killed outright
    for end in parent_ends:
        end.close()
    try:
        while (task := conn.recv()) is not None:
            func, item = task
            try:
                outcome = True, func(item)
            except Exception as exc:
                outcome = False, exc
            conn.send(outcome)
    except (EOFError, OSError):
        pass
