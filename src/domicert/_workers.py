"""Census workers: one process per worker, each on its own duplex pipe,
driven from the calling thread.

The calling thread sends the tasks and reads the results itself, with no
handler threads, shared queue or locks: each worker has at most
``IN_FLIGHT`` tasks sent and not yet answered, and the others wait in a
FIFO that is fed whenever the caller waits on a result. A worker whose
pipe breaks (it exited, or was killed, with a task in flight) stops the
whole set and raises CapabilityError, where ``multiprocessing.Pool``
would wait for that task forever.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from multiprocessing.connection import wait

from .errors import CapabilityError

# tasks sent to one worker and not yet answered: the one it runs and the
# one waiting in its pipe. Sends do not block as long as a waiting task
# fits in the pipe's buffer, as a census batch of small graphs does
IN_FLIGHT = 2


class Workers:
    """Worker processes with the part of the ``multiprocessing.Pool`` interface
    that the census uses: ``imap``, ``apply_async``, ``close``, ``terminate``
    and ``join``."""

    def __init__(self, processes: int):
        self._queue = deque()  # (result, func, args) of the tasks not yet sent
        self._workers = []  # (process, connection, results in flight) per worker
        try:
            for _ in range(processes):
                conn, child = multiprocessing.Pipe()
                parent_ends = [conn, *(end for _, end, _ in self._workers)]
                with child:
                    process = multiprocessing.Process(target=_serve, args=(child, parent_ends), daemon=True)
                    process.start()
                self._workers.append((process, conn, deque()))
        except BaseException:
            self.terminate()
            self.join()
            raise

    def apply_async(self, func, args):
        result = _Result(self)
        self._queue.append((result, func, args))
        self._feed()
        return result

    def imap(self, func, iterable, chunksize):
        # every chunk is queued now; its results are read, in order, as they
        # are used, and dropped once yielded
        items = list(iterable)
        chunks = deque(self.apply_async(_run_chunk, (func, items[i:i + chunksize]))
                       for i in range(0, len(items), chunksize))

        def results():
            while chunks:
                yield from chunks.popleft().get()

        return results()

    def close(self):
        # finish every task sent or queued, then let the workers exit
        while self._queue or any(sent for _, _, sent in self._workers):
            self._receive()
        for process, conn, _ in self._workers:
            self._send(process, conn, None)

    def terminate(self):
        self._queue.clear()
        for process, _, _ in self._workers:
            process.terminate()

    def join(self):
        for process, conn, _ in self._workers:
            process.join()
            conn.close()

    def _feed(self):
        # the oldest queued tasks go to the workers with the fewest in flight
        while self._queue:
            process, conn, sent = min(self._workers, key=lambda worker: len(worker[2]))
            if len(sent) == IN_FLIGHT:
                return
            result, func, args = self._queue.popleft()
            self._send(process, conn, (func, args))
            sent.append(result)

    def _receive(self):
        # read each result that is ready, then refill the workers
        busy = {conn: (process, sent) for process, conn, sent in self._workers if sent}
        for conn in wait(busy):
            process, sent = busy[conn]
            try:
                outcome = conn.recv()
            except (EOFError, OSError):
                self._lost(process)
            sent.popleft().outcome = outcome
        self._feed()

    def _send(self, process, conn, message):
        try:
            conn.send(message)
        except OSError:  # BrokenPipeError or ConnectionResetError
            self._lost(process)

    def _lost(self, process):
        # a broken pipe: no result in flight on it will come back
        self.terminate()
        self.join()
        index = next(i for i, worker in enumerate(self._workers, 1) if worker[0] is process)
        raise CapabilityError(f"census worker {index} of {len(self._workers)} (pid {process.pid}) "
                              f"exited with code {process.exitcode}") from None


class _Result:
    __slots__ = ("workers", "outcome")

    def __init__(self, workers: Workers):
        self.workers, self.outcome = workers, None

    def get(self):
        while self.outcome is None:
            self.workers._receive()
        done, value = self.outcome
        if done:
            return value
        raise value


def _serve(conn, parent_ends):
    # a worker: run each task in the order sent, until the parent sends
    # None or goes away, and send back (True, result) or (False, exception).
    # A forked worker closes its copies of the parent's ends, so that it
    # sees end of file when the parent dies, even one killed outright
    for end in parent_ends:
        end.close()
    try:
        while (task := conn.recv()) is not None:
            func, args = task
            try:
                outcome = True, func(*args)
            except Exception as exc:
                outcome = False, exc
            conn.send(outcome)
    except (EOFError, OSError):
        pass


def _run_chunk(func, items):
    return [func(item) for item in items]
