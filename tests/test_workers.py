"""The census worker set: one pipe per worker, driven from the calling thread."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import deque
from functools import partial
from itertools import islice
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest

from domicert import census, emit_graph6
from domicert._workers import IN_FLIGHT, Workers
from domicert.census import CHECK_NAMES, CHUNK_SIZE, STANDARD_CHECKS, CensusConfig, run_census
from domicert.errors import CapabilityError, InvariantViolation

# a deadlocked worker set hangs instead of failing, so each test here is
# failed once it has run this long
WATCHDOG_SECONDS = 60


@pytest.fixture(autouse=True)
def watchdog(request):
    if not hasattr(signal, "SIGALRM"):
        yield  # POSIX only: elsewhere the tests run without it
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {WATCHDOG_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def square(x: int) -> int:
    return x * x


def fail(exc_type, message: str):
    raise exc_type(message)


def checked_square(exc_type, x: int) -> int:
    if x < 0:
        raise exc_type(f"bad item {x}")
    return x * x


def nap(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


@pytest.fixture
def workers():
    pool = Workers(2)
    yield pool
    pool._stop()  # whatever the test left running


class InFlight:
    """The tasks sent to each worker and not yet answered, as counted through
    ``Workers._send`` and ``Workers._receive``.

    ``sends`` holds, at each task sent, the functions of every worker's
    unanswered tasks, the new one included.
    """

    def __init__(self, monkeypatch):
        self.tasks = {}  # connection -> functions of its unanswered tasks, oldest first
        self.sends = []
        send, receive = Workers._send, Workers._receive

        def recording_send(pool, worker, message):
            send(pool, worker, message)
            if message is not None:
                self.tasks.setdefault(worker[1], deque()).append(message[0])
                self.sends.append([list(tasks) for tasks in self.tasks.values()])

        def recording_receive(pool):
            before = {conn: len(sent) for _, conn, sent in pool._workers}
            receive(pool)
            for _, conn, sent in pool._workers:
                for _ in range(before[conn] - len(sent)):
                    self.tasks[conn].popleft()

        monkeypatch.setattr(Workers, "_send", recording_send)
        monkeypatch.setattr(Workers, "_receive", recording_receive)

    def peak(self, counted=lambda func: True) -> tuple[int, int]:
        # the most unanswered tasks whose function is counted, on any one
        # worker and on all of them together
        counts = [[sum(map(counted, tasks)) for tasks in sent] for sent in self.sends]
        return max(map(max, counts)), max(map(sum, counts))


@pytest.mark.parametrize("slow", [1, 3, 64])
def test_imap_results_in_order(workers, slow):
    # map is lazy and ordered, like multiprocessing's imap. The first `slow`
    # items take longest, so later ones finish first
    items = [0.02 if i < slow else 0 for i in range(100)]
    assert list(workers.map(nap, items)) == items
    assert list(workers.map(square, range(100))) == [i * i for i in range(100)]


def test_map_of_nothing(workers):
    assert list(workers.map(square, [])) == []


def test_map_reads_lazily(workers):
    # no item is read before a worker has room for it: once the first
    # result is taken, each worker holds at most IN_FLIGHT tasks and one
    # more may have been read as the first result came back. The next
    # IN_FLIGHT * 2 - 1 items nap, so that the first result comes back first
    read = []

    def items():
        for i in range(10_000):
            read.append(i)
            yield 0.05 if 0 < i < 2 * IN_FLIGHT else 0

    results = workers.map(nap, items())
    assert next(results) == 0
    assert len(read) <= 2 * IN_FLIGHT + 1
    assert sum(1 for _ in results) == 10_000 - 1


def test_nested_maps_share_the_workers(workers, monkeypatch):
    # a map reading its items from another map over the same workers: each
    # map's results are read in whichever map waits, so neither waits on
    # the other, and the outer map reads only while a worker has room, so
    # its send after the read puts at most one task over IN_FLIGHT
    in_flight = InFlight(monkeypatch)
    assert list(workers.map(square, workers.map(square, range(200)))) == [i ** 4 for i in range(200)]
    assert in_flight.peak()[0] <= IN_FLIGHT + 1


def test_results_outlast_the_queue():
    # more tasks than fit in flight: each is sent as room comes free, and a
    # map left half read keeps its tasks in flight while another map runs
    with Workers(2) as pool:
        first = pool.map(square, range(40))
        assert list(islice(first, 20)) == [i * i for i in range(20)]
        assert list(pool.map(square, range(5))) == [i * i for i in range(5)]
        assert list(first) == [i * i for i in range(20, 40)]
    assert multiprocessing.active_children() == []


def test_leaving_the_block_with_results_in_flight_finishes_them():
    started = time.monotonic()
    with Workers(2) as pool:
        naps = pool.map(nap, [0.2] * 3)
        assert next(naps) == 0.2
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 10


@pytest.mark.parametrize("exc_type", [ValueError, InvariantViolation])
def test_task_exception_is_raised_in_the_parent(workers, exc_type):
    with pytest.raises(exc_type, match="^bad graph$") as raised:
        list(workers.map(partial(fail, exc_type), ["bad graph"]))
    assert type(raised.value) is exc_type
    # in place of its result: the results before it come back first
    results = workers.map(partial(checked_square, exc_type), [1, 2, -3, 4])
    assert [next(results), next(results)] == [1, 4]
    with pytest.raises(exc_type, match="^bad item -3$"):
        next(results)
    # the workers carry on
    assert list(workers.map(square, [7])) == [49]


def test_terminate_with_tasks_in_flight_leaves_no_child():
    # leaving the block on an exception terminates the workers at once,
    # with their tasks in flight
    def naps():
        yield from [30] * (2 * IN_FLIGHT - 1)
        raise RuntimeError("stop")

    started = time.monotonic()
    with pytest.raises(RuntimeError, match="^stop$"):
        with Workers(2) as pool:
            list(pool.map(nap, naps()))
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 10


def test_dead_worker_raises_capability_error():
    with pytest.raises(CapabilityError, match=r"^census worker [12] of 2 \(pid \d+\) exited with code 7$"):
        with Workers(2) as pool:
            list(pool.map(os._exit, [7]))
    assert multiprocessing.active_children() == []


def test_send_to_dead_worker_raises_capability_error():
    # the pipe of a worker that has exited breaks on the next send
    def codes():
        yield 5
        for process in multiprocessing.active_children():
            process.join(timeout=10)
        yield 6

    with pytest.raises(CapabilityError, match=r"^census worker 1 of 1 \(pid \d+\) exited with code 5$"):
        with Workers(1) as pool:
            list(pool.map(os._exit, codes()))
    assert multiprocessing.active_children() == []


def test_level_pass_through_census_pool():
    # the census's own pool codes each level: the stream is the serial one,
    # in discovery order, and level 8 keeps its pinned order
    with census.Pool(2) as pool:
        pooled = list(census._connected_classes(8, pool.map, 2))
    assert pooled == list(census._connected_classes(8))
    digest = hashlib.sha256()
    for _, g in sorted(found for found in pooled if found[1].n == 8):
        digest.update((emit_graph6(g) + "\n").encode())
    assert digest.hexdigest() == "35b9545372565c4c3b61aabdc7d9bd2af870bc8f03c7e4b113526dc81509e897"


@pytest.mark.parametrize("family, n_min, n_max, checks", [
    ("trees", 2, 12, STANDARD_CHECKS),
    ("connected_graphs", 7, 7, CHECK_NAMES),
])
def test_census_keeps_two_check_batches_per_worker_in_flight(monkeypatch, family, n_min, n_max, checks):
    # the check batches fill every worker's IN_FLIGHT places, no more; the
    # coding a connected census draws them from may put one task over
    # IN_FLIGHT on a worker
    in_flight = InFlight(monkeypatch)
    cfg = dict(family=family, n_min=n_min, n_max=n_max, checks=checks)
    pooled = run_census(CensusConfig(**cfg, worker_count=3))
    per_worker, total = in_flight.peak(lambda func: func is not census._chunk_codes)
    assert total <= IN_FLIGHT * 3
    if family == "trees":
        assert (per_worker, total) == (IN_FLIGHT, IN_FLIGHT * 3)
        assert in_flight.peak()[0] == IN_FLIGHT
    else:
        assert in_flight.peak()[0] <= IN_FLIGHT + 1
    assert pooled.to_json() == run_census(CensusConfig(**cfg)).to_json()


def test_largest_census_tasks_fit_the_pipe_buffer():
    # the waiting tasks of a full worker must fit in its pipe's buffer for
    # sends not to block. The largest the census sends, of CHUNK_SIZE
    # graphs each: a coding chunk of the densest n=8 classes, a check batch
    # of their children on 9 vertices with the newcomer joined to all, and
    # a check batch of trees at n=20
    eights = [g for _, g in census._connected_classes(8) if g.n == 8]
    parents = sorted(eights, key=lambda g: g.edge_count)[-CHUNK_SIZE:]
    nines = [census._attach(g, (1 << 8) - 1) for g in parents]
    trees = list(islice(census.generate_trees(20), CHUNK_SIZE))
    task = partial(census._census_batch, checks=CHECK_NAMES, budget=census.DEFAULT_BUDGET)
    for message in [(census._chunk_codes, parents), (task, nines), (task, trees)]:
        assert len(ForkingPickler.dumps(message)) <= 16 * 1024


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_workers_exit_when_the_parent_is_killed():
    # a parent killed outright, as one the kernel kills for memory: each
    # worker sees end of file on its pipe and exits
    script = ("import os, signal\n"
              "from domicert._workers import Workers\n"
              "Workers(3)\n"
              "os.kill(os.getpid(), signal.SIGKILL)\n")
    src = str(Path(census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True)
    try:
        assert proc.wait(timeout=30) == -signal.SIGKILL
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
