"""The census worker set: one pipe per worker, driven from the calling thread."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from domicert import census, emit_graph6
from domicert._workers import IN_FLIGHT, Workers
from domicert.errors import CapabilityError, InvariantViolation


def square(x: int) -> int:
    return x * x


def fail(exc_type, message: str):
    raise exc_type(message)


def nap(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


@pytest.fixture
def workers():
    pool = Workers(2)
    yield pool
    pool.terminate()
    pool.join()


@pytest.mark.parametrize("chunksize", [1, 3, 64])
def test_imap_results_in_order(workers, chunksize):
    # early items take longest, so later chunks finish first
    items = [0.02 if i < 4 else 0 for i in range(100)]
    assert list(workers.imap(nap, items, chunksize)) == items
    assert list(workers.imap(square, range(100), chunksize)) == [i * i for i in range(100)]


def test_imap_of_nothing(workers):
    assert list(workers.imap(square, [], 3)) == []


def test_results_outlast_the_queue(workers):
    # more tasks than fit in flight: the rest are sent while results are
    # read, and close finishes every task still queued
    results = [workers.apply_async(square, (i,)) for i in range(20)]
    assert results[-1].get() == 19 * 19
    results += [workers.apply_async(square, (i,)) for i in range(20, 40)]
    workers.close()
    workers.join()
    assert multiprocessing.active_children() == []
    assert [result.get() for result in results] == [i * i for i in range(40)]


@pytest.mark.parametrize("exc_type", [ValueError, InvariantViolation])
def test_task_exception_is_raised_in_the_parent(workers, exc_type):
    with pytest.raises(exc_type, match="^bad graph$") as raised:
        workers.apply_async(fail, (exc_type, "bad graph")).get()
    assert type(raised.value) is exc_type
    with pytest.raises(exc_type, match="^bad chunk$"):
        list(workers.imap(partial(fail, exc_type), ["bad chunk"], 1))
    # the workers carry on
    assert workers.apply_async(square, (7,)).get() == 49


def test_terminate_with_tasks_in_flight_leaves_no_child(workers):
    started = time.monotonic()
    for _ in range(3 * IN_FLIGHT):
        workers.apply_async(nap, (30,))
    workers.terminate()
    workers.join()
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 10


def test_dead_worker_raises_capability_error(workers):
    with pytest.raises(CapabilityError, match=r"^census worker [12] of 2 \(pid \d+\) exited with code 7$"):
        workers.apply_async(os._exit, (7,)).get()
    assert multiprocessing.active_children() == []


def test_send_to_dead_worker_raises_capability_error():
    # the pipe of a worker that has exited breaks on the next send
    workers = Workers(1)
    try:
        workers.apply_async(os._exit, (5,))
        for process in multiprocessing.active_children():
            process.join(timeout=10)
        with pytest.raises(CapabilityError, match=r"^census worker 1 of 1 \(pid \d+\) exited with code 5$"):
            workers.apply_async(square, (2,))
    finally:
        workers.terminate()
        workers.join()


def test_level_pass_through_census_pool():
    # the census's own pool codes each level: the stream is the serial one,
    # in discovery order, and level 8 keeps its pinned order
    pool = census.Pool(2)
    try:
        pooled = list(census._connected_classes(8, partial(pool.imap, chunksize=census.CHUNK_SIZE)))
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    assert pooled == list(census._connected_classes(8))
    digest = hashlib.sha256()
    for _, g in sorted(found for found in pooled if found[1].n == 8):
        digest.update((emit_graph6(g) + "\n").encode())
    assert digest.hexdigest() == "35b9545372565c4c3b61aabdc7d9bd2af870bc8f03c7e4b113526dc81509e897"


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
