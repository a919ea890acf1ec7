"""workers.run_parts writes every part's bytes to its sink in part order,
whichever process makes them, and no worker outlives the call."""

import io
import os
import signal

import pytest

from rnntagger import workers
from rnntagger.workers import WorkerError


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lost(part, how):
    return "part %d %s" % (part, how)


def test_every_outcome_in_one_call_fills_the_sink_in_part_order(monkeypatch):
    # part 1's fork is refused and part 3's worker raises: the caller makes
    # both, and parts 2 and 4 come from their workers' files
    caller = os.getpid()
    fork = os.fork
    forks = []

    def some_refused():
        forks.append(os.getpid())
        if len(forks) == 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    made = []

    def work(part, fh):
        if os.getpid() != caller and part == 3:
            raise ValueError("worker only")
        if os.getpid() == caller:
            made.append(part)
        fh.write(b"part %d\n" % part)

    monkeypatch.setattr(os, "fork", some_refused)
    sink = io.BytesIO()
    workers.run_parts(list(range(5)), work, sink, lost)
    assert sink.getvalue() == b"".join(b"part %d\n" % k for k in range(5))
    assert len(forks) == 4
    assert made == [0, 1, 3]
    assert_no_children()


def test_a_killed_worker_is_a_worker_error_made_by_lost():
    caller = os.getpid()

    def work(part, fh):
        if os.getpid() != caller and part == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        fh.write(b"part %d\n" % part)

    with pytest.raises(WorkerError, match="^part 2 was killed by signal 9$"):
        workers.run_parts(list(range(4)), work, io.BytesIO(), lost)
    assert_no_children()
