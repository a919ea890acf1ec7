"""Running a job's parts in forked worker processes.

A job is split into parts whose bytes do not depend on which process
makes them.  The calling process makes the first part and a forked worker
each other one; every part's bytes end up in one sink, in part order.
"""

import os
import shutil
import signal
import sys
import tempfile
import threading


class WorkerError(RuntimeError):
    """A worker process that ended without its result: killed, say by the
    kernel when memory ran out."""


def process_count(*limits):
    """How many processes share a job: one per CPU this process may run on
    (taskset limits them), but no more than any of limits, and at least
    one.  One on a platform other than Linux (numpy's macOS BLAS is not
    fork-safe) and beside other Python threads (a fork copies only the
    calling one, and a lock another one holds stays held in the child)."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min([len(os.sched_getaffinity(0)), *limits]))


def run_parts(parts, work, sink, lost, tmpdir=None):
    """Write every part's bytes to sink, a binary file, in part order:
    work(part, fh) writes one part's bytes to fh.

    The caller runs work(parts[0], sink) itself, after forking a worker
    for each other part.  A worker runs work onto an unnamed temporary
    file (in tmpdir, when given) opened in binary mode before the fork,
    then ends by os._exit, so it runs no exit handler and flushes no
    buffer of the caller's.  The caller takes the workers up in part
    order, appending each one's rewound file to sink.  It runs work onto
    sink itself for a part whose temporary file or fork the system
    refuses, and for a part whose work raised in its worker.  A worker
    that ends any other way is a WorkerError whose message is
    lost(part, how), how saying how the worker ended ("was killed by
    signal 9").  When the caller raises, it kills and reaps every worker
    it has not reaped, so no worker outlives the call, and no temporary
    file does either.
    """
    live = {}       # pid: temporary file, of each worker not yet reaped
    started = []    # (part, pid or None), of parts[1:]
    try:
        for part in parts[1:]:
            pid, fh = _start(work, part, tmpdir)
            if pid is not None:
                live[pid] = fh
            started.append((part, pid))
        work(parts[0], sink)
        for part, pid in started:
            if pid is not None:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                with live.pop(pid) as fh:
                    if code == 0:
                        fh.seek(0)
                        shutil.copyfileobj(fh, sink)
                        continue
                    if code != 1:
                        how = ("was killed by signal %d" % -code if code < 0
                               else "exited with status %d" % code)
                        raise WorkerError(lost(part, how))
            work(part, sink)
    finally:
        # only when the call is ending with an exception
        for pid, fh in live.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _start(work, part, tmpdir):
    """(pid, temporary file) of a worker forked to do part, or (None, None)
    when the system refuses the file or the fork."""
    try:
        fh = tempfile.TemporaryFile(dir=tmpdir)
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        fh.close()
        return None, None
    if pid == 0:
        _work(work, part, fh)
    return pid, fh


def _work(work, part, fh):
    """A forked worker: work(part, fh), then os._exit with status 0 when it
    returned and 1 when it raised.  os._exit runs no atexit handler,
    flushes no stdio buffer and never returns into the caller's stack."""
    code = 1
    try:
        work(part, fh)
        fh.flush()
        code = 0
    finally:
        os._exit(code)
