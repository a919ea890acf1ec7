"""Splitting a vectors file's rows across forked workers never changes a
byte, and no worker or temporary file outlives the write.

The oracle is EmbeddingTable.save_text with the worker rule held to one
process.  The split ones force the rule to 2 or 3 processes, whatever the
machine's CPU count, by patching the CPU count and the fewest values
worth a process.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger import representation, workers
from rnntagger.cli import EXIT_RESOURCE
from rnntagger.corpus import Vocabulary
from rnntagger.pretrain import EmbedConfig, save_text, train_embeddings
from rnntagger.representation import EmbeddingTable
from rnntagger.workers import WorkerError

SRC_DIR = Path(__file__).parent.parent / "src"
DATA = Path(__file__).parent / "data"

MAX = np.finfo(np.float64).max
VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, 2.2250738585072014e-308,
          1e-05, -1e-05, 1e16, -1e16, MAX, -MAX, 0.1, 1 / 3]


def force_processes(mp, processes):
    """Hold the worker rule to `processes` processes; the list it returns
    gets one entry per fork the calling process makes."""
    mp.setattr(representation, "MIN_VALUES_PER_PROCESS", 1)
    mp.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(processes)))
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    mp.setattr(workers.os, "fork", counting)
    return forks


def table_of(matrix):
    words = ["w%d" % i for i in range(len(matrix) - 2)]
    return EmbeddingTable(Vocabulary.of(words), matrix.shape[1], matrix)


def written(table, path, processes):
    """The bytes table.save_text writes to path under the rule held to
    `processes`, and the number of forks it made."""
    with pytest.MonkeyPatch.context() as mp:
        forks = force_processes(mp, processes)
        table.save_text(str(path))
    return path.read_bytes(), len(forks)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_only(directory, *names):
    """No temporary file is left beside the output."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)


@st.composite
def tables(draw):
    rows = draw(st.integers(2, 9))
    dim = draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from(VALUES) | st.floats(allow_nan=False,
                                                               allow_infinity=False),
                           min_size=rows * dim, max_size=rows * dim))
    return table_of(np.array(values, dtype=np.float64).reshape(rows, dim))


@settings(max_examples=40, deadline=None)
@given(tables(), st.sampled_from([1, 2, 3]))
def test_split_matches_in_process(tmp_path_factory, table, processes):
    d = tmp_path_factory.mktemp("vec")
    expected, _ = written(table, d / "one.txt", 1)
    got, forks = written(table, d / "split.txt", processes)
    assert got == expected
    assert forks == min(processes, len(table.vocab)) - 1
    assert_only(d, "one.txt", "split.txt")
    assert_no_children()


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("objective", ["cbow", "skipgram", "cconcat"])
def test_recorded_vectors_files_keep_their_bytes_split(tmp_path, monkeypatch, objective,
                                                       processes):
    golden = json.loads((DATA / "embed_golden.json").read_text())
    model = train_embeddings(str(DATA / "embed_corpus.txt"), objective,
                             EmbedConfig(**golden["config"]))
    forks = force_processes(monkeypatch, processes)
    out = tmp_path / "vecs.txt"
    save_text(model, str(out))
    assert len(forks) == processes - 1
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == golden["objectives"][objective]["vectors_sha256"])
    assert_only(tmp_path, "vecs.txt")
    assert_no_children()


def test_worker_rule(monkeypatch):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert workers.process_count() == 4
    assert workers.process_count(24, 3) == 3
    assert workers.process_count(0) == 1
    least = representation.MIN_VALUES_PER_PROCESS
    assert len(representation._row_ranges(1891, 50)) == min(4, 1891 * 50 // least)
    assert len(representation._row_ranges(2 * least, 1)) == 2
    assert len(representation._row_ranges(2, least)) == 2
    assert len(representation._row_ranges(3, least)) == 3
    assert len(representation._row_ranges(1, 2 * least)) == 1
    assert len(representation._row_ranges(2 * least - 1, 1)) == 1
    ranges = representation._row_ranges(10 * least + 3, 1)
    assert [(r.start, r.stop) for r in ranges] == [
        (k * (10 * least + 3) // 4, (k + 1) * (10 * least + 3) // 4) for k in range(4)]
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
    assert len(representation._row_ranges(1891, 50)) == 1


def test_benchmark_table_gets_two_processes(monkeypatch):
    # perfbench's embed table at seed 1: 1891 rows of 50 values
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    assert len(representation._row_ranges(1891, 50)) == 2


# ------------------------------------- no worker or temporary file outlives the write

def big_table():
    return table_of(np.random.default_rng(7).normal(size=(30, 3)))


def in_worker_only(monkeypatch, act):
    """_write_rows, with act() run first in a worker."""
    write_rows = representation._write_rows
    caller = os.getpid()

    def patched(*args):
        if os.getpid() != caller:
            act()
        return write_rows(*args)

    monkeypatch.setattr(representation, "_write_rows", patched)


def test_a_successful_write_leaves_nothing_behind(tmp_path):
    table = big_table()
    expected, _ = written(table, tmp_path / "one.txt", 1)
    got, forks = written(table, tmp_path / "split.txt", 3)
    assert got == expected
    assert forks == 2
    assert_only(tmp_path, "one.txt", "split.txt")
    assert_no_children()


def test_a_worker_that_raises_leaves_the_caller_to_write_its_rows(tmp_path, monkeypatch):
    table = big_table()
    expected, _ = written(table, tmp_path / "one.txt", 1)

    def fail():
        raise MemoryError

    in_worker_only(monkeypatch, fail)
    got, forks = written(table, tmp_path / "split.txt", 3)
    assert got == expected
    assert forks == 2
    assert_only(tmp_path, "one.txt", "split.txt")
    assert_no_children()


@pytest.mark.parametrize("refused", ["fork", "file"])
def test_a_refused_fork_or_file_leaves_the_caller_to_write_its_rows(tmp_path, monkeypatch,
                                                                     refused):
    table = big_table()
    expected, _ = written(table, tmp_path / "one.txt", 1)

    def refuse(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    forks = force_processes(monkeypatch, 3)
    if refused == "fork":
        monkeypatch.setattr(workers.os, "fork", refuse)
    else:
        monkeypatch.setattr(workers.tempfile, "TemporaryFile", refuse)
    table.save_text(str(tmp_path / "split.txt"))
    assert (tmp_path / "split.txt").read_bytes() == expected
    assert forks == []
    assert_only(tmp_path, "one.txt", "split.txt")
    assert_no_children()


def test_a_killed_worker_is_an_error_naming_its_rows_and_the_file(tmp_path, monkeypatch):
    out = tmp_path / "split.txt"
    force_processes(monkeypatch, 3)
    in_worker_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(WorkerError, match="^the worker writing rows 11-20 of %s was killed "
                                          "by signal 9 without writing them$" % out):
        big_table().save_text(str(out))
    assert_only(tmp_path)
    assert_no_children()


def test_a_non_finite_row_is_refused_before_the_file_and_any_fork(tmp_path, monkeypatch):
    matrix = np.random.default_rng(7).normal(size=(30, 3))
    matrix[17, 1] = np.inf
    table = table_of(matrix)
    forks = force_processes(monkeypatch, 3)
    with pytest.raises(FloatingPointError, match="^the row for 'w15' holds a non-finite "
                                                 "value$"):
        table.save_text(str(tmp_path / "v.txt"))
    assert forks == []
    assert_only(tmp_path)


SCRIPT = """
import atexit, os, signal, sys
from rnntagger import representation
from rnntagger.cli import main

representation.MIN_VALUES_PER_PROCESS = 1
os.sched_getaffinity = lambda pid: {0, 1}
write_rows = representation._write_rows
caller = os.getpid()

def patched(*args):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return write_rows(*args)

representation._write_rows = patched
atexit.register(lambda: print("atexit ran"))
sys.exit(main(sys.argv[1:]))
"""


def test_embed_command_with_a_killed_worker_writes_nothing(tmp_path):
    (tmp_path / "raw.txt").write_text("a b c a b d e\nb c a d\n" * 5)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, "embed", "raw.txt", "--dim", "4",
                           "--window", "2", "--subsample", "1", "--out", "v.txt"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    # PAD, UNK and a-e: the worker writes the second half of the 7 rows
    assert proc.stderr == ("resource error: embed: the worker writing rows 4-7 of v.txt was "
                           "killed by signal 9 without writing them\n")
    assert_only(tmp_path, "raw.txt")
    assert proc.stdout.count("# effective config") == 1
    assert proc.stdout.count("atexit ran") == 1
