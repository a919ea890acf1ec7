"""Splitting tag_corpus's documents across forked workers never changes a
result, and no worker outlives the call.

The oracle is tag_corpus with the worker rule held to one process.  The
split ones force the rule to 2 or 3 processes, whatever the machine's CPU
count, by patching the CPU count and the fewest tokens worth a process.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger import model as tagger
from rnntagger import training
from rnntagger.cli import EXIT_RESOURCE
from rnntagger.corpus import UNK_INDEX, Token, documents, load_conll, write_conll
from rnntagger.model import tag_corpus, tag_in_process
from rnntagger.serialize import load_model, save_model
from rnntagger.workers import WorkerError
from test_batching import SPECS, corpus, make_model

SRC_DIR = Path(__file__).parent.parent / "src"


def force_processes(mp, processes):
    """Hold the worker rule to `processes` processes; the list it returns
    gets one entry per fork the calling process makes."""
    mp.setattr(tagger, "MIN_TOKENS_PER_PROCESS", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    mp.setattr(os, "fork", counting)
    return forks


def outcome(model, sents):
    """The tags, or the message of the FloatingPointError raised instead."""
    try:
        return tag_corpus(model, sents)
    except FloatingPointError as e:
        return "FloatingPointError: %s" % e


def in_process(model, sents):
    with pytest.MonkeyPatch.context() as mp:
        forks = force_processes(mp, 1)
        result = outcome(model, sents)
    assert forks == []
    return result


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def poison(model, sents, at):
    """A NaN input row for the out-of-vocabulary word put at `at`, a
    (sentence, position) pair, so that sentence alone has non-finite
    distributions."""
    model.table.matrix[UNK_INDEX] = np.nan
    k, p = at
    sents[k].tokens[p] = Token("zzz")


docs_strategy = st.lists(
    st.tuples(st.sampled_from("abc"), st.lists(st.integers(1, 12), min_size=1, max_size=4)),
    min_size=2, max_size=6)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(map(str, s)))
@settings(max_examples=12, deadline=None)
@given(st.booleans(), docs_strategy, st.integers(0, 2**16), st.sampled_from([2, 3]),
       st.none() | st.tuples(st.integers(0, 99), st.integers(0, 99)))
def test_split_matches_in_process(spec, cache, docs, seed, processes, bad):
    model = make_model(*spec, cache, seed)
    sents = corpus(docs)
    if bad is not None:
        k = bad[0] % len(sents)
        poison(model, sents, (k, bad[1] % len(sents[k])))
    expected = in_process(model, sents)
    with pytest.MonkeyPatch.context() as mp:
        forks = force_processes(mp, processes)
        assert outcome(model, sents) == expected
    assert len(forks) == min(processes, len(documents(sents))) - 1
    assert_no_children()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(map(str, s)))
def test_earliest_non_finite_distribution_is_named_across_processes(spec, monkeypatch):
    # a worker's document fails in round 1, the caller's in round 2: the
    # worker's is the one the in-process loop meets first
    sents = corpus([("a", [6, 6, 6]), ("b", [5, 5]), ("c", [4, 4])])
    model = make_model(*spec, cache=True, seed=3)
    poison(model, sents, (1, 2))     # document a, sentence 2
    poison(model, sents, (5, 0))     # document c, sentence 1
    expected = in_process(model, sents)
    assert expected.startswith("FloatingPointError: document 3, sentence 1, position ")
    forks = force_processes(monkeypatch, 2)
    docs = list(enumerate(documents(sents)))
    assert 2 in [d for d, _ in tagger._groups(sents, docs)[1]]
    assert outcome(model, sents) == expected
    assert len(forks) == 1
    assert_no_children()


def test_groups_balance_tokens_and_keep_corpus_order(monkeypatch):
    force_processes(monkeypatch, 3)
    sents = corpus([("a", [9]), ("b", [2, 2]), ("c", [8]), ("a", [3, 3]), ("b", [7])])
    groups = tagger._groups(sents, list(enumerate(documents(sents))))
    # 9, 8 and 7 tokens start the groups; 6 and then 4 join the lightest
    assert [[d for d, _ in g] for g in groups] == [[0], [1, 2], [3, 4]]
    assert [sum(len(sents[i]) for _, doc in g for i in doc) for g in groups] == [9, 12, 13]


def test_worker_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    least = tagger.MIN_TOKENS_PER_PROCESS
    assert tagger._process_count(24, 4763) == min(4, 4763 // least)
    assert tagger._process_count(3, 10 * least) == 3
    assert tagger._process_count(24, 2 * least - 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert tagger._process_count(24, 4763) == 1


def test_benchmark_input_gets_two_processes_and_small_corpora_none(monkeypatch):
    # perfbench's tag input is 24 documents of 4763 tokens; no corpus of
    # test_batching.py holds more than 240 tokens, and its recording of
    # forward_batch sees only the calling process's batches
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert tagger._process_count(24, 4763) == 2
    assert tagger._process_count(5, 240) == 1


def test_other_threads_keep_tagging_in_process(monkeypatch):
    forks = force_processes(monkeypatch, 2)
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5])])
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        tags = tag_corpus(model, sents)
    finally:
        stop.set()
        thread.join()
    assert forks == []
    assert tags == in_process(model, sents)


def test_refused_fork_is_tagged_by_the_caller(monkeypatch):
    model = make_model(*SPECS[-1], cache=True, seed=2)
    sents = corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [1])])
    expected = in_process(model, sents)
    force_processes(monkeypatch, 3)

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    assert tag_corpus(model, sents) == expected
    assert_no_children()


# ------------------------------------------------- no worker outlives the call

def in_worker_only(monkeypatch, act):
    """encode_sentence, with act() run first in a worker."""
    encode_sentence = tagger.encode_sentence
    caller = os.getpid()

    def patched(*args):
        if os.getpid() != caller:
            act()
        return encode_sentence(*args)

    monkeypatch.setattr(tagger, "encode_sentence", patched)


def on_length(monkeypatch, n, act):
    """encode_sentence, with act() run first for a sentence of n tokens,
    in whichever process tags it."""
    encode_sentence = tagger.encode_sentence

    def patched(sentence, *args):
        if len(sentence) == n:
            act()
        return encode_sentence(sentence, *args)

    monkeypatch.setattr(tagger, "encode_sentence", patched)


def test_no_worker_outlives_a_successful_call(monkeypatch):
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [6])])
    expected = in_process(model, sents)
    forks = force_processes(monkeypatch, 3)
    assert tag_corpus(model, sents) == expected
    assert len(forks) == 2
    assert_no_children()


def test_a_worker_exception_is_raised_in_the_caller(monkeypatch):
    # document b (sentences of 5 and 2 tokens) is the worker's
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2])])
    forks = force_processes(monkeypatch, 2)

    def fail():
        raise ValueError("bad input")

    on_length(monkeypatch, 5, fail)
    with pytest.raises(ValueError, match="^bad input$"):
        tag_corpus(model, sents)
    assert len(forks) == 1
    assert_no_children()


class Unpicklable(ValueError):
    def __init__(self, message, handle):
        super().__init__(message)
        self.handle = handle


def test_an_exception_that_does_not_pickle_reaches_the_caller_whole(monkeypatch):
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2])])
    force_processes(monkeypatch, 2)
    handle = lambda: None  # noqa: E731

    def fail():
        raise Unpicklable("no way back", handle)

    on_length(monkeypatch, 5, fail)
    with pytest.raises(Unpicklable, match="^no way back$") as info:
        tag_corpus(model, sents)
    assert info.value.handle is handle
    assert_no_children()


def test_an_exception_only_a_worker_meets_leaves_the_caller_to_tag(monkeypatch):
    # as when a worker runs out of memory: the caller tags every document
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [6])])
    expected = in_process(model, sents)
    forks = force_processes(monkeypatch, 3)

    def fail():
        raise MemoryError

    in_worker_only(monkeypatch, fail)
    assert tag_corpus(model, sents) == expected
    assert len(forks) == 2
    assert_no_children()


def test_dev_evaluation_tags_in_process(monkeypatch):
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [6])])
    expected = in_process(model, sents)
    forks = force_processes(monkeypatch, 2)
    assert tag_in_process(model, sents) == expected
    training._dev_f1(model, sents, [[] for _ in sents])
    assert forks == []


def test_a_killed_worker_is_an_error_naming_its_documents(monkeypatch):
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [9]), ("a", [1])])
    force_processes(monkeypatch, 2)
    in_worker_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(WorkerError, match="^the worker tagging documents 1, 2 was killed by "
                                          "signal 9 without sending its tags$"):
        tag_corpus(model, sents)
    assert_no_children()


def test_the_caller_failing_ends_every_worker(monkeypatch):
    # the workers would run for a minute: the caller's own error must not
    # wait for them
    model = make_model(*SPECS[0], cache=True, seed=1)
    sents = corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [2])])
    force_processes(monkeypatch, 3)
    tag_documents = tagger._tag_documents

    caller = os.getpid()

    def patched(model, sentences, docs):
        if os.getpid() != caller:
            time.sleep(60)
        else:
            raise KeyboardInterrupt
        return tag_documents(model, sentences, docs)

    monkeypatch.setattr(tagger, "_tag_documents", patched)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        tag_corpus(model, sents)
    assert time.monotonic() - start < 30
    assert_no_children()


SCRIPT = """
import atexit, os, signal, sys
from rnntagger import model
from rnntagger.cli import main

model.MIN_TOKENS_PER_PROCESS = 1
os.sched_getaffinity = lambda pid: {0, 1}
encode_sentence = model.encode_sentence
caller = os.getpid()

def patched(sentence, *args):
    in_worker = os.getpid() != caller
    if in_worker and sys.argv[1] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if in_worker and sys.argv[1] == "raise":
        raise MemoryError
    if len(sentence) == 5 and sys.argv[1] == "raise-everywhere":
        raise ValueError("tagging failed")
    return encode_sentence(sentence, *args)

model.encode_sentence = patched
atexit.register(lambda: print("atexit ran"))
sys.exit(main(sys.argv[2:]))
"""


def run_tag(tmp_path, ending):
    model = make_model(*SPECS[0], cache=True, seed=1)
    save_model(model, str(tmp_path / "m.json"))
    write_conll(corpus([("a", [3, 4]), ("b", [5, 2]), ("c", [6])]),
                str(tmp_path / "in.conll"))
    out = tmp_path / ("%s.conll" % ending)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ending, "tag", "--model",
                           str(tmp_path / "m.json"), "--input", str(tmp_path / "in.conll"),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    return proc, out


def test_tag_command_with_a_killed_worker_writes_nothing(tmp_path):
    proc, out = run_tag(tmp_path, "kill")
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    assert proc.stderr == ("resource error: tag: the worker tagging documents 2 was killed "
                           "by signal 9 without sending its tags\n")
    assert not out.exists()
    # the effective config the parent buffered is written once, and only
    # the parent runs its atexit handlers
    assert proc.stdout.count("# effective config") == 1
    assert proc.stdout.count("atexit ran") == 1


@pytest.mark.parametrize("ending", ["ok", "raise", "raise-everywhere"])
def test_workers_run_no_exit_handler_and_flush_no_buffer(tmp_path, ending):
    # "raise" fails in the worker alone, so the caller tags its documents
    proc, out = run_tag(tmp_path, ending)
    assert proc.stdout.count("# effective config") == 1
    assert proc.stdout.endswith("atexit ran\n")
    assert proc.stdout.count("atexit ran") == 1
    if ending != "raise-everywhere":
        assert proc.returncode == 0, proc.stderr
        sents = load_conll(str(tmp_path / "in.conll"), tagged=False)
        write_conll(sents, str(tmp_path / "expected.conll"),
                    tags=in_process(load_model(str(tmp_path / "m.json")), sents))
        assert out.read_bytes() == (tmp_path / "expected.conll").read_bytes()
    else:
        assert proc.returncode == 2
        assert proc.stderr == "data error: tagging failed\n"
        assert not out.exists()
