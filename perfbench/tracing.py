"""Tracing from outside the program.

The tracer replaces module attributes and class attributes of the
program with wrappers and puts the originals back afterwards; the
program itself is not changed.  Calls at or above the `architectures`
layer become spans (name, parent, start, end); the per-step calls below
it (cell steps and backwards, sampling, RNG draws) are so many that they
are only counted, with their total time where it is wanted.  A span's
self time is its duration minus the time of the spans and timed counters
that ran inside it.
"""

import contextlib
import math
import time
from collections import defaultdict

from rnntagger import (architectures, cells, corpus, linalg, model, pretrain,
                       representation, serialize, training)

CELL_KINDS = ("ELMAN", "JORDAN", "ELMAN_GRU", "JORDAN_GRU", "SOFTMAX")

_NAME, _PARENT, _START, _END, _CHILD = range(5)


class Tracer:
    def __init__(self):
        self.spans = []                  # [name, parent index, start, end, child seconds]
        self._stack = []
        self.calls = defaultdict(int)    # counter name -> calls
        self.seconds = defaultdict(float)
        self.amounts = defaultdict(float)
        self._patches = []               # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, amount=None):
        spans, stack, amounts = self.spans, self._stack, self.amounts
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                rec = [name, parent, clock(), 0.0, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[_END] = clock()
                    stack.pop()
                    if parent >= 0:
                        spans[parent][_CHILD] += rec[_END] - rec[_START]
                    if amount is not None:
                        amounts[name] += amount(args)
            return traced
        return make

    def counter(self, name, timed=False, amount=None):
        spans, stack = self.spans, self._stack
        calls, seconds, amounts = self.calls, self.seconds, self.amounts
        clock = time.perf_counter

        def make(fn):
            if not timed:
                def counted(*args, **kwargs):
                    calls[name] += 1
                    result = fn(*args, **kwargs)
                    if amount is not None:
                        amounts[name] += amount(args, result)
                    return result
                return counted

            def timed_call(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    calls[name] += 1
                    seconds[name] += dt
                    if stack:
                        spans[stack[-1]][_CHILD] += dt
                    if amount is not None:
                        amounts[name] += amount(args, None)
            return timed_call
        return make

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, make):
        original = vars(owner)[attr]
        is_static = isinstance(original, staticmethod)
        wrapped = make(original.__func__ if is_static else original)
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self):
        """Patched attributes that do not hold their original any more."""
        return ["%s.%s" % (getattr(owner, "__name__", owner), attr)
                for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]

    @contextlib.contextmanager
    def installed(self):
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- reading ----------------------------------------------------------

    def _named(self, name):
        return [s for s in self.spans if s[_NAME] == name]

    def span_calls(self, name):
        return len(self._named(name))

    def total_s(self, name):
        return sum(s[_END] - s[_START] for s in self._named(name))

    def self_s(self, name):
        return sum(s[_END] - s[_START] - s[_CHILD] for s in self._named(name))

    def durations_ms(self, name):
        return sorted(1e3 * (s[_END] - s[_START]) for s in self._named(name))


def install(tracer):
    """Wrap every module and class attribute the benchmark reads a layer
    metric from.  Functions a module imported by name are wrapped where
    the caller looks them up (training.encode as well as
    architectures.encode) under one span name."""
    span, counter, patch = tracer.span, tracer.counter, tracer.patch

    def positions(args):
        return len(args[2])            # encode(spec, params, xs)

    def window(args):
        return args[4] - args[3] + 1   # decode_window(spec, params, enc, lo, hi)

    for owner in (training, architectures):
        patch(owner, "encode", span("architectures.encode", positions))
        patch(owner, "decode_window", span("architectures.decode_window", window))
    patch(training, "backward_window", span("architectures.backward_window"))
    patch(architectures, "chain_backward", span("architectures.chain_backward"))
    patch(training, "train_epoch", span("training.train_epoch"))
    patch(training, "train_example", span("training.train_example"))
    patch(training, "_embedding_grads", span("training.embedding_grads"))
    patch(training, "_check_finite", span("training.check_finite"))
    patch(model, "encode_sentence", span("representation.encode_sentence"))
    patch(model, "tag_corpus", span("model.tag_corpus"))
    patch(model, "tag_sentence", span("model.tag_sentence"))
    patch(serialize, "load_model", span("serialize.load_model"))
    patch(serialize, "save_model", span("serialize.save_model"))
    patch(corpus, "load_conll", span("corpus.load_conll"))
    patch(corpus, "write_conll", span("corpus.write_conll"))
    patch(representation, "load_embeddings", span("representation.load_embeddings"))
    patch(pretrain, "train_embeddings", span("pretrain.train_embeddings"))
    patch(pretrain, "read_corpus", span("pretrain.read_corpus"))
    patch(pretrain, "save_text", span("pretrain.save_text"))

    for cls in (cells.ElmanCell, cells.JordanCell, cells.ElmanGruCell,
                cells.JordanGruCell):
        patch(cls, "step", counter("cells.%s.step" % cls.kind, timed=True))
        patch(cls, "backward", counter("cells.%s.backward" % cls.kind, timed=True))
    patch(cells.SoftmaxOutput, "step", counter("cells.SOFTMAX.step", timed=True))
    patch(cells.SoftmaxOutput, "backward_from_logits",
          counter("cells.SOFTMAX.backward", timed=True))

    patch(representation.EmbeddingTable, "add_grad", counter("representation.add_grad"))
    patch(pretrain, "negative_sample",
          counter("pretrain.negative_sample", timed=True,
                  amount=lambda args, result: args[2]))   # k accepted draws
    patch(pretrain.UnigramTable, "sample", counter("pretrain.unigram_sample"))
    patch(pretrain, "subsample_keep",
          counter("pretrain.subsample", amount=lambda args, kept: bool(kept)))
    for obj in pretrain.OBJECTIVES:
        patch(pretrain, "%s_grads" % obj, counter("pretrain.%s_grads" % obj, timed=True))
    patch(pretrain, "_apply_input_grads", counter("pretrain.apply", timed=True))
    patch(pretrain, "_apply_output_grads", counter("pretrain.apply", timed=True))
    patch(linalg.SeededRng, "next_u64", counter("linalg.rng.next_u64"))
    patch(linalg.SeededRng, "uniform",
          counter("linalg.rng.uniform", amount=lambda args, result: args[1]))


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tr):
    """Per-layer metric values from one traced pass; a layer the workload
    does not use reads 0."""
    v = {}
    v["representation.encode_sentence.calls"] = tr.span_calls("representation.encode_sentence")
    v["representation.encode_sentence.s"] = tr.self_s("representation.encode_sentence")
    v["representation.add_grad.rows"] = tr.calls["representation.add_grad"]
    v["representation.load_embeddings.s"] = tr.total_s("representation.load_embeddings")

    encodes = tr.span_calls("architectures.encode")
    v["architectures.encode.s"] = tr.total_s("architectures.encode")
    v["architectures.encode.positions"] = tr.amounts["architectures.encode"]
    v["architectures.encode.positions_per_example"] = _ratio(
        tr.amounts["architectures.encode"], encodes)
    v["architectures.decode_window.s"] = tr.total_s("architectures.decode_window")
    v["architectures.decode_window.positions"] = tr.amounts["architectures.decode_window"]
    v["architectures.backward_window.s"] = tr.self_s("architectures.backward_window")
    v["architectures.chain_backward.s"] = tr.self_s("architectures.chain_backward")

    for kind in CELL_KINDS:
        for phase in ("step", "backward"):
            name = "cells.%s.%s" % (kind, phase)
            v[name + ".calls"] = tr.calls[name]
            v[name + ".s"] = tr.seconds[name]

    v["training.embedding_grads.s"] = tr.total_s("training.embedding_grads")
    v["training.check_finite.s"] = tr.total_s("training.check_finite")
    v["training.train_example.s"] = tr.self_s("training.train_example")
    example_ms = tr.durations_ms("training.train_example")
    v["training.train_example.ms_p50"] = _percentile(example_ms, 0.50)
    v["training.train_example.ms_p99"] = _percentile(example_ms, 0.99)
    v["training.train_epoch.s"] = tr.self_s("training.train_epoch")

    v["model.tag_corpus.s"] = tr.self_s("model.tag_corpus")
    sentence_ms = tr.durations_ms("model.tag_sentence")
    v["model.tag_sentence.ms_p50"] = _percentile(sentence_ms, 0.50)
    v["model.tag_sentence.ms_p99"] = _percentile(sentence_ms, 0.99)

    for name in ("serialize.load_model", "serialize.save_model", "corpus.load_conll",
                 "corpus.write_conll", "pretrain.read_corpus", "pretrain.save_text"):
        v[name + ".s"] = tr.total_s(name)

    v["pretrain.subsample.kept_share"] = _ratio(tr.amounts["pretrain.subsample"],
                                                tr.calls["pretrain.subsample"])
    v["pretrain.negative_sample.calls"] = tr.calls["pretrain.negative_sample"]
    v["pretrain.negative_sample.s"] = tr.seconds["pretrain.negative_sample"]
    draws = tr.calls["pretrain.unigram_sample"]
    v["pretrain.negative_sample.redraw_share"] = _ratio(
        draws - tr.amounts["pretrain.negative_sample"], draws)
    for obj in pretrain.OBJECTIVES:
        v["pretrain.%s_grads.s" % obj] = tr.seconds["pretrain.%s_grads" % obj]
    v["pretrain.apply.s"] = tr.seconds["pretrain.apply"]

    v["linalg.rng.draws"] = (tr.calls["linalg.rng.next_u64"]
                             + tr.amounts["linalg.rng.uniform"])
    return v
