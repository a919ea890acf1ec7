"""Windowed local training: truncated BPTT, plain SGD, embedding
fine-tuning, and the finite-difference gradient checker.

Each training example is one (sentence, position) pair.  The decoder is
windowed, covering the v_d positions preceding the target plus the
target itself, from a zero carry.  The encoders see the whole sentence,
but step only the positions the window reads: the contextual c_n needs
all of them, the bidirectional and mesnil l_i only those up to the
target and r_i only those from the window's start on.
`window_nll` is that objective and its gradient, written once: an SGD
step takes it over one example, and the gradient check takes it over
every position of a sentence, so the check audits the code SGD runs.
"""

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .architectures import (
    backward_window,
    decode_window,
    encode,
    init_model,
    zero_model_grads,
)
from .corpus import documents
from .evaluation import score
from .model import Model, tag_corpus
from .representation import DocCache, token_features, window_inputs
from .tagging import tags_to_spans

LOSS_FLOOR = 1e-12
FD_STEP = 1e-5
# central differences carry ~1e-11 truncation noise on O(1) losses, so
# absolute agreement this tight counts as a match regardless of ratio
FD_NOISE = 1e-9


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 5
    v_d: int = 9
    v_c: int = 5
    hidden: int = 200
    seed: int = 1
    shuffle: bool = True
    fine_tune_embeddings: bool = True
    dev_eval_every: int = 1
    clip_threshold: float = None   # the global gradient norm cap; None: no clipping

    def __post_init__(self):
        for name in ("learning_rate", "clip_threshold"):
            value = getattr(self, name)
            if value is None and name == "clip_threshold":
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0, got %r" % (name, value))
        if self.v_d < 0 or self.v_c < 0:
            raise ValueError("window sizes must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.dev_eval_every < 1:
            raise ValueError("dev_eval_every must be >= 1")


def nll_loss(o, y):
    if not 0 <= y < len(o):
        raise IndexError("tag index %d out of range for %d classes" % (y, len(o)))
    return -math.log(max(float(o[y]), LOSS_FLOOR))


def _embedding_grads(indices, dxs, v_c, dim):
    """Map the (n, I) input-vector gradients of a sentence with word
    indices `indices` back onto embedding rows.

    Slot k of position p's input is the w-vector of sentence position
    p + k - v_c, whose first `dim` entries came from the embedding row:
    one shifted add per slot undoes the windowing, then positions that
    share a row add up in position order.  Returns (rows, grads): the
    sentence's distinct rows, sorted, and their (len(rows), dim) sums.
    """
    n = len(dxs)
    slots = dxs.reshape(n, 2 * v_c + 1, dxs.shape[1] // (2 * v_c + 1))[:, :, :dim]
    padded = np.zeros((n + 2 * v_c, dim))   # row q: sentence position q - v_c
    for k in range(2 * v_c + 1):
        padded[k : k + n] += slots[:, k]
    rows, at = np.unique(indices, return_inverse=True)
    grads = np.zeros((len(rows), dim))
    np.add.at(grads, at, padded[v_c : v_c + n])
    return rows, grads


def _nll_logit_grads(dists, y):
    """d(nll of the window's last position)/d(logits) for every window
    row: o - onehot(y) on the last row, zero on the others."""
    dlogits = np.zeros_like(dists)
    dlogits[-1] = dists[-1]
    dlogits[-1, y] -= 1.0
    return dlogits


def _check_finite(acc, rows, emb_grads):
    """Squared norm of the whole gradient, one dot product per block,
    the embedding rows' gradients being one more block.  Only a block
    whose square is not finite is searched for a non-finite value, which
    is an error that names the block, or the first such embedding row."""
    blocks = [((bundle, name), g) for bundle, grads in acc.items()
              for name, g in grads.items()]
    sq = 0.0
    for key, g in blocks + [(None, emb_grads)]:
        s = float(np.vdot(g, g))
        if not math.isfinite(s) and not np.all(np.isfinite(g)):
            where = ("parameter block %s.%s" % key if key else
                     "embedding row %d" % rows[np.isfinite(g).all(axis=1).argmin()])
            raise FloatingPointError("non-finite gradient in " + where)
        sq += s
    return sq


def window_nll(spec, params, xs, examples, v_d, acc=None):
    """The windowed objective over one encode of xs: the summed nll of
    every (position i, gold index) example, its window i - v_d..i (cut
    at 0) decoded from a zero carry.  The encoders step only the cone
    of the examples' windows, which gives the loss and gradients the
    bits of a whole-sentence encode.

    Returns (loss, dxs).  With acc, each window is also backpropagated,
    parameter gradients accumulate into acc, and dxs is the summed (n, I)
    input gradient; without, dxs is None.
    """
    positions = [i for i, _ in examples]
    span = (max(0, min(positions) - v_d), max(positions)) if positions else None
    enc = encode(spec, params, xs, span)
    total = 0.0
    dxs = None
    for i, y in examples:
        dec = decode_window(spec, params, enc, max(0, i - v_d), i)
        total += nll_loss(dec.dists[-1], y)
        if acc is not None:
            d = backward_window(spec, params, enc, dec, _nll_logit_grads(dec.dists, y), acc)
            dxs = d if dxs is None else dxs + d
    return total, dxs


def train_example(model, inputs, position, gold, cfg):
    """One SGD step on one (sentence, position) example; returns the loss.

    inputs is the sentence's (word indices, feature columns), built once
    per epoch by train_epoch; only the embedding rows are gathered here,
    so fine-tuned rows feed the very next example.
    """
    indices, features = inputs
    xs = window_inputs(model.table, indices, features, model.v_c)
    acc = zero_model_grads(model.params)
    loss, dxs = window_nll(model.spec, model.params, xs, [(position, gold)], cfg.v_d, acc)
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    if cfg.fine_tune_embeddings and model.table.trainable:
        rows, emb_grads = _embedding_grads(indices, dxs, model.v_c, model.table.dim)
    else:
        rows, emb_grads = np.zeros(0, dtype=int), np.zeros((0, model.table.dim))
    norm = math.sqrt(_check_finite(acc, rows, emb_grads))
    cap = cfg.clip_threshold
    scale = cap / norm if cap is not None and norm > cap else 1.0
    for bundle, grads in acc.items():
        for name, g in grads.items():
            # (lr * scale) * g, in place of a temporary per block
            np.multiply(g, cfg.learning_rate * scale, out=g)
            model.params[bundle][name] -= g
    model.table.add_grad(rows, scale * emb_grads, cfg.learning_rate)
    return loss


@dataclass
class EpochStats:
    mean_loss: float
    n_examples: int
    seconds: float

    @property
    def examples_per_sec(self):
        return self.n_examples / self.seconds if self.seconds > 0 else float("inf")


def _prepare(model, sentences):
    """Each sentence's gold indices and token_features, in corpus order.
    Its cache columns come from a cache fed only the gold tags of the
    earlier sentences of its document.  All sentences share one
    surface facts table (see token_features)."""
    t2i = model.tag_to_index
    facts = {}
    prepared = []
    for doc in documents(sentences):
        cache = DocCache() if model.fconf.uses_cache else None
        for sent in (sentences[k] for k in doc):
            tags = sent.tags()
            for tok, tag in zip(sent.tokens, tags):
                if tag is None:
                    raise ValueError("untagged token %r in training data" % tok.surface)
                if tag not in t2i:
                    raise ValueError("tag %r not in the model tagset" % tag)
            inputs = token_features(sent, model.table.vocab, model.fconf, cache, facts)
            prepared.append((inputs, [t2i[tag] for tag in tags]))
            if cache is not None:
                cache.update_sentence(sent, tags, t2i)
    return prepared


def train_epoch(model, sentences, cfg, rng=None):
    """Visit every (sentence, position) example once, in seeded-shuffle
    order when shuffle is on.  A numeric failure names the example's
    sentence and position, both counted from 1."""
    if not sentences:
        raise ValueError("training corpus is empty")
    if rng is None:
        rng = linalg.SeededRng(cfg.seed)
    prepared = _prepare(model, sentences)
    examples = [(si, pos)
                for si, sent in enumerate(sentences)
                for pos in range(len(sent))]
    if cfg.shuffle:
        rng.shuffle(examples)

    total = 0.0
    started = time.perf_counter()
    # the loss and gradient checks find every non-finite value and say
    # where it is, so numpy's own warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for si, pos in examples:
            try:
                inputs, golds = prepared[si]
                total += train_example(model, inputs, pos, golds[pos], cfg)
            except FloatingPointError as e:
                raise FloatingPointError("sentence %d, position %d: %s"
                                         % (si + 1, pos + 1, e)) from None
    seconds = time.perf_counter() - started
    return EpochStats(mean_loss=total / len(examples),
                      n_examples=len(examples), seconds=seconds)


@dataclass
class FitResult:
    model: Model
    history: list
    best_epoch: int


def _dev_f1(model, dev_sentences, gold_spans):
    pred = tag_corpus(model, dev_sentences)
    pred_spans = [tags_to_spans(tags, model.scheme) for tags in pred]
    return score(gold_spans, pred_spans)


def fit(model, train_sentences, dev_sentences, cfg):
    """Epoch loop with dev-F1 checkpointing.

    The best dev-F1 checkpoint wins; ties keep the earlier epoch.  With
    an empty dev set the final-epoch model is returned.  The passed-in
    model is left holding the winning parameters.
    """
    rng = linalg.SeededRng(cfg.seed)
    for s in dev_sentences:
        if any(t is None for t in s.tags()):
            raise ValueError("dev sentence has untagged tokens")
    gold_spans = [tags_to_spans(s.tags(), model.scheme) for s in dev_sentences]
    history = []
    best_f1 = -1.0
    best_epoch = cfg.epochs
    best_params = None
    best_matrix = None

    for e in range(cfg.epochs):
        try:
            stats = train_epoch(model, train_sentences, cfg, rng)
        except FloatingPointError as err:
            raise FloatingPointError("epoch %d, %s" % (e + 1, err)) from None
        row = {"epoch": e + 1, "mean_loss": stats.mean_loss,
               "examples_per_sec": stats.examples_per_sec}
        last = e == cfg.epochs - 1
        if dev_sentences and ((e + 1) % cfg.dev_eval_every == 0 or last):
            try:
                report = _dev_f1(model, dev_sentences, gold_spans)
            except FloatingPointError as err:
                raise FloatingPointError("epoch %d, dev %s" % (e + 1, err)) from None
            row.update(dev_p=report.precision, dev_r=report.recall,
                       dev_f1=report.f1)
            if report.f1 > best_f1:
                best_f1 = report.f1
                best_epoch = e + 1
                best_params = copy.deepcopy(model.params)
                best_matrix = model.table.matrix.copy()
        history.append(row)

    if best_params is not None:
        model.params = best_params
        model.table.matrix = best_matrix
    return FitResult(model=model, history=history, best_epoch=best_epoch)


@dataclass
class GradCheckReport:
    blocks: dict      # "bundle.param" -> max guarded relative error
    # "bundle.param" -> max |analytic - numeric|, which shows the margin
    # to the bound where the noise floor makes the relative error 0
    abs_diffs: dict

    @property
    def max_error(self):
        return max(self.blocks.values()) if self.blocks else 0.0

    def ok(self, bound):
        return self.max_error < bound


def _guarded_rel_err(a, n):
    if abs(a - n) <= FD_NOISE:
        return 0.0
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def gradient_check(spec, seed, n_tokens, v_d=9):
    """Analytic windowed-BPTT gradients of window_nll over every position
    of a random sentence vs central differences of the same function.

    Reports the max relative error per parameter block, with absolute
    differences below the noise floor treated as exact agreement, and
    the max absolute difference per block.
    """
    rng = linalg.SeededRng(seed)
    params = init_model(spec, rng)
    xs = rng.uniform(n_tokens * spec.n_in, -0.5, 0.5).reshape(n_tokens, spec.n_in)
    examples = [(i, rng.randint(spec.n_tags)) for i in range(n_tokens)]

    acc = zero_model_grads(params)
    window_nll(spec, params, xs, examples, v_d, acc)
    blocks, abs_diffs = {}, {}
    for bundle in sorted(params):
        for name in sorted(params[bundle]):
            p = params[bundle][name]
            worst = worst_abs = 0.0
            flat = p.reshape(-1)
            gflat = acc[bundle][name].reshape(-1)
            for j in range(flat.shape[0]):
                keep = flat[j]
                flat[j] = keep + FD_STEP
                up, _ = window_nll(spec, params, xs, examples, v_d)
                flat[j] = keep - FD_STEP
                down, _ = window_nll(spec, params, xs, examples, v_d)
                flat[j] = keep
                numeric = (up - down) / (2.0 * FD_STEP)
                worst = max(worst, _guarded_rel_err(float(gflat[j]), numeric))
                worst_abs = max(worst_abs, abs(float(gflat[j]) - numeric))
            blocks["%s.%s" % (bundle, name)] = worst
            abs_diffs["%s.%s" % (bundle, name)] = worst_abs
    return GradCheckReport(blocks=blocks, abs_diffs=abs_diffs)
