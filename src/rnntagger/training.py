"""Windowed local training: truncated BPTT, plain SGD, embedding
fine-tuning, and the finite-difference gradient checker.

Each training example is one (sentence, position) pair.  Encoder passes
(context vector, bidirectional states) always run over the full
sentence; only the decoder is windowed, covering the v_d positions
preceding the target plus the target itself, from a zero carry.
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
from .evaluation import score
from .model import Model, tag_corpus
from .representation import DocCache
from .tagging import tags_to_spans

LOSS_FLOOR = 1e-12
FD_STEP = 1e-5
# central differences carry ~1e-11 truncation noise on O(1) losses, so
# absolute agreement this tight counts as a match regardless of ratio
FD_NOISE = 1e-9


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 1
    v_d: int = 9
    v_c: int = 5
    hidden: int = 200
    seed: int = 1
    shuffle: bool = True
    fine_tune_embeddings: bool = True
    dev_eval_every: int = 1
    clip: bool = False
    clip_threshold: float = 5.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0, got %r" % self.learning_rate)
        if self.v_d < 0 or self.v_c < 0:
            raise ValueError("window sizes must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.dev_eval_every < 1:
            raise ValueError("dev_eval_every must be >= 1")


@dataclass
class ExampleWindow:
    """One local training example: sentence, target position, gold tag
    index, and the document cache state the sentence is encoded under."""
    sentence: object
    position: int
    gold_index: int
    doc_state: object = None


def nll_loss(o, y):
    if not 0 <= y < len(o):
        raise IndexError("tag index %d out of range for %d classes" % (y, len(o)))
    return -math.log(max(float(o[y]), LOSS_FLOOR))


def _window_bounds(i, v_d):
    return max(0, i - v_d), i


def _embedding_grads(enc_in, dxs):
    """Map input-vector gradients back onto embedding rows.

    Slot k of position p's input is the w-vector of sentence position
    p + k - v_c, whose first `dim` entries came from the embedding row:
    one shifted add per slot undoes the windowing, then positions that
    share a row add up.
    """
    v_c, dim = enc_in.v_c, enc_in.dim
    n = len(dxs)
    slots = dxs.reshape(n, 2 * v_c + 1, enc_in.block)[:, :, :dim]
    padded = np.zeros((n + 2 * v_c, dim))   # row q: sentence position q - v_c
    for k in range(2 * v_c + 1):
        padded[k : k + n] += slots[:, k]
    rows = {}
    for row, g in zip(enc_in.word_indices, padded[v_c : v_c + n]):
        if np.any(g):
            rows[row] = rows[row] + g if row in rows else g
    return rows


def _nll_logit_grads(dists, y):
    """d(nll of the window's last position)/d(logits) for every window
    row: o - onehot(y) on the last row, zero on the others."""
    dlogits = np.zeros_like(dists)
    dlogits[-1] = dists[-1]
    dlogits[-1, y] -= 1.0
    return dlogits


def _check_finite(acc, emb_rows):
    """Squared norm of the whole gradient, one dot product per block.
    Only a block whose square is not finite is searched for a non-finite
    value, which is an error that names the block."""
    sq = 0.0
    for bundle, grads in acc.items():
        for name, g in grads.items():
            s = float(np.vdot(g, g))
            if not math.isfinite(s) and not np.all(np.isfinite(g)):
                raise FloatingPointError(
                    "non-finite gradient in parameter block %s.%s" % (bundle, name))
            sq += s
    for row, g in emb_rows.items():
        s = float(np.vdot(g, g))
        if not math.isfinite(s) and not np.all(np.isfinite(g)):
            raise FloatingPointError(
                "non-finite gradient in embedding row %d" % row)
        sq += s
    return sq


def train_example(model, window, lr, cfg=None):
    """One SGD step on one (sentence, position) example; returns the loss.

    The sentence is re-encoded here so fine-tuned embedding rows feed the
    very next example.  The decoder runs over the window ending at the
    target position; encoders (when the architecture has them) run over
    the whole sentence and receive gradients through c_n / the state
    concatenation.
    """
    if cfg is None:
        cfg = TrainConfig(learning_rate=lr)
    spec = model.spec
    enc_in = model.encode_input(window.sentence, window.doc_state)
    enc = encode(spec, model.params, enc_in.xs)
    lo, hi = _window_bounds(window.position, cfg.v_d)
    dec = decode_window(spec, model.params, enc, lo, hi)

    loss = nll_loss(dec.dists[-1], window.gold_index)
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    acc = zero_model_grads(model.params)
    dlogits = _nll_logit_grads(dec.dists, window.gold_index)
    dxs = backward_window(spec, model.params, enc, dec, dlogits, acc)

    fine_tune = cfg.fine_tune_embeddings and model.table.trainable
    emb_rows = _embedding_grads(enc_in, dxs) if fine_tune else {}
    norm = math.sqrt(_check_finite(acc, emb_rows))
    scale = cfg.clip_threshold / norm if cfg.clip and norm > cfg.clip_threshold else 1.0
    for bundle, grads in acc.items():
        for name, g in grads.items():
            model.params[bundle][name] -= lr * scale * g
    for row, g in emb_rows.items():
        model.table.add_grad(row, scale * g, lr)
    return loss


@dataclass
class EpochStats:
    mean_loss: float
    n_examples: int
    seconds: float

    @property
    def examples_per_sec(self):
        return self.n_examples / self.seconds if self.seconds > 0 else float("inf")


def _gold_indices(sentences, tag_to_index):
    golds = []
    for sent in sentences:
        row = []
        for tok in sent.tokens:
            tag = tok.gold_tag
            if tag is None:
                raise ValueError("untagged token %r in training data" % tok.surface)
            if tag not in tag_to_index:
                raise ValueError("tag %r not in the model tagset" % tag)
            row.append(tag_to_index[tag])
        golds.append(row)
    return golds


def _cache_snapshots(model, sentences):
    """Per-sentence frozen cache states, built from gold labels in corpus
    order; None placeholders when the cache channel is off."""
    if not model.fconf.uses_cache:
        return [None] * len(sentences)
    t2i = model.tag_to_index
    state = DocCache()
    prev_doc = None
    snaps = []
    for sent in sentences:
        if sent.doc_id != prev_doc:
            state.reset()
        snaps.append(state.snapshot())
        state.update_sentence(sent, sent.tags(), t2i)
        prev_doc = sent.doc_id
    return snaps


def train_epoch(model, sentences, cfg, rng=None):
    """Visit every (sentence, position) example once, in seeded-shuffle
    order when shuffle is on.  A numeric failure names the example's
    sentence and position, both counted from 1."""
    if not sentences:
        raise ValueError("training corpus is empty")
    if rng is None:
        rng = linalg.SeededRng(cfg.seed)
    golds = _gold_indices(sentences, model.tag_to_index)
    snaps = _cache_snapshots(model, sentences)
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
            w = ExampleWindow(sentences[si], pos, golds[si][pos], snaps[si])
            try:
                total += train_example(model, w, cfg.learning_rate, cfg)
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
            report = _dev_f1(model, dev_sentences, gold_spans)
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
    n_tokens: int
    seed: int

    @property
    def max_error(self):
        return max(self.blocks.values()) if self.blocks else 0.0

    def ok(self, bound=1e-4):
        return self.max_error < bound


def _guarded_rel_err(a, n):
    if abs(a - n) <= FD_NOISE:
        return 0.0
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def total_windowed_nll(spec, params, xs, golds, v_d):
    """Sum of per-position windowed losses; the gradient-check objective."""
    enc = encode(spec, params, xs)
    total = 0.0
    for i, y in enumerate(golds):
        lo, hi = _window_bounds(i, v_d)
        dec = decode_window(spec, params, enc, lo, hi)
        total += nll_loss(dec.dists[-1], y)
    return total


def analytic_total_grads(spec, params, xs, golds, v_d):
    acc = zero_model_grads(params)
    enc = encode(spec, params, xs)
    for i, y in enumerate(golds):
        lo, hi = _window_bounds(i, v_d)
        dec = decode_window(spec, params, enc, lo, hi)
        backward_window(spec, params, enc, dec, _nll_logit_grads(dec.dists, y), acc)
    return acc


def gradient_check(spec, seed, n_tokens, v_d=9):
    """Analytic windowed-BPTT gradients vs central differences.

    Reports the max relative error per parameter block, with absolute
    differences below the noise floor treated as exact agreement.
    """
    rng = linalg.SeededRng(seed)
    params = init_model(spec, rng)
    xs = rng.uniform(n_tokens * spec.n_in, -0.5, 0.5).reshape(n_tokens, spec.n_in)
    golds = [rng.randint(spec.n_tags) for _ in range(n_tokens)]

    acc = analytic_total_grads(spec, params, xs, golds, v_d)
    blocks = {}
    for bundle in sorted(params):
        for name in sorted(params[bundle]):
            p = params[bundle][name]
            worst = 0.0
            flat = p.reshape(-1)
            gflat = acc[bundle][name].reshape(-1)
            for j in range(flat.shape[0]):
                keep = flat[j]
                flat[j] = keep + FD_STEP
                up = total_windowed_nll(spec, params, xs, golds, v_d)
                flat[j] = keep - FD_STEP
                down = total_windowed_nll(spec, params, xs, golds, v_d)
                flat[j] = keep
                numeric = (up - down) / (2.0 * FD_STEP)
                worst = max(worst, _guarded_rel_err(float(gflat[j]), numeric))
            blocks["%s.%s" % (bundle, name)] = worst
    return GradCheckReport(blocks=blocks, n_tokens=n_tokens, seed=seed)
