"""Embedding pre-training on raw text.

Three objectives over a sliding context window: CBOW (predict the
center from the mean of its context vectors), Skip-gram (predict each
context word from the center), and the order-preserving variant that
replaces CBOW's mean with a positional concatenation.  All three share
the negative-sampling objective, frequency subsampling and one SGD
loop; an objective only decides which predictions a kept word makes.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .corpus import PAD_INDEX, UNK_INDEX, Vocabulary, normalize, read_lines, vocab_from_counts
from .representation import EmbeddingTable

CBOW = "cbow"
SKIPGRAM = "skipgram"
CCONCAT = "cconcat"
OBJECTIVES = (CBOW, SKIPGRAM, CCONCAT)

LR_FLOOR_FRACTION = 1e-4
PROB_FLOOR = 1e-12


@dataclass
class EmbedConfig:
    dim: int = 300
    window: int = 5
    subsample: float = 1e-5
    negatives: int = 10
    epochs: int = 1
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 1

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("subsample", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0, got %r" % (name, value))


class UnigramTable:
    """Negative-sampling distribution: p(w) proportional to freq(w)^0.75,
    with PAD and UNK excluded."""

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.float64)
        weights = np.power(counts, 0.75)
        weights[PAD_INDEX] = 0.0
        weights[UNK_INDEX] = 0.0
        total = weights.sum()
        if total <= 0:
            raise ValueError("no sampleable words")
        self.probs = weights / total
        self.cum = np.cumsum(self.probs)
        self.cum[-1] = 1.0
        self.n_words = int(np.count_nonzero(self.probs))

    def sample(self, rng):
        """One word; sample_many(rng, n) gives what n of these calls would."""
        u = rng.uniform_scalar()
        return int(np.searchsorted(self.cum, u, side="right"))

    def sample_many(self, rng, n):
        us = rng.uniform(n)
        return np.searchsorted(self.cum, us, side="right")


def negative_sample(table, targets, k, rng):
    """k negatives for each word in `targets`: one list per target.

    The draws come from one block of the stream, handed out in order;
    a draw equal to the current target is dropped, and the block is
    topped up only by the draws still missing, so the negatives and the
    rng state afterwards are those of drawing one word at a time."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if table.n_words < 2:
        raise ValueError("negative sampling needs at least 2 sampleable words")
    out = []
    draws = table.sample_many(rng, k * len(targets)).tolist()
    pos = 0
    for target in targets:
        block = draws[pos:pos + k]
        if len(block) == k and target not in block:
            out.append(block)
            pos += k
            continue
        negs = []
        while len(negs) < k:
            if pos == len(draws):
                missing = k * (len(targets) - len(out)) - len(negs)
                draws = table.sample_many(rng, missing).tolist()
                pos = 0
            j = draws[pos]
            pos += 1
            if j != target:
                negs.append(j)
        out.append(negs)
    return out


def subsample_prob(f, N, t):
    """word2vec keep probability for a word of frequency f in N tokens."""
    if f < 1:
        raise ValueError("frequency must be >= 1")
    # as Python floats an extreme t gives a ratio of inf or 0, not a numpy
    # warning; their limits are to drop the word and to keep it
    ratio = float(f) / (t * N)
    if ratio == math.inf:
        return 0.0
    return 1.0 if ratio <= 1.0 else min(1.0, (math.sqrt(ratio) + 1.0) / ratio)


def subsample_keep(f, N, t, rng):
    p = subsample_prob(f, N, t)
    if p >= 1.0:
        return True
    return rng.uniform_scalar() < p


@dataclass
class EmbedModel:
    vocab: Vocabulary
    objective: str
    input_vectors: np.ndarray
    output_vectors: np.ndarray
    window: int
    epoch_losses: list = field(default_factory=list)

    @property
    def dim(self):
        return self.input_vectors.shape[1]


def init_embed_model(vocab, objective, config, rng):
    if objective not in OBJECTIVES:
        raise ValueError("unknown objective %r (expected one of %s)"
                         % (objective, OBJECTIVES))
    dim = config.dim
    inp = linalg.uniform_init(rng, (len(vocab), dim), 0.5 / dim)
    inp[PAD_INDEX] = 0.0
    out_width = 2 * config.window * dim if objective == CCONCAT else dim
    out = np.zeros((len(vocab), out_width))
    return EmbedModel(vocab=vocab, objective=objective, input_vectors=inp,
                      output_vectors=out, window=config.window)


def _sig(s):
    if s >= 0:
        return 1.0 / (1.0 + math.exp(-s))
    e = math.exp(s)
    return e / (1.0 + e)


def _scatter(rows, pieces):
    """{row: sum of its pieces}, added in order.  Pieces are not copied,
    so a row's value may share memory with a piece or another row."""
    out = {}
    for row, piece in zip(rows, pieces):
        out[row] = out[row] + piece if row in out else piece
    return out


def _ns_grads(output, h, center, negatives):
    """Negative-sampling loss and gradients for one prediction.

    Returns (loss, dh, {row: du_row}); du entries accumulate when a
    negative repeats or equals another touched row.  Each score is its
    own stacked 1 x d product, which has the bits of output[j] @ h.  dh
    is summed row by row in order: a reduction over the rows may pair
    them up and round differently.
    """
    rows = [center] + list(negatives)
    O = output.take(rows, axis=0)
    scores = np.matmul(O[:, None, :], h[:, None]).ravel().tolist()
    p = [_sig(s) for s in scores]
    loss = 0.0
    for win in [p[0]] + [1.0 - q for q in p[1:]]:
        loss += -math.log(max(win, PROB_FLOOR))
    g = np.array([p[0] - 1.0] + p[1:])[:, None]
    dh = np.zeros_like(h)
    for piece in g * O:
        dh += piece
    return loss, dh, _scatter(rows, g * h)


def _apply_input_grads(model, grads, lr):
    for row, g in grads.items():
        if row != PAD_INDEX:
            model.input_vectors[row] -= lr * g


def _apply_output_grads(model, du, lr):
    model.output_vectors[np.array(list(du))] -= lr * np.array(list(du.values()))


def cbow_grads(model, center, context, negatives):
    """Pure gradient computation; context is a list of word indices."""
    if not context:
        raise ValueError("CBOW needs a nonempty context")
    h = np.mean(model.input_vectors[context], axis=0)
    loss, dh, du = _ns_grads(model.output_vectors, h, center, negatives)
    return loss, _scatter(context, [dh / len(context)] * len(context)), du


def skipgram_grads(model, center, context_word, negatives):
    h = model.input_vectors[center]
    loss, dh, du = _ns_grads(model.output_vectors, h, context_word, negatives)
    return loss, {center: dh}, du


def cconcat_grads(model, center, slots, negatives):
    """slots: exactly 2*window word indices in positional order, with PAD
    standing in for positions off the sentence ends."""
    if len(slots) != 2 * model.window:
        raise ValueError("expected %d context slots, got %d"
                         % (2 * model.window, len(slots)))
    h = model.input_vectors[slots].reshape(-1)
    loss, dh, du = _ns_grads(model.output_vectors, h, center, negatives)
    return loss, _scatter(slots, dh.reshape(len(slots), model.dim)), du


def _predictions(objective, padded, pos, w):
    """The (word to predict, gradient function, its context argument)
    triples of the kept word at `pos`; `padded` is the kept sentence with
    w PADs on each side.  CBOW makes one over the context (none when it
    is empty), skip-gram one per context word, cconcat one over the 2w
    slots."""
    center = padded[pos + w]
    slots = padded[pos:pos + w] + padded[pos + w + 1:pos + 2 * w + 1]
    if objective == CCONCAT:
        return [(center, cconcat_grads, slots)]
    context = [j for j in slots if j != PAD_INDEX]
    if objective == CBOW:
        return [(center, cbow_grads, context)] if context else []
    return [(cw, skipgram_grads, cw) for cw in context]


def read_corpus(path):
    """One sentence per line, whitespace tokens, normalized the same way
    the tagging vocabulary is."""
    sentences = []
    for _, line in read_lines(path):
        words = [normalize(w) for w in line.split()]
        if words:
            sentences.append(words)
    return sentences


def train_embeddings(corpus_path, objective, config):
    """Epoch loop over the corpus with linear lr decay down to
    initial * 1e-4.  Deterministic for a fixed seed.  An epoch whose
    mean loss is not finite is a FloatingPointError naming it."""
    sentences = read_corpus(corpus_path)
    counts = Counter(w for sent in sentences for w in sent)
    vocab = vocab_from_counts(counts, config.min_count)
    if len(vocab) <= 2:
        raise ValueError("no words survive the min_count=%d filter" % config.min_count)

    index_counts = np.zeros(len(vocab))
    for w, c in counts.items():
        i = vocab.word_to_index.get(w)
        if i is not None:
            index_counts[i] = c
    table = UnigramTable(index_counts)

    rng = linalg.SeededRng(config.seed)
    model = init_embed_model(vocab, objective, config, rng)

    # decay is driven by in-vocab occurrences, counted before subsampling
    total_tokens = int(index_counts.sum())
    budget = config.epochs * total_tokens
    processed = 0
    t = config.subsample
    w = config.window

    # the mean-loss check below and save_text's table check report every
    # non-finite value, so numpy's own warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, config.epochs + 1):
            epoch_loss = 0.0
            epoch_updates = 0
            for sent in sentences:
                indices = [vocab.word_to_index[x] for x in sent
                           if x in vocab.word_to_index]
                kept = []
                for i in indices:
                    processed += 1
                    if subsample_keep(index_counts[i], total_tokens, t, rng):
                        kept.append(i)
                lr = config.learning_rate * max(
                    LR_FLOOR_FRACTION, 1.0 - processed / budget)
                padded = [PAD_INDEX] * w + kept + [PAD_INDEX] * w
                predictions = [(center, target, grads, context)
                               for pos, center in enumerate(kept)
                               for target, grads, context
                               in _predictions(objective, padded, pos, w)]
                if not predictions:
                    continue
                negatives = negative_sample(table, [p[1] for p in predictions],
                                            config.negatives, rng)
                for (center, _, grads, context), negs in zip(predictions, negatives):
                    loss, dv, du = grads(model, center, context, negs)
                    _apply_output_grads(model, du, lr)
                    _apply_input_grads(model, dv, lr)
                    epoch_loss += loss
                    epoch_updates += 1
            mean_loss = epoch_loss / epoch_updates if epoch_updates else 0.0
            if not math.isfinite(mean_loss):
                raise FloatingPointError("epoch %d: non-finite mean loss" % epoch)
            model.epoch_losses.append(mean_loss)
    return model


def save_text(model, path):
    """Write the input-vector matrix (the downstream embedding) in the
    shared text format."""
    EmbeddingTable(model.vocab, model.dim, model.input_vectors.copy()).save_text(path)
