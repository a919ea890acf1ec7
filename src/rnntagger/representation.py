"""Per-token input vectors: embeddings, discrete features, and windowing.

A token's vector is w_i = [e_i, f_i] (embedding plus binary features);
the model input is the window x_i = [w_{i-v_c}, ..., w_i, ..., w_{i+v_c}]
with zero blocks past either sentence edge.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .corpus import PAD_INDEX, Vocabulary


class EmbeddingTable:
    """|V| x dim float matrix, one row per vocabulary entry.

    The PAD row is all-zero and stays that way: fine-tuning updates are
    routed through add_grad, which drops anything aimed at PAD.
    """

    def __init__(self, vocab, dim, matrix=None, trainable=True):
        self.vocab = vocab
        self.dim = dim
        if matrix is None:
            matrix = linalg.zeros((len(vocab), dim))
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(vocab), dim):
            raise ValueError(
                "embedding matrix shape %s does not match vocab %d x dim %d"
                % (matrix.shape, len(vocab), dim)
            )
        self.matrix = matrix
        self.matrix[PAD_INDEX] = 0.0
        self.trainable = trainable

    @classmethod
    def random(cls, vocab, dim, rng):
        radius = 0.5 / dim
        m = linalg.uniform_init(rng, (len(vocab), dim), radius)
        m[PAD_INDEX] = 0.0
        return cls(vocab, dim, m)

    def vector(self, surface):
        return self.matrix[self.vocab.index(surface)]

    def add_grad(self, i, grad, lr):
        """SGD step on one row; PAD is frozen."""
        if not self.trainable or i == PAD_INDEX:
            return
        self.matrix[i] -= lr * grad

    def save_text(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%d %d\n" % (len(self.vocab), self.dim))
            for i, word in enumerate(self.vocab.index_to_word):
                fh.write(word + " " + " ".join(repr(float(v)) for v in self.matrix[i]) + "\n")


def load_embeddings(path, lowercase=True, digits_to_zero=True):
    """Read the text format back into a table.

    Accepts files with or without the "count dim" header. Words absent
    from the file get deterministic rows: PAD zero, UNK the mean of all
    loaded vectors. A value that is not a finite number, or a row of the
    wrong width, raises ValueError naming the file and line.
    """
    words, rows, linenos = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or (lineno == 1 and len(parts) == 2
                             and all(p.isdigit() for p in parts)):
                continue  # blank line, or the header
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError as e:
                raise ValueError("%s:%d: row for %r: %s"
                                 % (path, lineno, parts[0], e)) from None
            if rows and len(row) != len(rows[0]):
                raise ValueError("%s:%d: row for %r has %d values, expected %d"
                                 % (path, lineno, parts[0], len(row), len(rows[0])))
            words.append(parts[0])
            rows.append(row)
            linenos.append(lineno)
    if not words:
        raise ValueError("%s: no embedding rows" % path)
    dim = len(rows[0])
    values = np.array(rows, dtype=np.float64)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError("%s:%d: row for %r holds a non-finite value"
                         % (path, linenos[i], words[i]))

    vocab = Vocabulary(lowercase=lowercase, digits_to_zero=digits_to_zero)
    matrix = [None, None]
    for w, r in zip(words, rows):
        idx = vocab.add(w)
        if idx < len(matrix) and matrix[idx] is not None:
            continue  # duplicate line, first wins
        if idx >= len(matrix):
            matrix.append(r)
        else:
            matrix[idx] = r
    mean = np.mean(values, axis=0)
    if matrix[0] is None:
        matrix[0] = [0.0] * dim
    if matrix[1] is None:
        matrix[1] = list(mean)
    return EmbeddingTable(vocab, dim, np.array(matrix, dtype=np.float64))


# --- discrete feature channels ---

CAP_WIDTH = 5


def capitalization_features(surface):
    """[all-lower, all-upper, init-cap, mixed, no-alpha], exactly one set."""
    bits = np.zeros(CAP_WIDTH)
    alpha = [c for c in surface if c.isalpha()]
    if not alpha:
        bits[4] = 1.0
    elif all(c.islower() for c in alpha):
        bits[0] = 1.0
    elif all(c.isupper() for c in alpha):
        bits[1] = 1.0
    elif alpha[0].isupper() and all(c.islower() for c in alpha[1:]):
        bits[2] = 1.0
    else:
        bits[3] = 1.0
    return bits


def gazetteer_mask(surfaces, lexicon):
    """Greedy longest-first phrase matching, one pass left to right.

    Returns a 0/1 array marking tokens covered by a match. Case folds to
    lower; matched regions do not overlap.
    """
    n = len(surfaces)
    lowered = [s.lower() for s in surfaces]
    mask = np.zeros(n)
    cap = lexicon.max_len
    i = 0
    while i < n:
        hit = 0
        for length in range(min(cap, n - i), 0, -1):
            if " ".join(lowered[i : i + length]) in lexicon.entries:
                hit = length
                break
        if hit:
            mask[i : i + hit] = 1.0
            i += hit
        else:
            i += 1
    return mask


class DocCache:
    """Most recent label per lowercased surface within one document."""

    def __init__(self):
        self._latest = {}

    def reset(self):
        self._latest.clear()

    def snapshot(self):
        frozen = DocCache()
        frozen._latest = dict(self._latest)
        return frozen

    def get(self, surface):
        return self._latest.get(surface.lower())

    def update_sentence(self, sentence, tags, tag_to_index):
        for tok, tag in zip(sentence.tokens, tags):
            self._latest[tok.surface.lower()] = tag_to_index[tag]


def cache_feature(doc_state, token, width):
    """One-hot of the cached label index; all-zero when unseen."""
    bits = np.zeros(width)
    idx = doc_state.get(token.surface) if doc_state is not None else None
    if idx is not None:
        bits[idx] = 1.0
    return bits


@dataclass
class FeatureConfig:
    capitalization: bool = False
    gazetteers: list = field(default_factory=list)
    trigger: object = None
    cache_tagset: list = None

    @property
    def width(self):
        w = 0
        if self.capitalization:
            w += CAP_WIDTH
        w += len(self.gazetteers)
        if self.trigger is not None:
            w += 1
        if self.cache_tagset is not None:
            w += len(self.cache_tagset)
        return w

    @property
    def uses_cache(self):
        return self.cache_tagset is not None


@dataclass
class InputEncoding:
    xs: np.ndarray  # (n, (2 v_c + 1) block), one window row per position
    word_indices: list
    block: int  # dim + F, width of one w-vector
    v_c: int
    dim: int

    def __len__(self):
        return len(self.xs)


def encode_sentence(sentence, table, fconf, v_c, doc_state=None):
    """Window the sentence into model inputs.

    x_i concatenates 2*v_c+1 consecutive w-vectors; positions beyond the
    sentence contribute zero blocks (PAD embedding, no feature fires).
    """
    if v_c < 0:
        raise ValueError("v_c must be >= 0, got %d" % v_c)
    n = len(sentence)
    dim = table.dim
    block = dim + fconf.width
    surfaces = sentence.surfaces()
    gaz_masks = [gazetteer_mask(surfaces, lex) for lex in fconf.gazetteers]

    w = np.zeros((n, block))
    indices = []
    for i, tok in enumerate(sentence.tokens):
        idx = table.vocab.index(tok.surface)
        indices.append(idx)
        w[i, :dim] = table.matrix[idx]
        at = dim
        if fconf.capitalization:
            w[i, at : at + CAP_WIDTH] = capitalization_features(tok.surface)
            at += CAP_WIDTH
        for mask in gaz_masks:
            w[i, at] = mask[i]
            at += 1
        if fconf.trigger is not None:
            w[i, at] = 1.0 if tok.surface in fconf.trigger else 0.0
            at += 1
        if fconf.cache_tagset is not None:
            width = len(fconf.cache_tagset)
            w[i, at : at + width] = cache_feature(doc_state, tok, width)
            at += width

    padded = np.zeros((n + 2 * v_c, block))
    padded[v_c : v_c + n] = w
    # slot k of row i is w_{i+k-v_c}: one shifted copy of w per slot
    xs = np.hstack([padded[k : k + n] for k in range(2 * v_c + 1)])
    return InputEncoding(xs=xs, word_indices=indices, block=block, v_c=v_c, dim=dim)
