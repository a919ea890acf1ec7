"""Per-token input vectors: embeddings, discrete features, and windowing.

A token's vector is w_i = [e_i, f_i] (embedding plus binary features);
the model input is the window x_i = [w_{i-v_c}, ..., w_i, ..., w_{i+v_c}]
with zero blocks past either sentence edge.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .corpus import PAD_INDEX, UNK, UNK_INDEX, Vocabulary, read_lines


class EmbeddingTable:
    """|V| x dim float matrix, one row per vocabulary entry.

    The PAD row is all-zero and stays that way: fine-tuning updates are
    routed through add_grad, which drops anything aimed at PAD.
    """

    def __init__(self, vocab, dim, matrix, trainable=True):
        if not linalg.is_int(dim) or dim < 1:
            raise ValueError("embedding.dim must be an integer >= 1, got %r" % (dim,))
        self.vocab = vocab
        self.dim = dim
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

    def add_grad(self, rows, grads, lr):
        """SGD step on the distinct rows `rows`, row k of grads being the
        gradient of rows[k]; PAD is frozen."""
        if self.trainable:
            keep = rows != PAD_INDEX
            self.matrix[rows[keep]] -= lr * grads[keep]

    def save_text(self, path):
        """Write the text format; a non-finite row is a FloatingPointError
        that names its word, raised before the file is opened."""
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            raise FloatingPointError("the row for %r holds a non-finite value"
                                     % self.vocab.index_to_word[finite.argmin()])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%d %d\n" % (len(self.vocab), self.dim))
            for word, row in zip(self.vocab.index_to_word, self.matrix):
                fh.write(word + " " + " ".join(map(float.__repr__, row.tolist())) + "\n")


def load_embeddings(path):
    """Read the text format back into a table.

    Accepts files with or without the "count dim" header. Words absent
    from the file get deterministic rows: PAD zero, UNK the mean of all
    loaded vectors. A value that is not a finite number, a row with no
    values or of the wrong width, or a row count other than the header's
    raises ValueError naming the file and line; so does a sum of the
    rows that overflows, naming the file, when the file has no row for UNK.
    """
    words, rows, linenos = [], [], []
    header = None   # (count, dim), from a first line of two integers
    for lineno, raw in read_lines(path):
        parts = raw.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
            header = tuple(map(int, parts))
            continue
        try:
            # numpy parses each str as float() does, without making a
            # Python float per value
            row = np.array(parts[1:], dtype=np.float64)
        except ValueError as e:
            raise ValueError("%s:%d: row for %r: %s"
                             % (path, lineno, parts[0], e)) from None
        if not len(row):
            raise ValueError("%s:%d: row for %r has no values" % (path, lineno, parts[0]))
        width = header[1] if header else len(rows[0]) if rows else len(row)
        if len(row) != width:
            raise ValueError("%s:%d: row for %r has %d values, expected %d"
                             % (path, lineno, parts[0], len(row), width))
        words.append(parts[0])
        rows.append(row)
        linenos.append(lineno)
    if not words:
        raise ValueError("%s: no embedding rows" % path)
    dim = len(rows[0])
    values = np.stack(rows)
    del rows   # freed before the matrix is built, which lowers the peak
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError("%s:%d: row for %r holds a non-finite value"
                         % (path, linenos[i], words[i]))
    if header and header[0] != len(words):
        raise ValueError("%s:1: the header gives %d rows, the file has %d"
                         % (path, header[0], len(words)))

    first = {}   # word -> its first line; a duplicate line is dropped
    for i, w in enumerate(words):
        first.setdefault(w, i)
    vocab = Vocabulary()
    for w in first:
        vocab.add(w)
    matrix = np.zeros((len(vocab), dim))
    if UNK not in first:
        with np.errstate(over="ignore"):   # an overflow is reported below
            matrix[UNK_INDEX] = np.mean(values, axis=0)
        if not np.isfinite(matrix[UNK_INDEX]).all():
            raise ValueError("%s: the row for %r, the mean of the rows, cannot be"
                             " computed: their sum overflows" % (path, UNK))
    matrix[[vocab.word_to_index[w] for w in first]] = values[list(first.values())]
    return EmbeddingTable(vocab, dim, matrix)


# --- discrete feature channels ---

CAP_WIDTH = 5


def capitalization_class(surface):
    """Which of [all-lower, all-upper, init-cap, mixed, no-alpha] the
    surface is, as an index; each letter is tested on its own, so an
    uncased letter (中) is neither lower nor upper."""
    alpha = [c for c in surface if c.isalpha()]
    if not alpha:
        return 4
    if all(c.islower() for c in alpha):
        return 0
    if all(c.isupper() for c in alpha):
        return 1
    if alpha[0].isupper() and all(c.islower() for c in alpha[1:]):
        return 2
    return 3


def gazetteer_mask(lowered, lexicon):
    """Greedy longest-first phrase matching of the lowercased tokens
    lowered, one pass left to right.

    Returns a 0/1 array marking tokens covered by a match; matched
    regions do not overlap.  No match starts at a token outside
    lexicon.prefixes, so no phrase is joined there.
    """
    n = len(lowered)
    mask = np.zeros(n)
    entries, starts, cap = lexicon.entries, lexicon.prefixes, lexicon.max_len
    i = 0
    while i < n:
        hit = 0
        if lowered[i] in starts:
            for length in range(min(cap, n - i), 0, -1):
                if " ".join(lowered[i : i + length]) in entries:
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

    def get(self, lowered):
        """The label index cached for a lowercased surface, or None."""
        return self._latest.get(lowered)

    def update_sentence(self, sentence, tags, tag_to_index):
        """Cache each token's tag under its lowercased surface."""
        self._latest.update(zip((s.lower() for s in sentence.surfaces()),
                                map(tag_to_index.__getitem__, tags)))


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

    def input_width(self, dim, v_c):
        """Width of one model input: 2 v_c + 1 w-vectors of dim + F."""
        return (dim + self.width) * (2 * v_c + 1)


def token_features(sentence, vocab, fconf, doc_state=None, facts=None):
    """The part of a sentence's input that fine-tuning never changes:
    its word indices and its (n, F) 0/1 feature columns, the cache
    columns read from doc_state.

    facts, the surface facts table, maps a surface to its (vocab index,
    capitalization class, lowercased form); the surfaces it lacks are
    worked out and added, so sentences sharing one table, as tag_corpus's
    do, work each distinct surface out once.  A table holds one vocab's
    indices.  Without one the sentence gets its own.
    """
    n = len(sentence)
    facts = {} if facts is None else facts
    rows = []
    for s in sentence.surfaces():
        fact = facts.get(s)
        if fact is None:
            fact = facts[s] = (vocab.index(s), capitalization_class(s), s.lower())
        rows.append(fact)
    indices = [r[0] for r in rows]
    lowered = [r[2] for r in rows]
    features = np.zeros((n, fconf.width))
    at = 0
    if fconf.capitalization:
        features[np.arange(n), [r[1] for r in rows]] = 1.0
        at += CAP_WIDTH
    for lex in fconf.gazetteers:
        features[:, at] = gazetteer_mask(lowered, lex)
        at += 1
    if fconf.trigger is not None:
        entries = fconf.trigger.entries
        features[:, at] = [w in entries for w in lowered]
        at += 1
    if fconf.cache_tagset is not None and doc_state is not None:
        # one-hot of each token's cached label; all-zero when unseen
        hits = [(i, at + k) for i, k in enumerate(map(doc_state.get, lowered))
                if k is not None]
        if hits:
            features[tuple(zip(*hits))] = 1.0
    return indices, features


def window_inputs(table, indices, features, v_c):
    """Window the w-vectors [embedding row, feature columns] into the
    (n, (2 v_c + 1) (dim + F)) model inputs: x_i concatenates 2*v_c+1
    consecutive w-vectors, and positions beyond the sentence contribute
    zero blocks (PAD embedding, no feature fires)."""
    if v_c < 0:
        raise ValueError("v_c must be >= 0, got %d" % v_c)
    n, dim = len(indices), table.dim
    block = dim + features.shape[1]
    padded = np.zeros((n + 2 * v_c, block))
    w = padded[v_c : v_c + n]   # row i is w_i, the rows either side stay zero
    w[:, :dim] = table.matrix[indices]
    w[:, dim:] = features
    # slot k of row i is w_{i+k-v_c}: row i is the 2 v_c + 1 rows of padded
    # from row i on, which lie back to back, so the reshape copies nothing
    # and the inputs are a read-only view whose rows overlap.  Copying them
    # out would make them 2 v_c + 1 times padded's size in memory.
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * v_c + 1, axis=0)
    return windows.transpose(0, 2, 1).reshape(n, (2 * v_c + 1) * block)


def encode_sentence(sentence, table, fconf, v_c, doc_state=None, facts=None):
    """The sentence's (n, I) model inputs under the document cache state
    doc_state, reading and extending the surface facts table facts."""
    return window_inputs(table, *token_features(sentence, table.vocab, fconf, doc_state, facts),
                         v_c)
