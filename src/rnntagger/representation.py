"""Per-token input vectors: embeddings, discrete features, and windowing.

A token's vector is w_i = [e_i, f_i] (embedding plus binary features);
the model input is the window x_i = [w_{i-v_c}, ..., w_i, ..., w_{i+v_c}]
with zero blocks past either sentence edge.
"""

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg, workers
from .corpus import PAD_INDEX, UNK, UNK_INDEX, Vocabulary, normalize, read_lines


# The fewest values worth a process of their own when writing a vectors
# file.  Measured on a 2 vCPU Xeon VM (Python 3.11) in a process that had
# just run the perfbench seed-1 embed workload, on its first k rows of 50
# values (medians of 25 writes, two runs): two processes against one ran
# 0.46x as fast at 2000 values, 0.85-0.88x at 6000, 0.93-1.00x at 8000,
# 1.04x at 10000, 1.06-1.08x at 12000 and 1.70x at the whole table's
# 94550: they break even near 9000 values.
MIN_VALUES_PER_PROCESS = 5000


class EmbeddingTable:
    """|V| x dim float matrix, one row per vocabulary entry.

    The PAD row is all-zero and stays that way: fine-tuning updates are
    routed through add_grad, which drops anything aimed at PAD.
    """

    def __init__(self, vocab, dim, matrix, trainable=True):
        self.vocab = vocab
        self.dim = linalg.check_size("embedding.dim", dim, 1)
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
        return cls(vocab, dim, linalg.uniform_init(rng, (len(vocab), dim), 0.5 / dim))

    def add_grad(self, rows, grads, lr):
        """SGD step on the distinct rows `rows`, row k of grads being the
        gradient of rows[k]; PAD is frozen."""
        if self.trainable:
            keep = rows != PAD_INDEX
            self.matrix[rows[keep]] -= lr * grads[keep]

    def save_text(self, path):
        """Write the text format: a "count dim" line, then a line per row,
        its word and float.__repr__ of each value.  A non-finite row is a
        FloatingPointError that names its word, raised before the file is
        opened.

        On Linux the rows are split into contiguous ranges of near-equal
        size (see _row_ranges): one per process of workers.process_count,
        but no more than one per row or per MIN_VALUES_PER_PROCESS values.
        After the header, workers.run_parts writes each range to path, the
        other processes' ones through temporary files beside path.  Every
        line comes from _write_rows, so the bytes do not depend on the
        split.  A worker that ends without its rows is a WorkerError
        naming them and path; when the write fails in any way, the partial
        file is removed.
        """
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            raise FloatingPointError("the row for %r holds a non-finite value"
                                     % self.vocab.index_to_word[finite.argmin()])
        words = self.vocab.index_to_word

        def work(part, fh):
            _write_rows(fh, words[part], self.matrix[part])

        def lost(part, how):
            return ("the worker writing rows %d-%d of %s %s without writing them"
                    % (part.start + 1, part.stop, path, how))

        out = open(path, "wb")
        try:
            with out:
                out.write(b"%d %d\n" % (len(words), self.dim))
                workers.run_parts(_row_ranges(len(words), self.dim), work, out, lost,
                                  tmpdir=os.path.dirname(os.path.abspath(path)))
        except BaseException:
            os.remove(path)
            raise


def _row_ranges(rows, dim):
    """rows rows of dim values split into contiguous slices of near-equal
    size, one per process that workers.process_count allows, but no more
    than one per row or per MIN_VALUES_PER_PROCESS values."""
    n = workers.process_count(rows, rows * dim // MIN_VALUES_PER_PROCESS)
    return [slice(k * rows // n, (k + 1) * rows // n) for k in range(n)]


def _write_rows(fh, words, matrix):
    """The text format's line for each word and its row of matrix, written
    one at a time to the binary file fh."""
    for word, row in zip(words, matrix):
        fh.write((word + " " + " ".join(map(float.__repr__, row.tolist())) + "\n")
                 .encode("utf-8"))


def _header(raw):
    """(count, dim) when the line raw is two integers, else None."""
    parts = raw.split()
    if len(parts) == 2 and all(p.isdecimal() for p in parts):
        return tuple(map(int, parts))
    return None


def _parse_one_pass(path):
    """(words, values, line numbers, header) of a vectors file, every value
    read by one np.loadtxt call over the text after each line's word.

    None when loadtxt refuses a value, or reads a row count or a width
    other than the lines give: a value that only float() reads (1_000,
    an Arabic-Indic digit), a lone CR, a word with no values and every
    defect.  _parse_per_line then gives the same values or the message.
    """
    words, linenos, header = [], [], None

    def rests():
        nonlocal header
        for lineno, raw in read_lines(path):
            parts = raw.split(None, 1)
            if not parts:
                continue
            if lineno == 1 and (header := _header(raw)):
                continue
            words.append(parts[0])
            linenos.append(lineno)
            # a word with no values yields a blank line, which loadtxt
            # skips, so the row count tells it
            yield parts[1] if len(parts) == 2 else ""

    lines = rests()
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, by the caller
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    finally:
        lines.close()
    if len(values) != len(words) or header and values.shape[1] != header[1]:
        return None
    return words, values, linenos, header


def _parse_per_line(path):
    """_parse_one_pass's result one line at a time; the first malformed
    line raises ValueError naming the file and the line."""
    words, rows, linenos = [], [], []
    header = None   # (count, dim), from a first line of two integers
    for lineno, raw in read_lines(path):
        parts = raw.split()
        if not parts:
            continue
        if lineno == 1 and (header := _header(raw)):
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
    return words, np.stack(rows) if rows else np.empty((0, 0)), linenos, header


def load_embeddings(path):
    """Read the text format back into a table.

    Accepts files with or without the "count dim" header. Words are
    normalized, and a word's first line gives its row (<UNK>'s is UNK's).
    Words absent from the file get deterministic rows: PAD zero, UNK the
    mean of all loaded vectors. A value that is not a finite number, a
    row with no values or of the wrong width, or a row count other than
    the header's raises ValueError naming the file and line; so does a
    sum of the rows that overflows, naming the file, when the file has
    no row for UNK.
    """
    words, values, linenos, header = _parse_one_pass(path) or _parse_per_line(path)
    if not words:
        raise ValueError("%s: no embedding rows" % path)
    dim = values.shape[1]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError("%s:%d: row for %r holds a non-finite value"
                         % (path, linenos[i], words[i]))
    if header and header[0] != len(words):
        raise ValueError("%s:1: the header gives %d rows, the file has %d"
                         % (path, header[0], len(words)))

    joined = " ".join(words)   # normalized in one pass over the joined words
    if (normal := normalize(joined)) != joined:
        words = normal.split(" ")
    first = {}   # word -> its first line; a later line of the same word is dropped
    for i, w in enumerate(words):
        first.setdefault(w, i)
    vocab = Vocabulary.of(first)
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
        return (CAP_WIDTH * bool(self.capitalization) + len(self.gazetteers)
                + (self.trigger is not None) + len(self.cache_tagset or ()))

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
    """The (n, (2 v_c + 1) (dim + F)) model inputs: linalg.windows' read-only
    view of the w-vectors [embedding row, feature columns] with v_c zero rows
    on each side, so positions beyond the sentence contribute zero blocks
    (PAD embedding, no feature fires)."""
    n, dim = len(indices), table.dim
    padded = np.zeros((n + 2 * v_c, dim + features.shape[1]))
    padded[v_c : v_c + n, :dim] = table.matrix[indices]   # row v_c + i is w_i
    padded[v_c : v_c + n, dim:] = features
    return linalg.windows(padded, 2 * v_c + 1)   # slot k of row i is w_{i+k-v_c}


def encode_sentence(sentence, table, fconf, v_c, doc_state=None, facts=None):
    """The sentence's (n, I) model inputs under the document cache state
    doc_state, reading and extending the surface facts table facts."""
    linalg.check_size("v_c", v_c, 0)
    return window_inputs(table, *token_features(sentence, table.vocab, fconf, doc_state, facts),
                         v_c)
