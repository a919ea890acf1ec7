"""CoNLL-style corpus ingestion, vocabularies, and lexicon files."""

import os
import re
from dataclasses import dataclass, field

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

_DIGITS = re.compile(r"\d")


@dataclass
class Token:
    surface: str
    gold_tag: str = None


@dataclass
class Sentence:
    tokens: list
    doc_id: str = "0"

    def __len__(self):
        return len(self.tokens)

    def surfaces(self):
        return [t.surface for t in self.tokens]

    def tags(self):
        return [t.gold_tag for t in self.tokens]


def normalize(surface, lowercase=True, digits_to_zero=True):
    """Canonical form used for vocabulary and embedding lookup.

    Case information is not lost: the capitalization feature channel
    carries it separately.
    """
    s = surface
    if lowercase:
        s = s.lower()
    if digits_to_zero:
        s = _DIGITS.sub("0", s)
    return s


@dataclass
class Vocabulary:
    """Total word->index map with reserved padding and unknown entries."""

    index_to_word: list = field(default_factory=lambda: [PAD, UNK])
    word_to_index: dict = None
    lowercase: bool = True
    digits_to_zero: bool = True

    def __post_init__(self):
        if self.word_to_index is None:
            self.word_to_index = {w: i for i, w in enumerate(self.index_to_word)}

    def __len__(self):
        return len(self.index_to_word)

    def __contains__(self, surface):
        return self._key(surface) in self.word_to_index

    def _key(self, surface):
        return normalize(surface, self.lowercase, self.digits_to_zero)

    def index(self, surface):
        return self.word_to_index.get(self._key(surface), UNK_INDEX)

    def word(self, i):
        return self.index_to_word[i]

    def add(self, word):
        """Register an already-normalized word, returning its index."""
        if word in self.word_to_index:
            return self.word_to_index[word]
        self.word_to_index[word] = len(self.index_to_word)
        self.index_to_word.append(word)
        return self.word_to_index[word]


@dataclass
class Lexicon:
    name: str
    entries: set

    def __contains__(self, phrase):
        return phrase.lower() in self.entries

    @property
    def max_len(self):
        if not self.entries:
            return 0
        return max(len(e.split()) for e in self.entries)


def load_conll(path, token_col=0, tag_col=-1, tagged=True):
    """Read a whitespace-separated column file into sentences.

    Blank lines end sentences; a leading ``-DOCSTART-`` token starts a
    new document (the line itself is not a token). With tagged=False the
    tag column is ignored and gold_tag stays None.
    """
    sentences = []
    current = []
    doc_id = 0
    emitted_in_doc = 0

    def flush():
        nonlocal current, emitted_in_doc
        if current:
            sentences.append(Sentence(current, doc_id=str(doc_id)))
            current = []
            emitted_in_doc += 1

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                flush()
                continue
            cols = line.split()
            if cols[0] == "-DOCSTART-":
                flush()
                if emitted_in_doc:
                    doc_id += 1
                    emitted_in_doc = 0
                continue
            ncols = len(cols)
            tok_i = token_col if token_col >= 0 else ncols + token_col
            if not 0 <= tok_i < ncols:
                raise ValueError(
                    "%s line %d: token column %d out of range (%d columns)"
                    % (path, lineno, token_col, ncols)
                )
            tag = None
            if tagged:
                tag_i = tag_col if tag_col >= 0 else ncols + tag_col
                if not 0 <= tag_i < ncols or tag_i == tok_i:
                    raise ValueError(
                        "%s line %d: tag column %d out of range (%d columns)"
                        % (path, lineno, tag_col, ncols)
                    )
                tag = cols[tag_i]
            current.append(Token(cols[tok_i], tag))
    flush()
    return sentences


def build_vocab(sentences, min_count=1, lowercase=True, digits_to_zero=True):
    """Frequency-thresholded vocabulary over normalized surfaces.

    Index order is frequency descending with lexicographic tie-break, so
    the map is identical across runs on the same corpus.
    """
    if min_count < 1:
        raise ValueError("build_vocab: min_count must be >= 1, got %d" % min_count)
    freq = {}
    for sent in sentences:
        for tok in sent.tokens:
            key = normalize(tok.surface, lowercase, digits_to_zero)
            freq[key] = freq.get(key, 0) + 1
    kept = sorted(
        (w for w, c in freq.items() if c >= min_count),
        key=lambda w: (-freq[w], w),
    )
    vocab = Vocabulary(lowercase=lowercase, digits_to_zero=digits_to_zero)
    for w in kept:
        vocab.add(w)
    return vocab


def load_lexicon(path, name=None):
    """One phrase per line, lowercased, deduplicated."""
    entries = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            phrase = raw.strip()
            if phrase:
                entries.add(phrase.lower())
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return Lexicon(name=name, entries=entries)


def write_conll(sentences, path, tags=None):
    """Two-column output: surface and tag. `tags` overrides gold tags."""
    with open(path, "w", encoding="utf-8") as fh:
        prev_doc = None
        for si, sent in enumerate(sentences):
            if prev_doc is not None and sent.doc_id != prev_doc:
                fh.write("-DOCSTART-\n\n")
            prev_doc = sent.doc_id
            sent_tags = tags[si] if tags is not None else sent.tags()
            for tok, tag in zip(sent.tokens, sent_tags):
                fh.write("%s %s\n" % (tok.surface, tag if tag is not None else "O"))
            fh.write("\n")
