"""CoNLL-style corpus ingestion, vocabularies, and lexicon files."""

import os
import re
from collections import Counter
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


def load_conll(path, tagged=True):
    """Read a whitespace-separated column file into sentences: the token
    is the first column and the tag the last.

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
            tag = None
            if tagged:
                if len(cols) < 2:
                    raise ValueError("%s line %d: no tag column after the token"
                                     % (path, lineno))
                tag = cols[-1]
            current.append(Token(cols[0], tag))
    flush()
    return sentences


def vocab_from_counts(freq, min_count=1, lowercase=True, digits_to_zero=True):
    """Vocabulary of the normalized words seen at least min_count times.

    Index order is frequency descending with lexicographic tie-break, so
    the map is identical across runs on the same corpus. A literal PAD
    or UNK word maps to its reserved row.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1, got %d" % min_count)
    kept = sorted(
        (w for w, c in freq.items() if c >= min_count),
        key=lambda w: (-freq[w], w),
    )
    vocab = Vocabulary(lowercase=lowercase, digits_to_zero=digits_to_zero)
    for w in kept:
        vocab.add(w)
    return vocab


def build_vocab(sentences, min_count=1, lowercase=True, digits_to_zero=True):
    """Frequency-thresholded vocabulary over normalized surfaces."""
    freq = Counter(normalize(tok.surface, lowercase, digits_to_zero)
                   for sent in sentences for tok in sent.tokens)
    return vocab_from_counts(freq, min_count, lowercase, digits_to_zero)


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
