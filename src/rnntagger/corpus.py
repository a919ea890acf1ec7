"""CoNLL-style corpus ingestion, vocabularies, and lexicon files."""

import os
import re
from collections import Counter
from dataclasses import dataclass, field

from .linalg import check_size
from .tagging import split_tag

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

_DIGITS = re.compile(r"\d")


def read_lines(path):
    """(line number from 1, text) of every line of a UTF-8 file.  Each
    line is decoded on its own, so a line that is not UTF-8 is a
    ValueError naming the file and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError("%s:%d: not UTF-8: %s" % (path, lineno, e)) from None


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


def normalize(surface):
    """Canonical form used for vocabulary and embedding lookup: lowercased,
    every digit folded to 0.

    Case information is not lost: the capitalization feature channel
    carries it separately.
    """
    return _DIGITS.sub("0", surface.lower())


@dataclass
class Vocabulary:
    """Total word->index map with reserved padding and unknown entries."""

    index_to_word: list = field(default_factory=lambda: [PAD, UNK])
    word_to_index: dict = field(init=False)

    def __post_init__(self):
        self.word_to_index = dict(zip(self.index_to_word, range(len(self.index_to_word))))

    def __len__(self):
        return len(self.index_to_word)

    def index(self, surface):
        return self.word_to_index.get(normalize(surface), UNK_INDEX)

    @classmethod
    def of(cls, words):
        """The vocabulary that add() of each of the distinct words in turn
        builds, made in one pass: a literal PAD or UNK keeps its row."""
        return cls([PAD, UNK] + [w for w in words if w != PAD and w != UNK])

    def add(self, word):
        """Register an already-normalized word, returning its index."""
        if word in self.word_to_index:
            return self.word_to_index[word]
        self.word_to_index[word] = len(self.index_to_word)
        self.index_to_word.append(word)
        return self.word_to_index[word]


@dataclass
class Lexicon:
    """A set of phrases, frozen when the lexicon is built: each phrase is
    lowercased with every run of whitespace in it made one space (as
    gazetteer_mask joins tokens), an empty one is dropped, and max_len,
    the word count of the longest phrase, and prefixes, every phrase cut
    at each of its spaces and whole, are made once.  A run of tokens
    joined by spaces can equal a phrase only if its first token is one
    of the prefixes, whatever spaces the tokens hold."""

    name: str
    entries: frozenset
    max_len: int = field(init=False, repr=False, compare=False)
    prefixes: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entries = frozenset(" ".join(e.split()).lower() for e in self.entries) - {""}
        self.max_len = max((len(e.split()) for e in self.entries), default=0)
        self.prefixes = frozenset(" ".join(parts[:k]) for parts in
                                  (e.split(" ") for e in self.entries)
                                  for k in range(1, len(parts) + 1))


def load_conll(path, tagged=True):
    """Read a whitespace-separated column file into sentences: the token
    is the first column and the tag the last.

    Blank lines end sentences; a leading ``-DOCSTART-`` token starts a
    new document (the line itself is not a token). With tagged=False the
    tag column is ignored and gold_tag stays None; otherwise a tag that
    is not O or a prefixed type is a ValueError naming the file and line.
    """
    sentences = []
    current = []
    doc_id = 0
    emitted_in_doc = 0
    known_tags = set()   # checked once each

    def flush():
        nonlocal current, emitted_in_doc
        if current:
            sentences.append(Sentence(current, doc_id=str(doc_id)))
            current = []
            emitted_in_doc += 1

    for lineno, raw in read_lines(path):
        cols = raw.split()
        if not cols:
            flush()
            continue
        if cols[0] == "-DOCSTART-":
            flush()
            if emitted_in_doc:
                doc_id += 1
                emitted_in_doc = 0
            continue
        tag = None
        if tagged:
            if len(cols) < 2:
                raise ValueError("%s:%d: no tag column after the token"
                                 % (path, lineno))
            tag = cols[-1]
            if tag not in known_tags:
                try:
                    split_tag(tag)
                except ValueError as e:
                    raise ValueError("%s:%d: %s" % (path, lineno, e)) from None
                known_tags.add(tag)
        current.append(Token(cols[0], tag))
    flush()
    return sentences


def vocab_from_counts(freq, min_count=1):
    """Vocabulary of the normalized words seen at least min_count times.

    Index order is frequency descending with lexicographic tie-break, so
    the map is identical across runs on the same corpus. A literal PAD
    or UNK word maps to its reserved row.
    """
    check_size("min_count", min_count, 1)
    kept = sorted(w for w, c in freq.items() if c >= min_count)
    kept.sort(key=freq.__getitem__, reverse=True)   # stable: a tie keeps word order
    return Vocabulary.of(kept)


def build_vocab(sentences):
    """Vocabulary of every normalized surface in the sentences."""
    freq = Counter(normalize(tok.surface) for sent in sentences for tok in sent.tokens)
    return vocab_from_counts(freq)


def load_lexicon(path):
    """One phrase per line, in the form Lexicon gives it; the lexicon is
    named after the file, without its extension."""
    return Lexicon(name=os.path.splitext(os.path.basename(path))[0],
                   entries=[raw for _, raw in read_lines(path)])


def documents(sentences):
    """The sentence indices of each document, in corpus order: a document
    is a maximal run of consecutive sentences with one doc_id."""
    docs = []
    for i, sent in enumerate(sentences):
        if not docs or sent.doc_id != sentences[i - 1].doc_id:
            docs.append([])
        docs[-1].append(i)
    return docs


def write_conll(sentences, path, tags=None):
    """Two-column output: surface and tag. `tags` overrides gold tags."""
    starts = {doc[0] for doc in documents(sentences)[1:]}
    with open(path, "w", encoding="utf-8") as fh:
        for si, sent in enumerate(sentences):
            if si in starts:
                fh.write("-DOCSTART-\n\n")
            sent_tags = tags[si] if tags is not None else sent.tags()
            for tok, tag in zip(sent.tokens, sent_tags):
                fh.write("%s %s\n" % (tok.surface, tag if tag is not None else "O"))
            fh.write("\n")
