"""Seeded synthetic inputs for the benchmark, written as the files the
program reads: a pre-trained vectors file, a gazetteer, tagged and
untagged CoNLL-style column files, and raw text.

Only the benchmark's own RNG (Python's `random.Random`) is used, so the
inputs do not change when the program's RNG does.  Sentence lengths come
from a fixed quantile schedule that every seed shares, only shuffled, so
that the O(n^2) cost of a corpus is the same for every seed and seeds
differ only in which words fill the sentences.
"""

import bisect
import math
import random
from statistics import NormalDist

VOCAB_TYPES = 10000     # the newswire vocabulary, all of it in the vectors file
EMBED_TYPES = 5000      # the raw-text vocabulary of the embed workload
VECTOR_DIM = 50
ZIPF_S = 1.0
MEAN_LEN = 20.0
MAX_LEN = 60
MIN_LEN = 3
FUNCTION_WORDS = [",", ".", "the", "of", "to", "and", "a", "in", "said",
                  "for", "on", "that", "is", "was", "with", "by", "at",
                  "from", "as", "it"]
ORG_TAILS = ["corp", "group"]
ENTITY_TYPES = ("LOC", "ORG", "PER")
SENTS_PER_DOC = 10

_ONSETS = ["b", "br", "c", "d", "dr", "f", "g", "gr", "h", "k", "l", "m",
           "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "n", "r", "s", "l", "m", "t"]


def length_schedule(n_sents):
    """Sentence lengths shared by every seed: lognormal quantiles with a
    mean near MEAN_LEN, clipped to [MIN_LEN, MAX_LEN], and the longest
    sentence stretched to MAX_LEN so every corpus has the long tail."""
    sigma = 0.55
    mu = math.log(MEAN_LEN) - sigma * sigma / 2.0
    dist = NormalDist()
    lengths = [min(MAX_LEN, max(MIN_LEN, round(math.exp(
        mu + sigma * dist.inv_cdf((i + 0.5) / n_sents)))))
        for i in range(n_sents)]
    lengths[-1] = MAX_LEN
    return lengths


def _pseudo_words(rng, n, taken):
    words = []
    seen = set(taken)
    while len(words) < n:
        w = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                    for _ in range(rng.randint(2, 3)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


class Lexicon:
    """A Zipf-ranked vocabulary whose entity class is a function of the
    word: function words and numbers are O, and about 3 in 10 content
    words are PER, ORG or LOC names."""

    def __init__(self, rng, n_types):
        reserved = FUNCTION_WORDS + ORG_TAILS
        self.words = FUNCTION_WORDS + _pseudo_words(
            rng, n_types - len(FUNCTION_WORDS) - len(ORG_TAILS), reserved) + ORG_TAILS
        # the ORG tails only ever follow an ORG name, so they carry no Zipf mass
        weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n_types - len(ORG_TAILS))]
        self.cum = []
        total = 0.0
        for w in weights:
            total += w
            self.cum.append(total)
        self.entity = {}
        for r in range(len(FUNCTION_WORDS), n_types - len(ORG_TAILS)):
            kind = r % 10
            if kind == 3:
                self.entity[r] = "PER"
            elif kind == 5:
                self.entity[r] = "ORG"
            elif kind == 7:
                self.entity[r] = "LOC"

    def draw(self, rng):
        return bisect.bisect_left(self.cum, rng.random() * self.cum[-1])


def _sentence(rng, lex, length):
    """(surface, BIO2 tag) pairs, exactly `length` tokens long."""
    out = []
    while len(out) < length:
        if rng.random() < 0.04:
            out.append((str(rng.randint(1, 2030)), "O"))
            continue
        r = lex.draw(rng)
        word = lex.words[r]
        etype = lex.entity.get(r)
        if etype is None:
            out.append((word, "O"))
            continue
        out.append((word.capitalize(), "B-" + etype))
        if etype == "ORG" and len(out) < length and r % 20 == 5:
            out.append((ORG_TAILS[r % 40 // 20], "I-ORG"))
    first, tag = out[0]
    out[0] = (first[:1].upper() + first[1:], tag)
    return out


def _sentences(rng, lex, lengths):
    lengths = list(lengths)
    rng.shuffle(lengths)
    return [_sentence(rng, lex, n) for n in lengths]


def _write_columns(path, sentences, tagged, docs_every=None):
    with open(path, "w", encoding="utf-8") as fh:
        for i, sent in enumerate(sentences):
            if docs_every and i % docs_every == 0:
                fh.write("-DOCSTART- O\n\n" if tagged else "-DOCSTART-\n\n")
            for word, tag in sent:
                fh.write("%s %s\n" % (word, tag) if tagged else word + "\n")
            fh.write("\n")


def _write_vectors(path, rng, words):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(words), VECTOR_DIM))
        for w in words:
            fh.write(w + " " + " ".join(
                "%.6f" % rng.uniform(-0.5, 0.5) for _ in range(VECTOR_DIM)) + "\n")


def tagger_inputs(seed, paths, n_types, train_lengths, prep_lengths, tag_docs):
    """Write the tagger workloads' files.

    paths: dict with keys vectors, gazetteer, train, prep, tag.
    `train` holds tagged sentences of train_lengths (one document),
    `prep` tagged sentences of prep_lengths that the models for `tag` are
    trained on, and `tag` tag_docs untagged documents of SENTS_PER_DOC
    sentences each, with lengths from the shared schedule.
    """
    rng = random.Random("tagger-%d" % seed)
    lex = Lexicon(rng, n_types)
    _write_vectors(paths["vectors"], rng, lex.words)
    locs = sorted(lex.words[r] for r, t in lex.entity.items() if t == "LOC")
    with open(paths["gazetteer"], "w", encoding="utf-8") as fh:
        for i, w in enumerate(locs):
            if i % 3:
                fh.write(w + "\n")
            if i % 7 == 0:
                fh.write("%s %s\n" % (w, locs[(i * 31) % len(locs)]))
    _write_columns(paths["train"], _sentences(rng, lex, train_lengths), tagged=True)
    _write_columns(paths["prep"], _sentences(rng, lex, prep_lengths), tagged=True)
    tag_lengths = length_schedule(tag_docs * SENTS_PER_DOC) if tag_docs else []
    _write_columns(paths["tag"], _sentences(rng, lex, tag_lengths),
                   tagged=False, docs_every=SENTS_PER_DOC)


def raw_text(seed, path, n_types, lengths):
    """Zipf raw text, one sentence per line; returns the number of
    tokens written."""
    rng = random.Random("embed-%d" % seed)
    lex = Lexicon(rng, n_types)
    n_tokens = 0
    with open(path, "w", encoding="utf-8") as fh:
        for sent in _sentences(rng, lex, lengths):
            fh.write(" ".join(w for w, _ in sent) + "\n")
            n_tokens += len(sent)
    return n_tokens


def half_keep_threshold(counts):
    """The subsample threshold t at which the expected share of tokens
    the word2vec rule keeps is one half (bisection on log t)."""
    n = sum(counts)

    def kept(t):
        total = 0.0
        for f in counts:
            ratio = f / (t * n)
            total += f * min(1.0, (math.sqrt(ratio) + 1.0) / ratio)
        return total / n

    lo, hi = -12.0, 0.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if kept(10.0 ** mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 10.0 ** hi
