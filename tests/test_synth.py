import numpy as np
import pytest

from rnntagger.corpus import build_vocab
from rnntagger.linalg import SeededRng
from rnntagger.representation import EmbeddingTable, FeatureConfig, encode_sentence
from rnntagger.synth import (
    FUTURE_CUES,
    FUTURE_LENGTH,
    future_dep_corpus,
    memorize_corpus,
)
from rnntagger.tagging import BIO2, spans_to_tags, tags_to_spans


def surfaces_and_tags(sentences):
    return [(s.surfaces(), s.tags()) for s in sentences]


# --------------------------------------------------------------- memorize

def test_memorize_default_size():
    assert len(memorize_corpus()) == 50


def test_memorize_is_deterministic():
    a = memorize_corpus(size=30, seed=5)
    b = memorize_corpus(size=30, seed=5)
    assert surfaces_and_tags(a) == surfaces_and_tags(b)
    c = memorize_corpus(size=30, seed=6)
    assert surfaces_and_tags(a) != surfaces_and_tags(c)


def test_memorize_tags_are_wellformed_bio2():
    for s in memorize_corpus(size=50, seed=1):
        tags = s.tags()
        spans = tags_to_spans(tags)
        assert spans_to_tags(spans, len(tags), BIO2) == tags


def test_memorize_has_three_types():
    types = {sp.type
             for s in memorize_corpus(size=50, seed=1)
             for sp in tags_to_spans(s.tags())}
    assert types == {"LOC", "ORG", "PER"}


def test_memorize_labels_are_a_function_of_the_surface():
    seen = {}
    for s in memorize_corpus(size=80, seed=3):
        for tok in s.tokens:
            if tok.surface in seen:
                assert seen[tok.surface] == tok.gold_tag, tok.surface
            seen[tok.surface] = tok.gold_tag


# ------------------------------------------------------------- future-dep

def test_future_dep_shape():
    corpus = future_dep_corpus(size=20, seed=2)
    assert len(corpus) == 20
    assert all(len(s) == FUTURE_LENGTH for s in corpus)


def test_future_dep_odd_size_rejected():
    with pytest.raises(ValueError):
        future_dep_corpus(size=7, seed=1)


def test_future_dep_is_deterministic():
    a = future_dep_corpus(size=16, seed=9)
    b = future_dep_corpus(size=16, seed=9)
    assert surfaces_and_tags(a) == surfaces_and_tags(b)


def test_future_dep_pairs_differ_only_in_the_cue():
    corpus = future_dep_corpus(size=20, seed=4)
    for i in range(0, len(corpus), 2):
        a, b = corpus[i].surfaces(), corpus[i + 1].surfaces()
        assert a[:-1] == b[:-1]
        assert a[-1] != b[-1]


def test_future_dep_first_tag_is_decided_by_the_cue():
    for s in future_dep_corpus(size=30, seed=7):
        cue = s.tokens[-1].surface
        assert s.tokens[0].gold_tag == FUTURE_CUES[cue]
        assert all(t.gold_tag == "O" for t in s.tokens[1:])


def test_future_dep_first_position_input_is_identical_within_a_pair():
    # the property the disambiguation experiment rests on: with v_c=1 a
    # left-to-right pass cannot see the cue from position 0
    corpus = future_dep_corpus(size=10, seed=11)
    vocab = build_vocab(corpus)
    table = EmbeddingTable.random(vocab, 4, SeededRng(3))
    fconf = FeatureConfig()
    for i in range(0, len(corpus), 2):
        xa = encode_sentence(corpus[i], table, fconf, v_c=1)
        xb = encode_sentence(corpus[i + 1], table, fconf, v_c=1)
        assert np.array_equal(xa[0], xb[0])
        assert not np.array_equal(xa[-1], xb[-1])
