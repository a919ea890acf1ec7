"""Tagging a corpus in rounds across documents never changes a prediction.

tag_corpus runs the j-th sentence of every document as one batch; the
oracle here is the per-sentence loop it replaced, with a fresh label
cache whenever doc_id changes.  Every sentence must get the same tags
and bitwise the same distributions as forward_batch gives it alone under
the same cache state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger import architectures
from rnntagger.architectures import ModelSpec, forward_batch, init_model, run_chain
from rnntagger.cells import cell_for, init_params
from rnntagger.cli import _grid_specs
from rnntagger.corpus import Sentence, Token, build_vocab
from rnntagger.linalg import SeededRng
from rnntagger.model import Model, tag_corpus, tag_sentence
from rnntagger.representation import DocCache, EmbeddingTable, FeatureConfig, encode_sentence
from rnntagger.tagging import BIO2, make_tagset

WORDS = ["Paris", "paris", "the", "Bank", "of", "Jo", "said", "X1", "ACME", "in"]
DIM, HIDDEN, V_C = 4, 5, 1


# (arch, encoder, decoder) of every combination ModelSpec accepts
SPECS = [(s.arch, s.encoder_cell, s.decoder_cell) for s in _grid_specs(1, 1, 1)]


def make_model(arch, enc, dec, cache, seed):
    tagset = make_tagset(["LOC", "PER"], BIO2)
    rng = SeededRng(seed)
    table = EmbeddingTable.random(build_vocab([Sentence([Token(w) for w in WORDS])]),
                                  DIM, rng)
    fconf = FeatureConfig(capitalization=True, cache_tagset=tagset if cache else None)
    spec = ModelSpec(arch=arch, n_in=(DIM + fconf.width) * (2 * V_C + 1), hidden=HIDDEN,
                     n_tags=len(tagset), encoder_cell=enc, decoder_cell=dec)
    params = init_model(spec, rng)
    for bundle in params.values():
        for name, p in bundle.items():
            # weights large enough that the cache channel moves the argmax
            bundle[name] = rng.uniform(p.size, -2.0, 2.0).reshape(p.shape)
    return Model(spec=spec, params=params, table=table, fconf=fconf, tagset=tagset,
                 scheme=BIO2, v_c=V_C)


def tag_one_by_one(model, sentences):
    """The per-sentence loop: (tags, inputs, distributions) per sentence."""
    cache = None
    out = []
    for k, sent in enumerate(sentences):
        if model.fconf.uses_cache and (k == 0 or sent.doc_id != sentences[k - 1].doc_id):
            cache = DocCache()
        xs = encode_sentence(sent, model.table, model.fconf, model.v_c, cache)
        dists = forward_batch(model.spec, model.params, [xs])[0]
        tags = [model.tagset[int(np.argmax(o))] for o in dists]
        if cache is not None:
            cache.update_sentence(sent, tags, model.tag_to_index)
        out.append((tags, xs, dists))
    return out


def tag_recording(model, sentences, monkeypatch):
    """tag_corpus, plus the (inputs, distributions) of every batched sentence."""
    seen = []
    batch_sizes = []
    forward = architectures.forward_batch

    def recording(spec, params, xss):
        dists = forward(spec, params, xss)
        seen.extend(zip(xss, dists))
        batch_sizes.append(len(xss))
        return dists

    monkeypatch.setattr(architectures, "forward_batch", recording)
    return tag_corpus(model, sentences), seen, batch_sizes


def assert_same_as_one_by_one(model, sentences, monkeypatch):
    expected = tag_one_by_one(model, sentences)
    tags, seen, batch_sizes = tag_recording(model, sentences, monkeypatch)
    assert tags == [t for t, _, _ in expected]
    assert len(seen) == len(sentences)
    for _, xs, dists in expected:
        # the batched sentence encoded under the same cache state
        match = [d for bx, d in seen if bx.shape == xs.shape and np.array_equal(bx, xs)]
        assert match, "no batched sentence had these inputs"
        assert np.array_equal(match[0], dists)
    return batch_sizes


def corpus(docs):
    """docs: [(doc_id, [sentence lengths])] -> sentences in that order."""
    sents = []
    k = 0
    for doc_id, lengths in docs:
        for n in lengths:
            sents.append(Sentence([Token(WORDS[(k + 3 * i) % len(WORDS)]) for i in range(n)],
                                  doc_id=doc_id))
            k += 1
    return sents


documents = st.lists(
    st.tuples(st.sampled_from("abc"), st.lists(st.integers(1, 12), min_size=1, max_size=4)),
    min_size=1, max_size=5)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SPECS), st.booleans(), documents, st.integers(0, 2**16))
def test_rounds_match_per_sentence_tagging(spec, cache, docs, seed):
    with pytest.MonkeyPatch.context() as mp:
        assert_same_as_one_by_one(make_model(*spec, cache, seed), corpus(docs), mp)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(map(str, s)))
def test_returning_doc_id_starts_a_fresh_cache(spec, monkeypatch):
    # a, b, a: three documents, so the second 'a' run is not fed the first
    # one's labels, and the rounds hold three sentences of unequal length
    sents = corpus([("a", [5, 3, 7]), ("b", [2, 9]), ("a", [4, 1, 6])])
    model = make_model(*spec, cache=True, seed=4)
    batch_sizes = assert_same_as_one_by_one(model, sents, monkeypatch)
    assert batch_sizes == [3, 3, 2]
    fresh = encode_sentence(sents[5], model.table, model.fconf, model.v_c, DocCache())
    assert np.array_equal(tag_one_by_one(model, sents)[5][1], fresh)


def test_tag_sentence_is_a_document_of_its_own():
    # an empty cache and no cache at all give the same all-zero cache block
    for spec in SPECS:
        model = make_model(*spec, cache=True, seed=5)
        for sent in corpus([("a", [1, 6, 11])]):
            xs = encode_sentence(sent, model.table, model.fconf, model.v_c, None)
            dists = forward_batch(model.spec, model.params, [xs])[0]
            assert tag_sentence(model, sent) == architectures.argmax_tags(dists, model.tagset)


def test_steps_run_only_live_rows(monkeypatch):
    cell = cell_for("ELMAN")
    p = init_params(cell.param_shapes(3, 4, 2), SeededRng(1))
    rows = []
    step = cell.step

    def counting(params, proj, carry):
        rows.append(len(carry))
        return step(params, proj, carry)

    monkeypatch.setattr(cell, "step", staticmethod(counting))
    lengths = [2, 6, 1, 4]
    xss = [SeededRng(n).uniform(3 * n, -1, 1).reshape(n, 3) for n in lengths]
    runs = run_chain(cell, p, None, xss)
    # one step per position of the longest chain, each over the chains
    # still running: 13 rows in all, the sum of the lengths
    assert rows == [4, 3, 2, 2, 1, 1]
    assert [len(r.states) for r in runs] == lengths
