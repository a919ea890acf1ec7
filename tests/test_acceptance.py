"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained and rebuilds what it needs from scratch;
together they are the pass/fail gate for the package.
"""

import os
import time
from collections import Counter

import numpy as np

from rnntagger import cli, pretrain
from rnntagger.architectures import (ModelSpec, decode_window, encode,
                                     forward_batch, init_model)
from rnntagger.corpus import build_vocab, vocab_from_counts, write_conll
from rnntagger.evaluation import score
from rnntagger.linalg import SeededRng
from rnntagger.model import Model, tag_corpus
from rnntagger.pretrain import (CBOW, CCONCAT, SKIPGRAM, EmbedConfig,
                                UnigramTable, cbow_grads, cconcat_grads,
                                init_embed_model, skipgram_grads,
                                train_embeddings)
from rnntagger.representation import EmbeddingTable, FeatureConfig, encode_sentence
from rnntagger.synth import future_dep_corpus, memorize_corpus
from rnntagger.tagging import (BIO2, IOBES, Span, make_tagset, spans_to_tags,
                               tags_to_spans)
from rnntagger.training import TrainConfig, gradient_check, train_epoch
from test_pretrain import as_dicts

CELLS = ("ELMAN", "JORDAN", "ELMAN_GRU", "JORDAN_GRU")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def build_tagger(sents, arch, types, decoder=None, encoder=None, hidden=16,
                 dim=16, v_c=1, seed=1):
    tagset = make_tagset(types, BIO2)
    rng = SeededRng(seed)
    table = EmbeddingTable.random(build_vocab(sents), dim, rng)
    fconf = FeatureConfig()
    spec = ModelSpec(arch=arch, n_in=(dim + fconf.width) * (2 * v_c + 1),
                     hidden=hidden, n_tags=len(tagset),
                     decoder_cell=decoder, encoder_cell=encoder)
    model = Model(spec=spec, params=init_model(spec, rng), table=table,
                  fconf=fconf, tagset=tagset, scheme=BIO2, v_c=v_c)
    return model, rng


def test_gradients_match_finite_differences_across_grid():
    # every decoder cell alone, every contextual pairing, every
    # bidirectional pairing; 10 seeds each, relative error under 1e-4
    specs = []
    for dec in CELLS:
        specs.append(ModelSpec(arch="basic", n_in=5, hidden=4, n_tags=3,
                               decoder_cell=dec))
    for enc in ("ELMAN", "ELMAN_GRU"):
        for dec in CELLS:
            specs.append(ModelSpec(arch="contextual", n_in=5, hidden=4,
                                   n_tags=3, decoder_cell=dec,
                                   encoder_cell=enc))
    for enc in CELLS:
        for dec in CELLS:
            specs.append(ModelSpec(arch="bidirectional", n_in=5, hidden=4,
                                   n_tags=3, decoder_cell=dec,
                                   encoder_cell=enc))
    assert len(specs) == 4 + 8 + 16

    t0 = time.time()
    for spec in specs:
        for seed in range(1, 11):
            report = gradient_check(spec, seed, n_tokens=3)
            assert report.ok(1e-4), (spec.arch, spec.encoder_cell,
                                     spec.decoder_cell, seed, report.blocks)
    assert time.time() - t0 < 300


def test_readme_states_desk_scale_limits():
    with open(README, encoding="utf-8") as fh:
        text = fh.read().lower()
    assert "not reproducible" in text
    assert "ace 2005" in text
    assert "conll" in text
    assert "license" in text


def test_bidirectional_memorizes_synthetic_corpus():
    t0 = time.time()
    sents = memorize_corpus(size=50, seed=1)
    model, rng = build_tagger(sents, "bidirectional", ["LOC", "ORG", "PER"],
                              decoder="ELMAN", encoder="ELMAN",
                              hidden=16, v_c=1, seed=1)
    cfg = TrainConfig(learning_rate=0.06, epochs=50, v_d=9, v_c=1,
                      hidden=16, seed=1)
    gold = [tags_to_spans(s.tags()) for s in sents]
    f1 = 0.0
    for epoch in range(1, 51):
        train_epoch(model, sents, cfg, rng=rng)
        pred = [tags_to_spans(t) for t in tag_corpus(model, sents)]
        f1 = score(gold, pred).f1
        if f1 == 100.0:
            break
    assert f1 == 100.0
    assert time.time() - t0 < 60


def test_future_context_separates_architectures():
    sents = future_dep_corpus(size=40, seed=1)

    # gated backward encoder carries the sentence-final cue to position 0
    model, rng = build_tagger(sents, "bidirectional", ["ORG", "PER"],
                              decoder="ELMAN", encoder="ELMAN_GRU",
                              hidden=16, v_c=1, seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=300, v_d=9, v_c=1,
                      hidden=16, seed=1)
    acc = 0.0
    for epoch in range(1, 301):
        train_epoch(model, sents, cfg, rng=rng)
        tags = tag_corpus(model, sents)
        acc = float(np.mean([t[0] == s.tokens[0].gold_tag
                             for t, s in zip(tags, sents)]))
        if acc >= 0.95:
            break
    assert acc >= 0.95

    # the left-to-right model cannot: its position-0 distribution is a
    # function of inputs that are identical across each minimal pair
    basic, rng_b = build_tagger(sents, "basic", ["ORG", "PER"],
                                decoder="ELMAN", hidden=16, v_c=1, seed=1)
    for _ in range(3):
        train_epoch(basic, sents, cfg, rng=rng_b)
    for a, b in zip(sents[0::2], sents[1::2]):
        da, db = (forward_batch(basic.spec, basic.params,
                                [encode_sentence(s, basic.table, basic.fconf, basic.v_c)])[0]
                  for s in (a, b))
        assert np.array_equal(da[0], db[0])        # bitwise, not approx
        assert not np.array_equal(da[-1], db[-1])  # the inputs do differ
    tags = tag_corpus(basic, sents)
    first_acc = np.mean([t[0] == s.tokens[0].gold_tag
                         for t, s in zip(tags, sents)])
    assert first_acc == 0.5  # identical outputs on balanced pairs


def test_zeroed_context_injection_matches_basic():
    rng = SeededRng(7)
    worst = 0.0
    for dec in ("ELMAN", "JORDAN", "ELMAN_GRU", "JORDAN_GRU"):
        ctx_spec = ModelSpec(arch="contextual", n_in=6, hidden=5, n_tags=4,
                             decoder_cell=dec, encoder_cell="ELMAN")
        basic_spec = ModelSpec(arch="basic", n_in=6, hidden=5, n_tags=4,
                               decoder_cell=dec)
        params = init_model(ctx_spec, SeededRng(3))
        params["context"]["S"][:] = 0.0
        twin = {"decoder": params["decoder"], "decoder_out": params["decoder_out"]}
        for _ in range(25):
            n = 1 + rng.randint(8)
            xs = [rng.uniform(6, -0.5, 0.5) for _ in range(n)]
            for o_ctx, o_basic in zip(forward_batch(ctx_spec, params, [xs])[0],
                                      forward_batch(basic_spec, twin, [xs])[0]):
                worst = max(worst, float(np.max(np.abs(o_ctx - o_basic))))
    assert worst < 1e-12


def test_decode_order_sensitivity_splits_architectures():
    rng = SeededRng(5)
    n = 6

    # word-wise decoding: any visiting order gives identical distributions
    spec = ModelSpec(arch="mesnil", n_in=4, hidden=3, n_tags=3,
                     encoder_cell="ELMAN", mesnil_k=1)
    params = init_model(spec, SeededRng(11))
    xs = [rng.uniform(4, -0.5, 0.5) for _ in range(n)]
    enc = encode(spec, params, xs)
    ordered = decode_window(spec, params, enc, 0, n - 1).dists
    order = list(range(n))
    rng.shuffle(order)
    assert order != list(range(n))
    for i in order:
        single = decode_window(spec, params, enc, i, i).dists[0]
        assert np.array_equal(single, ordered[i])

    # recurrent decoding: perturbing an earlier state input changes later
    # outputs, so order cannot be shuffled
    spec = ModelSpec(arch="bidirectional", n_in=4, hidden=3, n_tags=3,
                     decoder_cell="ELMAN", encoder_cell="ELMAN")
    params = init_model(spec, SeededRng(11))
    enc = encode(spec, params, xs)
    before = decode_window(spec, params, enc, 0, n - 1).dists
    enc.dec_inputs = [d.copy() for d in enc.dec_inputs]
    enc.dec_inputs[0] = enc.dec_inputs[0] + 0.1
    after = decode_window(spec, params, enc, 0, n - 1).dists
    later_shift = max(float(np.max(np.abs(a - b)))
                      for a, b in zip(after[1:], before[1:]))
    assert later_shift > 1e-9


TYPES = ("LOC", "ORG", "PER")


def random_span_set(rng, n):
    spans, i = [], 0
    while i < n:
        if rng.randint(3) == 0:
            end = min(i + rng.randint(3), n - 1)
            spans.append(Span(i, end, TYPES[rng.randint(len(TYPES))]))
            i = end + 1
        else:
            i += 1
    return spans


def test_span_roundtrip_and_scoring_oracle():
    rng = SeededRng(13)
    for scheme in (BIO2, IOBES):
        for _ in range(10 ** 4):
            n = 1 + rng.randint(12)
            spans = random_span_set(rng, n)
            tags = spans_to_tags(spans, n, scheme)
            assert tags_to_spans(tags) == spans

    for _ in range(20):
        n = 2 + rng.randint(10)
        gold, pred = random_span_set(rng, n), random_span_set(rng, n)
        report = score([gold], [pred])
        assert report.n_correct == len(set(gold) & set(pred))

    # 2 correct out of 3 predicted against 4 gold
    gold = [Span(0, 0, "PER"), Span(2, 3, "ORG"), Span(5, 5, "LOC"),
            Span(7, 8, "PER")]
    pred = [Span(0, 0, "PER"), Span(2, 3, "ORG"), Span(9, 9, "LOC")]
    report = score([gold], [pred])
    assert round(report.f1, 2) == 57.14


def _embed_fd(objective):
    vocab = vocab_from_counts(Counter({"a": 3, "b": 2, "c": 1}))
    cfg = EmbedConfig(dim=2, window=1, negatives=2, seed=11)
    rng = SeededRng(11)
    model = init_embed_model(vocab, objective, cfg, rng)
    model.output_vectors[:] = rng.uniform(
        model.output_vectors.size, -0.5, 0.5).reshape(model.output_vectors.shape)

    if objective == CBOW:
        call = lambda m: cbow_grads(m, 2, [3, 4], [3])
    elif objective == SKIPGRAM:
        call = lambda m: skipgram_grads(m, 2, 3, [4])
    else:
        call = lambda m: cconcat_grads(m, 2, [3, 4], [4])

    loss, dv, du = as_dicts(call(model))
    eps = 1e-6
    for mat, grads in ((model.input_vectors, dv), (model.output_vectors, du)):
        for r in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                keep = mat[r, j]
                mat[r, j] = keep + eps
                up = call(model)[0]
                mat[r, j] = keep - eps
                down = call(model)[0]
                mat[r, j] = keep
                numeric = (up - down) / (2 * eps)
                analytic = grads[r][j] if r in grads else 0.0
                assert abs(analytic - numeric) <= 1e-9 + 1e-4 * max(
                    abs(analytic), abs(numeric)), (objective, r, j)


def test_embedding_objectives_suite(tmp_path):
    for objective in (CBOW, SKIPGRAM, CCONCAT):
        _embed_fd(objective)

    # class structure: words sharing contexts end up closer than words
    # that never do
    corpus = tmp_path / "classes.txt"
    lines = []
    for w in ("a", "b", "c"):
        lines += ["cx x%s cx" % w] * 30
        lines += ["cy y%s cy" % w] * 30
    corpus.write_text("\n".join(lines) + "\n")

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    for objective in (CBOW, SKIPGRAM, CCONCAT):
        cfg = EmbedConfig(dim=8, window=2, subsample=1.0, negatives=3,
                          epochs=5, learning_rate=0.05, seed=2)
        model = train_embeddings(str(corpus), objective, cfg)
        xs = [model.input_vectors[model.vocab.word_to_index["x%s" % w]]
              for w in ("a", "b", "c")]
        ys = [model.input_vectors[model.vocab.word_to_index["y%s" % w]]
              for w in ("a", "b", "c")]
        within = np.mean(
            [cos(xs[i], xs[j]) for i in range(3) for j in range(i + 1, 3)]
            + [cos(ys[i], ys[j]) for i in range(3) for j in range(i + 1, 3)])
        cross = np.mean([cos(x, y) for x in xs for y in ys])
        assert within > cross, objective

    # averaging is order-blind, concatenation is not
    vocab = vocab_from_counts(Counter({"a": 3, "b": 2, "c": 1}))
    cfg = EmbedConfig(dim=3, window=1, negatives=2, seed=4)
    model = init_embed_model(vocab, CBOW, cfg, SeededRng(4))
    model.output_vectors[:] = SeededRng(9).uniform(
        model.output_vectors.size, -0.5, 0.5).reshape(model.output_vectors.shape)
    l1, dv1, _ = as_dicts(cbow_grads(model, 2, [3, 4], [3]))
    l2, dv2, _ = as_dicts(cbow_grads(model, 2, [4, 3], [3]))
    assert l1 == l2
    assert all(np.array_equal(dv1[r], dv2[r]) for r in dv1)
    model = init_embed_model(vocab, CCONCAT, cfg, SeededRng(4))
    model.output_vectors[:] = SeededRng(9).uniform(
        model.output_vectors.size, -0.5, 0.5).reshape(model.output_vectors.shape)
    l1 = cconcat_grads(model, 2, [3, 4], [4])[0]
    l2 = cconcat_grads(model, 2, [4, 3], [4])[0]
    assert l1 != l2

    # sampler matches the 3/4-power unigram law
    counts = np.array([0.0, 0.0, 40.0, 30.0, 20.0, 10.0])
    table = UnigramTable(counts)
    draws = table.sample_many(SeededRng(21), 10 ** 6)
    expected = counts ** 0.75
    expected[:2] = 0.0
    expected /= expected.sum()
    observed = np.bincount(draws, minlength=len(counts)) / 10 ** 6
    for i in range(2, len(counts)):
        assert abs(observed[i] - expected[i]) / expected[i] < 0.01


def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    corpus = tmp_path / "raw.txt"
    corpus.write_text("the cat sat on the mat\nthe dog sat on the rug\n" * 10)
    vec_a, vec_b = tmp_path / "a.vec", tmp_path / "b.vec"
    embed = ["embed", str(corpus), "--dim", "6", "--window", "2",
             "--negatives", "3", "--subsample", "1.0", "--epochs", "2",
             "--seed", "5"]
    assert cli.main(embed + ["--out", str(vec_a)]) == 0
    assert cli.main(embed + ["--out", str(vec_b)]) == 0
    assert vec_a.read_bytes() == vec_b.read_bytes()

    gold = tmp_path / "g.conll"
    write_conll(memorize_corpus(size=8, seed=1), str(gold))
    model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
    train = ["train", "--train", str(gold), "--decoder", "elman",
             "--dim", "6", "--hidden", "5", "--lr", "0.05", "--vc", "1",
             "--vd", "3", "--epochs", "2", "--seed", "1"]
    assert cli.main(train + ["--out-model", str(model_a)]) == 0
    assert cli.main(train + ["--out-model", str(model_b)]) == 0
    assert model_a.read_bytes() == model_b.read_bytes()
    capsys.readouterr()


def test_softmax_distributions_normalized():
    rng = SeededRng(17)
    specs = []
    for dec in CELLS:
        specs.append(ModelSpec(arch="basic", n_in=5, hidden=4, n_tags=3,
                               decoder_cell=dec))
    for enc in ("ELMAN", "ELMAN_GRU"):
        for dec in CELLS:
            specs.append(ModelSpec(arch="contextual", n_in=5, hidden=4,
                                   n_tags=3, decoder_cell=dec,
                                   encoder_cell=enc))
    for enc in CELLS:
        for dec in CELLS:
            specs.append(ModelSpec(arch="bidirectional", n_in=5, hidden=4,
                                   n_tags=3, decoder_cell=dec,
                                   encoder_cell=enc))
    for enc in CELLS:
        specs.append(ModelSpec(arch="mesnil", n_in=5, hidden=4, n_tags=3,
                               encoder_cell=enc))
    worst = 0.0
    for spec in specs:
        params = init_model(spec, SeededRng(23))
        xs = [rng.uniform(5, -0.5, 0.5) for _ in range(6)]
        enc = encode(spec, params, xs)
        for dists in (forward_batch(spec, params, [xs])[0],
                      decode_window(spec, params, enc, 2, 4).dists):
            for o in dists:
                worst = max(worst, abs(float(np.sum(o)) - 1.0))
    assert worst <= 1e-9
