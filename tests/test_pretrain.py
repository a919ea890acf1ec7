import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger.corpus import PAD, PAD_INDEX, UNK, UNK_INDEX, vocab_from_counts
from rnntagger.linalg import SeededRng
from rnntagger.representation import load_embeddings
from rnntagger.pretrain import (
    CBOW,
    CCONCAT,
    SKIPGRAM,
    EmbedConfig,
    UnigramTable,
    cbow_grads,
    cconcat_grads,
    init_embed_model,
    negative_sample,
    save_text,
    skipgram_grads,
    subsample_keep,
    subsample_prob,
    train_embeddings,
)

LN2 = math.log(2.0)


def small_vocab(counts=None):
    counts = counts or {"alpha": 5, "beta": 3, "gamma": 2}
    return vocab_from_counts(counts), counts


def small_model(objective=CBOW, dim=2, window=1, seed=3):
    vocab, counts = small_vocab()
    cfg = EmbedConfig(dim=dim, window=window, negatives=2, epochs=1,
                      learning_rate=0.1, seed=seed)
    rng = SeededRng(seed)
    model = init_embed_model(vocab, objective, cfg, rng)
    idx = {w: vocab.word_to_index[w] for w in counts}
    return model, cfg, idx


# ---------------------------------------------------------------- config

def test_config_defaults():
    cfg = EmbedConfig()
    assert cfg.dim == 300
    assert cfg.window == 5
    assert cfg.subsample == 1e-5
    assert cfg.negatives == 10


@pytest.mark.parametrize("kwargs", [
    {"dim": 0}, {"window": 0}, {"negatives": 0}, {"min_count": 0},
    {"subsample": 0.0}, {"learning_rate": -1.0}, {"epochs": -1},
])
def test_config_rejects_nonpositive(kwargs):
    with pytest.raises(ValueError):
        EmbedConfig(**kwargs)


def test_config_allows_zero_epochs():
    assert EmbedConfig(epochs=0).epochs == 0


# ----------------------------------------------------------- subsampling

def test_frequent_word_keep_probability():
    # f/N = 100t  ->  (sqrt(100)+1)/100
    assert subsample_prob(100, 1000, t=0.001) == pytest.approx(0.11, abs=1e-15)


def test_rare_word_always_kept():
    rng = SeededRng(0)
    assert subsample_prob(1, 1000, t=0.001) >= 1.0
    assert all(subsample_keep(1, 1000, 0.001, rng) for _ in range(100))


def test_huge_threshold_keeps_everything():
    rng = SeededRng(0)
    assert all(subsample_keep(f, 100, 1e9, rng) for f in (1, 50, 100))


def test_zero_frequency_rejected():
    with pytest.raises(ValueError):
        subsample_prob(0, 100, 0.001)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=1e-6, max_value=1.0))
def test_words_at_or_below_threshold_never_dropped(f, n, t):
    f = min(f, n)
    if f / n <= t:
        rng = SeededRng(1)
        assert all(subsample_keep(f, n, t, rng) for _ in range(5))


# --------------------------------------------------------- unigram table

def test_table_distribution_is_frequency_to_three_quarters():
    vocab, _ = small_vocab({"a": 4, "b": 1})
    table = UnigramTable(np.array([0, 0, 4, 1]))
    ia, ib = vocab.word_to_index["a"], vocab.word_to_index["b"]
    want_a = 4 ** 0.75 / (4 ** 0.75 + 1)
    assert table.probs[ia] == pytest.approx(want_a, abs=1e-12)
    assert table.probs[ib] == pytest.approx(1 - want_a, abs=1e-12)
    assert want_a == pytest.approx(0.7388, abs=1e-4)


def test_table_excludes_pad_and_unk():
    table = UnigramTable(np.array([7, 9, 4, 1]))
    assert table.probs[PAD_INDEX] == 0.0
    assert table.probs[UNK_INDEX] == 0.0
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_frequencies_sample_uniformly():
    table = UnigramTable(np.array([0, 0, 5, 5, 5]))
    assert np.allclose(table.probs[2:], 1.0 / 3.0, atol=1e-12)


def test_empty_table_rejected():
    with pytest.raises(ValueError):
        UnigramTable(np.array([3, 2]))  # only PAD/UNK rows


def test_monte_carlo_matches_analytic_within_one_percent():
    counts = np.array([0, 0, 400, 100, 25])
    table = UnigramTable(counts)
    rng = SeededRng(123)
    draws = table.sample_many(rng, 10 ** 6)
    for i in (2, 3, 4):
        emp = float(np.mean(draws == i))
        assert abs(emp - table.probs[i]) / table.probs[i] < 0.01


def test_negative_sample_never_returns_exclude():
    table = UnigramTable(np.array([0, 0, 4, 1]))
    rng = SeededRng(5)
    for _ in range(50):
        negs = negative_sample(table, exclude=2, k=3, rng=rng)
        assert len(negs) == 3
        assert 2 not in negs


def test_negative_sample_needs_two_words():
    table = UnigramTable(np.array([0, 0, 9]))
    with pytest.raises(ValueError):
        negative_sample(table, exclude=2, k=1, rng=SeededRng(0))


def test_negative_sample_deterministic():
    table = UnigramTable(np.array([0, 0, 4, 1, 2]))
    a = negative_sample(table, 2, 5, SeededRng(9))
    b = negative_sample(table, 2, 5, SeededRng(9))
    assert a == b


# ------------------------------------------------------------- gradients

def test_cbow_single_context_hidden_is_that_vector():
    model, _, idx = small_model(CBOW)
    a, b = idx["alpha"], idx["beta"]
    model.output_vectors[a] = np.array([0.3, -0.2])
    loss, dv, du = cbow_grads(model, a, [b], negatives=[idx["gamma"]])
    h = model.input_vectors[b]
    s = float(model.output_vectors[a] @ h)
    p = 1.0 / (1.0 + math.exp(-s))
    assert loss == pytest.approx(-math.log(p) + LN2, abs=1e-12)
    assert set(dv) == {b}


def test_cbow_is_order_invariant():
    model, _, idx = small_model(CBOW)
    a, b, g = idx["alpha"], idx["beta"], idx["gamma"]
    model.output_vectors[idx["alpha"]] = np.array([0.4, 0.1])
    l1, dv1, du1 = cbow_grads(model, a, [b, g], negatives=[b])
    l2, dv2, du2 = cbow_grads(model, a, [g, b], negatives=[b])
    assert l1 == l2
    assert set(dv1) == set(dv2)
    for j in dv1:
        assert np.array_equal(dv1[j], dv2[j])
    for j in du1:
        assert np.array_equal(du1[j], du2[j])


def test_cbow_empty_context_rejected():
    model, _, idx = small_model(CBOW)
    with pytest.raises(ValueError):
        cbow_grads(model, idx["alpha"], [], negatives=[idx["beta"]])


def test_skipgram_touches_exactly_k_plus_one_output_rows():
    model, _, idx = small_model(SKIPGRAM)
    a, b, g = idx["alpha"], idx["beta"], idx["gamma"]
    loss, dv, du = skipgram_grads(model, a, b, negatives=[g, g])
    assert set(dv) == {a}
    assert set(du) == {b, g}  # two negatives collapse onto one row
    loss2, _, du2 = skipgram_grads(model, a, b, negatives=[g, a])
    assert set(du2) == {b, g, a}


def test_skipgram_loss_at_zero_output_is_k_plus_one_ln_two():
    model, _, idx = small_model(SKIPGRAM)
    loss, _, _ = skipgram_grads(model, idx["alpha"], idx["beta"],
                                negatives=[idx["gamma"]] * 4)
    assert loss == pytest.approx(5 * LN2, abs=1e-12)


def test_cconcat_all_pad_context():
    model, _, idx = small_model(CCONCAT, window=2)
    slots = [PAD_INDEX] * 4
    loss, dv, du = cconcat_grads(model, idx["alpha"], slots,
                                 negatives=[idx["beta"], idx["gamma"]])
    assert loss == pytest.approx(3 * LN2, abs=1e-12)
    assert set(dv) == {PAD_INDEX}
    assert np.array_equal(dv[PAD_INDEX], np.zeros(model.dim * 4)[: model.dim])


def test_cconcat_is_order_sensitive():
    model, _, idx = small_model(CCONCAT, window=1)
    a, b, g = idx["alpha"], idx["beta"], idx["gamma"]
    model.output_vectors[a] = np.array([0.5, -0.3, 0.2, 0.7])
    l1, _, _ = cconcat_grads(model, a, [b, g], negatives=[b])
    l2, _, _ = cconcat_grads(model, a, [g, b], negatives=[b])
    assert l1 != l2


def test_cconcat_slot_count_enforced():
    model, _, idx = small_model(CCONCAT, window=2)
    with pytest.raises(ValueError):
        cconcat_grads(model, idx["alpha"], [idx["beta"]], negatives=[idx["gamma"]])


def test_pad_input_row_never_updated(tmp_path):
    # every position of a two-word sentence has PAD slots at window 2
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["alpha beta", "beta gamma", "alpha"] * 5)
    cfg = EmbedConfig(dim=2, window=2, subsample=1.0, negatives=2, epochs=2,
                      learning_rate=0.5, seed=4)
    model = train_embeddings(str(corpus), CCONCAT, cfg)
    assert np.any(model.output_vectors != 0.0)
    assert np.all(model.input_vectors[PAD_INDEX] == 0.0)


# ------------------------------------------------- finite-difference FD

def _fd_check(objective):
    model, _, idx = small_model(objective, dim=2, window=1, seed=11)
    a, b, g = idx["alpha"], idx["beta"], idx["gamma"]
    # non-degenerate output rows so every gradient path is live
    rng = SeededRng(21)
    model.output_vectors[:] = rng.uniform(
        model.output_vectors.size, -0.4, 0.4).reshape(model.output_vectors.shape)
    negatives = [g, b]

    if objective == CBOW:
        args = (a, [b, g], negatives)
        grads = lambda m: cbow_grads(m, *args)
    elif objective == SKIPGRAM:
        args = (a, b, negatives)
        grads = lambda m: skipgram_grads(m, *args)
    else:
        args = (a, [b, g], negatives)
        grads = lambda m: cconcat_grads(m, *args)

    loss, dv, du = grads(model)
    eps = 1e-6

    def numeric(matrix, i, j):
        keep = matrix[i, j]
        matrix[i, j] = keep + eps
        up = grads(model)[0]
        matrix[i, j] = keep - eps
        down = grads(model)[0]
        matrix[i, j] = keep
        return (up - down) / (2 * eps)

    for row in range(model.input_vectors.shape[0]):
        for col in range(model.input_vectors.shape[1]):
            analytic = dv.get(row, np.zeros(model.input_vectors.shape[1]))[col]
            num = numeric(model.input_vectors, row, col)
            assert abs(analytic - num) <= 1e-9 + 1e-4 * max(abs(analytic), abs(num))
    for row in range(model.output_vectors.shape[0]):
        for col in range(model.output_vectors.shape[1]):
            analytic = du.get(row, np.zeros(model.output_vectors.shape[1]))[col]
            num = numeric(model.output_vectors, row, col)
            assert abs(analytic - num) <= 1e-9 + 1e-4 * max(abs(analytic), abs(num))


def test_cbow_gradients_match_finite_differences():
    _fd_check(CBOW)


def test_skipgram_gradients_match_finite_differences():
    _fd_check(SKIPGRAM)


def test_cconcat_gradients_match_finite_differences():
    _fd_check(CCONCAT)


# ------------------------------------------------------------- training

def write_corpus(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_alternating_corpus_learns_the_pairing(tmp_path):
    corpus = tmp_path / "ab.txt"
    write_corpus(corpus, ["a b " * 50] * 100)  # 10^4 tokens
    cfg = EmbedConfig(dim=4, window=1, subsample=1.0, negatives=5, epochs=3,
                      learning_rate=0.05, seed=1)
    model = train_embeddings(str(corpus), CBOW, cfg)
    ia = model.vocab.word_to_index["a"]
    ib = model.vocab.word_to_index["b"]
    s = float(model.output_vectors[ib] @ model.input_vectors[ia])
    assert 1.0 / (1.0 + math.exp(-s)) > 0.9


def test_two_class_corpus_separates_classes(tmp_path):
    corpus = tmp_path / "classes.txt"
    lines = []
    for w in ("a", "b", "c"):
        lines += ["cx x%s cx" % w] * 30
        lines += ["cy y%s cy" % w] * 30
    write_corpus(corpus, lines)

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
        within = np.mean([cos(xs[i], xs[j]) for i in range(3) for j in range(i + 1, 3)]
                         + [cos(ys[i], ys[j]) for i in range(3) for j in range(i + 1, 3)])
        cross = np.mean([cos(x, y) for x in xs for y in ys])
        assert within > cross, objective


def test_training_is_deterministic(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a b c d e"] * 20)
    cfg = EmbedConfig(dim=3, window=2, subsample=0.05, negatives=2, epochs=2,
                      learning_rate=0.05, seed=7)
    m1 = train_embeddings(str(corpus), SKIPGRAM, cfg)
    m2 = train_embeddings(str(corpus), SKIPGRAM, cfg)
    assert np.array_equal(m1.input_vectors, m2.input_vectors)
    assert np.array_equal(m1.output_vectors, m2.output_vectors)
    m3 = train_embeddings(str(corpus), SKIPGRAM,
                          EmbedConfig(dim=3, window=2, subsample=0.05,
                                      negatives=2, epochs=2,
                                      learning_rate=0.05, seed=8))
    assert not np.array_equal(m1.input_vectors, m3.input_vectors)


def test_zero_epochs_is_the_initialized_matrix(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a b"] * 5)
    cfg = EmbedConfig(dim=3, epochs=0, seed=4)
    model = train_embeddings(str(corpus), CBOW, cfg)
    rng = SeededRng(4)
    fresh = init_embed_model(model.vocab, CBOW, cfg, rng)
    assert np.array_equal(model.input_vectors, fresh.input_vectors)
    assert np.all(model.output_vectors == 0.0)


def test_min_count_filters_everything_is_an_error(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a b a"])
    cfg = EmbedConfig(min_count=10)
    with pytest.raises(ValueError):
        train_embeddings(str(corpus), CBOW, cfg)


def test_unknown_objective_rejected(tmp_path):
    vocab, _ = small_vocab()
    with pytest.raises(ValueError):
        init_embed_model(vocab, "glove", EmbedConfig(), SeededRng(0))


def test_save_load_round_trip_is_bitwise(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a b c"] * 10)
    cfg = EmbedConfig(dim=5, window=1, subsample=1.0, negatives=2, epochs=1,
                      learning_rate=0.05, seed=3)
    model = train_embeddings(str(corpus), CBOW, cfg)
    out = tmp_path / "vecs.txt"
    save_text(model, str(out))
    table = load_embeddings(str(out))
    assert table.matrix.shape == model.input_vectors.shape
    assert np.array_equal(table.matrix, model.input_vectors)
    assert [table.vocab.index_to_word[i] for i in range(len(table.vocab))] == \
        model.vocab.index_to_word


def test_epoch_losses_are_recorded(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a b c d"] * 10)
    cfg = EmbedConfig(dim=3, window=1, subsample=1.0, negatives=2, epochs=4,
                      learning_rate=0.1, seed=5)
    model = train_embeddings(str(corpus), CBOW, cfg)
    assert len(model.epoch_losses) == 4
    assert all(l > 0 for l in model.epoch_losses)
    assert model.epoch_losses[-1] < model.epoch_losses[0]


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("objective", [CBOW, SKIPGRAM, CCONCAT])
def test_training_reproduces_recorded_run(objective, tmp_path):
    # epoch losses and file digests recorded from the three separate
    # per-objective update functions this loop replaced (numpy's bundled
    # OpenBLAS, x86-64); any change to the draw order or the arithmetic
    # shows here
    golden = json.loads((DATA / "embed_golden.json").read_text())
    cfg = EmbedConfig(**golden["config"])
    want = golden["objectives"][objective]
    model = train_embeddings(str(DATA / "embed_corpus.txt"), objective, cfg)
    out = tmp_path / "vecs.txt"
    save_text(model, str(out))
    assert model.epoch_losses == want["epoch_losses"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["vectors_sha256"]
    assert (hashlib.sha256(model.output_vectors.tobytes()).hexdigest()
            == want["output_vectors_sha256"])


@pytest.mark.parametrize("objective", [CBOW, SKIPGRAM, CCONCAT])
def test_literal_reserved_words_get_their_reserved_rows(objective, tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a %s b %s a" % (PAD, UNK), "%s b a" % PAD] * 5)
    cfg = EmbedConfig(dim=3, window=1, subsample=1.0, negatives=2, epochs=1,
                      learning_rate=0.1, seed=2)
    model = train_embeddings(str(corpus), objective, cfg)
    assert model.vocab.index_to_word == [PAD, UNK, "a", "b"]
    out = tmp_path / "vecs.txt"
    save_text(model, str(out))
    rows = [line.split()[0] for line in out.read_text().splitlines()[1:]]
    assert rows == [PAD, UNK, "a", "b"]
    table = load_embeddings(str(out))
    assert np.array_equal(table.matrix, model.input_vectors)
    assert np.all(table.matrix[PAD_INDEX] == 0.0)
