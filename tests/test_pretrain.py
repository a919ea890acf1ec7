import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger import pretrain
from rnntagger.corpus import (PAD, PAD_INDEX, UNK, UNK_INDEX, normalize, read_lines,
                              vocab_from_counts)
from rnntagger.linalg import SeededRng
from rnntagger.representation import load_embeddings
from rnntagger.pretrain import (
    CBOW,
    CCONCAT,
    OBJECTIVES,
    PROB_FLOOR,
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


def scatter(rows, pieces):
    """{row: the sum of its pieces, added in order of appearance}."""
    out = {}
    for row, piece in zip(rows, pieces):
        out[row] = out[row] + piece if row in out else piece
    return out


def as_dicts(result):
    """A *_grads result, (loss, (rows, block), (rows, block)), as (loss,
    {input row: its summed gradient}, {output row: its summed gradient})."""
    loss, (in_rows, dv), (out_rows, du) = result
    return loss, scatter(in_rows, dv), scatter(out_rows, du)


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


def test_extreme_thresholds_give_the_limits_without_a_warning():
    # f / (t N) overflows to inf for a subnormal t, and is 0 once t N is inf
    assert subsample_prob(np.float64(3), 44, 1e-320) == 0.0
    assert subsample_prob(np.float64(3), 44, 1e307) == 1.0


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
    targets = [2, 3] * 25
    lists = negative_sample(table, targets=targets, k=3, rng=SeededRng(5))
    assert len(lists) == len(targets)
    for target, negs in zip(targets, lists):
        assert len(negs) == 3
        assert target not in negs


def test_negative_sample_needs_two_words():
    table = UnigramTable(np.array([0, 0, 9]))
    with pytest.raises(ValueError):
        negative_sample(table, targets=[2], k=1, rng=SeededRng(0))


def test_negative_sample_deterministic():
    table = UnigramTable(np.array([0, 0, 4, 1, 2]))
    a = negative_sample(table, [2, 3, 2], 5, SeededRng(9))
    b = negative_sample(table, [2, 3, 2], 5, SeededRng(9))
    assert a == b


def scalar_negative_sample(table, exclude, k, rng):
    """Reference for one prediction: one word at a time until k of them
    differ from `exclude`."""
    out = []
    while len(out) < k:
        j = table.sample(rng)
        if j != exclude:
            out.append(j)
    return out


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(1, 30), min_size=2, max_size=4),
       data=st.data(), k=st.integers(1, 12), seed=st.integers(0, 2 ** 64 - 1))
def test_block_draw_matches_one_word_at_a_time(counts, data, k, seed):
    # few sampleable words, some of them dominant, so a target often
    # collides with its draws and the block is topped up several times
    table = UnigramTable(np.array([0, 0] + counts))
    targets = data.draw(st.lists(st.integers(0, len(counts) + 1), max_size=8))
    block_rng, scalar_rng = SeededRng(seed), SeededRng(seed)
    got = negative_sample(table, targets, k, block_rng)
    want = [scalar_negative_sample(table, t, k, scalar_rng) for t in targets]
    assert got == want
    assert block_rng.next_u64() == scalar_rng.next_u64()


# ------------------------------------------------------------- gradients

def test_cbow_single_context_hidden_is_that_vector():
    model, _, idx = small_model(CBOW)
    a, b = idx["alpha"], idx["beta"]
    model.output_vectors[a] = np.array([0.3, -0.2])
    loss, dv, du = as_dicts(cbow_grads(model, a, [b], negatives=[idx["gamma"]]))
    h = model.input_vectors[b]
    s = float(model.output_vectors[a] @ h)
    p = 1.0 / (1.0 + math.exp(-s))
    assert loss == pytest.approx(-math.log(p) + LN2, abs=1e-12)
    assert set(dv) == {b}


def test_cbow_is_order_invariant():
    model, _, idx = small_model(CBOW)
    a, b, g = idx["alpha"], idx["beta"], idx["gamma"]
    model.output_vectors[idx["alpha"]] = np.array([0.4, 0.1])
    l1, dv1, du1 = as_dicts(cbow_grads(model, a, [b, g], negatives=[b]))
    l2, dv2, du2 = as_dicts(cbow_grads(model, a, [g, b], negatives=[b]))
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
    loss, dv, du = as_dicts(skipgram_grads(model, a, b, negatives=[g, g]))
    assert set(dv) == {a}
    assert set(du) == {b, g}  # two negatives collapse onto one row
    loss2, _, du2 = as_dicts(skipgram_grads(model, a, b, negatives=[g, a]))
    assert set(du2) == {b, g, a}


def test_skipgram_loss_at_zero_output_is_k_plus_one_ln_two():
    model, _, idx = small_model(SKIPGRAM)
    loss, _, _ = skipgram_grads(model, idx["alpha"], idx["beta"],
                                negatives=[idx["gamma"]] * 4)
    assert loss == pytest.approx(5 * LN2, abs=1e-12)


def test_cconcat_all_pad_context():
    model, _, idx = small_model(CCONCAT, window=2)
    slots = [PAD_INDEX] * 4
    loss, dv, du = as_dicts(cconcat_grads(model, idx["alpha"], slots,
                                          negatives=[idx["beta"], idx["gamma"]]))
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


# ------------------------------------- the per-row reference update path

def reference_ns_grads(output, h, center, negatives):
    """One prediction computed row by row: each probability on
    its own, the loss over the list of them, dh added onto a zero row
    one row at a time, and the output pieces scattered into a dict."""
    def sig(s):
        if s >= 0:
            return 1.0 / (1.0 + math.exp(-s))
        e = math.exp(s)
        return e / (1.0 + e)

    rows = [center] + list(negatives)
    O = output.take(rows, axis=0)
    scores = np.matmul(O[:, None, :], h[:, None]).ravel().tolist()
    p = [sig(s) for s in scores]
    loss = 0.0
    for win in [p[0]] + [1.0 - q for q in p[1:]]:
        loss += -math.log(max(win, PROB_FLOOR))
    g = np.array([p[0] - 1.0] + p[1:])[:, None]
    dh = np.zeros_like(h)
    for piece in g * O:
        dh += piece
    return loss, dh, scatter(rows, g * h)


def reference_update(model, objective, center, context, negatives, lr):
    """One prediction's SGD update, each touched row applied on its own,
    PAD's input row left alone."""
    if objective == CBOW:
        h = np.mean(model.input_vectors[context], axis=0)
        loss, dh, du = reference_ns_grads(model.output_vectors, h, center, negatives)
        dv = scatter(context, [dh / len(context)] * len(context))
    elif objective == SKIPGRAM:
        h = model.input_vectors[center]
        loss, dh, du = reference_ns_grads(model.output_vectors, h, context, negatives)
        dv = {center: dh}
    else:
        h = model.input_vectors[context].reshape(-1)
        loss, dh, du = reference_ns_grads(model.output_vectors, h, center, negatives)
        dv = scatter(context, dh.reshape(len(context), model.dim))
    for row, g in du.items():
        model.output_vectors[row] -= lr * g
    for row, g in dv.items():
        if row != PAD_INDEX:
            model.input_vectors[row] -= lr * g
    return loss


def update(model, objective, center, context, negatives, lr):
    """One prediction's SGD update as train_embeddings makes it."""
    grads = getattr(pretrain, "%s_grads" % objective)
    loss, dv, du = grads(model, center, context, negatives)
    pretrain._apply_output_grads(model, du, lr)
    pretrain._apply_input_grads(model, dv, lr)
    return loss


def signed_zeros(rng, n):
    return np.where(rng.random(n) < 0.5, -0.0, 0.0)


N_ROWS = 7   # PAD, UNK and 5 words: few enough that rows repeat


@st.composite
def prediction(draw, objective, window):
    """(center, context argument, negatives) over every row, PAD included:
    a corpus may hold the literal words <pad> and <unk>."""
    word = st.integers(0, N_ROWS - 1)
    if objective == CBOW:
        context = draw(st.lists(word, min_size=1, max_size=2 * window))
    elif objective == SKIPGRAM:
        context = draw(word)
    else:
        context = draw(st.lists(word, min_size=2 * window, max_size=2 * window))
    return draw(word), context, draw(st.lists(word, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), objective=st.sampled_from(OBJECTIVES), window=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.1, 1.0, 6.0]),
       zero_columns=st.lists(st.integers(0, 599), max_size=3))
def test_updates_are_bitwise_the_per_row_reference(data, objective, window, seed, scale,
                                                   zero_columns):
    # repeated negatives and context words, a negative equal to the word
    # predicted, PAD slots, and zero columns: the order of a sum and the
    # sign of a zero show there
    max_dim = 600 // (2 * window) if objective == CCONCAT else 600
    dim = data.draw(st.integers(1, max_dim))
    predictions = data.draw(st.lists(st.tuples(prediction(objective, window),
                                               st.floats(1e-3, 1.0)), min_size=1, max_size=4))
    vocab = vocab_from_counts({"w%d" % i: 9 - i for i in range(N_ROWS - 2)})
    models = [init_embed_model(vocab, objective, EmbedConfig(dim=dim, window=window),
                               SeededRng(seed)) for _ in range(2)]
    model, reference = models
    width = model.output_vectors.shape[1]
    rng = np.random.default_rng(seed)
    sd = scale / width ** 0.25
    model.input_vectors[:] = rng.normal(0.0, sd, model.input_vectors.shape)
    model.output_vectors[:] = rng.normal(0.0, sd, model.output_vectors.shape)
    # in a zero column every piece of the first prediction's dh is -0.0
    # (its word's output row +0.0 times a negative g, the rest -0.0 times a
    # positive one), so the loop's +0.0 reaches the input rows' -0.0
    (center, context, _), _ = predictions[0]
    target = context if objective == SKIPGRAM else center
    for c in zero_columns:
        model.output_vectors[:, c % width] = -0.0
        model.output_vectors[target, c % width] = 0.0
        model.input_vectors[:, c % dim] = -0.0
    model.input_vectors[PAD_INDEX] = 0.0
    reference.input_vectors[:] = model.input_vectors
    reference.output_vectors[:] = model.output_vectors

    for (center, context, negatives), lr in predictions:
        want = reference_update(reference, objective, center, context, negatives, lr)
        assert update(model, objective, center, context, negatives, lr) == want
        assert model.output_vectors.tobytes() == reference.output_vectors.tobytes()
        assert model.input_vectors.tobytes() == reference.input_vectors.tobytes()


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 21), width=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1),
       negative_zero_columns=st.lists(st.integers(0, 599), max_size=3),
       signed_zero_columns=st.lists(st.integers(0, 599), max_size=3))
def test_row_sum_is_the_zero_started_loop(rows, width, seed, negative_zero_columns,
                                          signed_zero_columns):
    rng = np.random.default_rng(seed)
    pieces = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 9, size=(rows, 1))
    for c in signed_zero_columns:
        pieces[:, c % width] = signed_zeros(rng, rows)
    for c in negative_zero_columns:
        pieces[:, c % width] = -0.0
    want = np.zeros(width)
    for piece in pieces:
        want += piece
    assert pretrain._row_sum(pieces).tobytes() == want.tobytes()


def test_row_sum_of_negative_zeros_is_positive_zero():
    got = pretrain._row_sum(np.full((3, 2), -0.0))
    assert not np.signbit(got).any()
    assert not np.signbit(pretrain._row_sum(np.full((3, 1), -0.0))).any()


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

    loss, dv, du = as_dicts(grads(model))
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


@pytest.mark.parametrize("objective", [CBOW, SKIPGRAM])
def test_sentences_without_predictions_draw_no_negatives(objective, tmp_path):
    # one-word sentences have no context, so CBOW and skip-gram make no
    # prediction and need no second sampleable word: the run ends in the
    # refusal of a run without predictions, not in negative_sample's
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a"] * 3)
    cfg = EmbedConfig(dim=3, window=1, negatives=2, epochs=1, seed=1)
    with pytest.raises(ValueError, match="no epoch made a prediction"):
        train_embeddings(str(corpus), objective, cfg)


@pytest.mark.parametrize("objective", [CBOW, SKIPGRAM, CCONCAT])
def test_run_whose_epochs_make_no_prediction_names_the_corpus_and_subsample(
        objective, tmp_path):
    # at the default threshold and seed 2 subsampling keeps none of these
    # 35 words, so the vectors would stay the initial ones
    corpus = tmp_path / "tiny.txt"
    write_corpus(corpus, [" ".join("w" + c for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHI")])
    cfg = EmbedConfig(dim=3, window=5, negatives=2, epochs=1, seed=2)
    with pytest.raises(ValueError) as err:
        train_embeddings(str(corpus), objective, cfg)
    assert str(corpus) in str(err.value)
    assert "--subsample 1e-05" in str(err.value)


def test_an_epoch_without_predictions_is_kept_when_another_made_some(tmp_path):
    # each word is kept with p about 0.59; at seed 8 only the last of the
    # three epochs keeps both, and only the run as a whole is refused
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, ["a b"])
    cfg = EmbedConfig(dim=3, window=1, subsample=0.0858, negatives=2, epochs=3, seed=8)
    model = train_embeddings(str(corpus), CBOW, cfg)
    losses = model.epoch_losses
    assert losses[:2] == [0.0, 0.0]
    assert losses[2] > 0.0
    assert model.epoch_predictions[:2] == [0, 0]
    assert model.epoch_predictions[2] > 0


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


# where normalizing a line could part from normalizing its tokens: Greek
# capitals and the sigma whose lowercase depends on what follows it,
# case-ignorable marks, the I with dot above that lowercases to two
# characters, whitespace outside ASCII and the C0 separators, and decimal
# digits outside ASCII
LINE_ALPHABET = ("ΑΒΓΟΣΩa" "'\u00ad\u0301\u180e" "\u0130"
                 " \t\u00a0\u0085\u2028\u3000\x1c\x1d\x1e\x1f" "\u0663\u06f5\u07c1\u0967")


def per_token(line):
    return [normalize(w) for w in line.split()]


def read_corpus_per_token(path):
    """read_corpus as it was when it normalized each token: the reference."""
    return [words for words in (per_token(line) for _, line in read_lines(path)) if words]


@settings(max_examples=500, deadline=None)
@given(line=st.text(alphabet=LINE_ALPHABET, max_size=24))
def test_a_normalized_line_splits_into_the_normalized_tokens(line):
    assert normalize(line).split() == per_token(line)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.text(alphabet=LINE_ALPHABET, max_size=24), max_size=6))
def test_read_corpus_equals_normalizing_each_token(lines):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "raw.txt"
        path.write_bytes("".join(ln + "\n" for ln in lines).encode("utf-8"))
        assert pretrain.read_corpus(str(path)) == read_corpus_per_token(path)


def test_final_sigma_is_decided_within_its_token():
    # a sigma that ends a word before NBSP or a C0 separator is final; one
    # that starts a word after it is not
    assert normalize("ΟΣ\u00a0ΣΟ\x1cΟΣ'").split() == ["ος", "σο", "ος'"]
