import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rnntagger.architectures import (
    ModelSpec,
    decode_window,
    encode,
    forward_batch,
    init_model,
)
from rnntagger.corpus import Lexicon, Sentence, Token, build_vocab
from rnntagger.evaluation import EvalReport
from rnntagger.linalg import SeededRng
from rnntagger.model import Model
from rnntagger.representation import (
    DocCache,
    EmbeddingTable,
    FeatureConfig,
    encode_sentence,
    token_features,
)
from rnntagger.synth import MEMORIZE_TYPES, memorize_corpus
from rnntagger.tagging import BIO2, make_tagset
from rnntagger import training
from rnntagger.training import (
    FD_NOISE,
    EpochStats,
    TrainConfig,
    fit,
    gradient_check,
    nll_loss,
    train_epoch,
    train_example,
    window_nll,
)


def zero_grads(params):
    """A zero-filled gradient set: the reference steps add into it."""
    return {b: {n: np.zeros_like(p) for n, p in block.items()} for b, block in params.items()}


def sent(words, tags, doc="0"):
    return Sentence([Token(w, t) for w, t in zip(words, tags)], doc_id=doc)


TRAIN_SENTS = [
    sent(["anna", "visited", "acme", "corp", "today"],
         ["B-PER", "O", "B-ORG", "I-ORG", "O"]),
    sent(["bob", "left", "anna", "alone"],
         ["B-PER", "O", "B-PER", "O"]),
]


def build_model(sentences, arch="basic", decoder="ELMAN", encoder=None,
                hidden=6, dim=4, v_c=1, seed=3, fconf=None):
    vocab = build_vocab(sentences)
    rng = SeededRng(seed)
    table = EmbeddingTable.random(vocab, dim, rng)
    fconf = fconf or FeatureConfig()
    tagset = make_tagset(["ORG", "PER"], BIO2)
    n_in = (dim + fconf.width) * (2 * v_c + 1)
    spec = ModelSpec(arch=arch, n_in=n_in, hidden=hidden, n_tags=len(tagset),
                     decoder_cell=decoder, encoder_cell=encoder)
    params = init_model(spec, rng)
    return Model(spec=spec, params=params, table=table, fconf=fconf,
                 tagset=tagset, scheme=BIO2, v_c=v_c)


def inputs_of(model, s):
    """The (word indices, feature columns) train_epoch prepares for s,
    outside any document cache."""
    return token_features(s, model.table.vocab, model.fconf)


def xs_of(model, s):
    """The (n, I) inputs of s outside any document cache."""
    return encode_sentence(s, model.table, model.fconf, model.v_c)


def first_window(model, si=0, pos=0):
    """(prepared inputs, position, gold index) of one training example."""
    s = TRAIN_SENTS[si]
    y = model.tag_to_index[s.tokens[pos].gold_tag]
    return inputs_of(model, s), pos, y


def model_state(model):
    arrays = [(b, n, a.copy()) for b in sorted(model.params)
              for n, a in sorted(model.params[b].items())]
    return arrays, model.table.matrix.copy()


def states_equal(a, b):
    (pa, ma), (pb, mb) = a, b
    return (all(np.array_equal(x[2], y[2]) for x, y in zip(pa, pb))
            and np.array_equal(ma, mb))


# ---------------------------------------------------------------- config

def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.01
    assert cfg.epochs == 5
    assert cfg.v_d == 9 and cfg.v_c == 5
    assert cfg.hidden == 200
    assert cfg.shuffle and cfg.fine_tune_embeddings
    assert cfg.clip_threshold is None


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": 0.0},
    {"learning_rate": -0.1},
    {"v_d": -1},
    {"v_c": -2},
    {"epochs": -1},
    {"dev_eval_every": 0},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


# ------------------------------------------------------------------ loss

def test_nll_of_half_is_ln_two():
    assert nll_loss(np.array([0.25, 0.25, 0.5]), 2) == pytest.approx(math.log(2), abs=1e-12)


def test_nll_of_certain_correct_is_zero():
    assert nll_loss(np.array([0.0, 1.0, 0.0]), 1) == 0.0


def test_nll_of_uniform_is_ln_classes():
    o = np.full(4, 0.25)
    assert nll_loss(o, 3) == pytest.approx(math.log(4), abs=1e-12)


def test_nll_clamps_zero_probability():
    assert nll_loss(np.array([1.0, 0.0]), 1) == pytest.approx(-math.log(1e-12))


def test_nll_index_out_of_range():
    with pytest.raises(IndexError):
        nll_loss(np.array([0.5, 0.5]), 2)
    with pytest.raises(IndexError):
        nll_loss(np.array([0.5, 0.5]), -1)


# --------------------------------------------------------- train_example

def test_loss_is_preupdate_windowed_nll():
    model = build_model(TRAIN_SENTS, arch="bidirectional", decoder="JORDAN",
                        encoder="ELMAN")
    probe = copy.deepcopy(model)
    inputs, pos, y = first_window(model, si=0, pos=3)
    cfg = TrainConfig(learning_rate=0.1, v_d=2)
    loss = train_example(model, inputs, pos, y, cfg)

    enc = encode(probe.spec, probe.params, xs_of(probe, TRAIN_SENTS[0]))
    dec = decode_window(probe.spec, probe.params, enc, 1, 3)  # max(0, 3-2)..3
    assert loss == nll_loss(dec.dists[-1], y)


@pytest.mark.parametrize("arch,decoder,encoder", [
    ("basic", "ELMAN_GRU", None),
    ("contextual", "JORDAN", "ELMAN"),
    ("bidirectional", "JORDAN_GRU", "ELMAN_GRU"),
    ("mesnil", None, "JORDAN"),
])
def test_step_is_minus_lr_times_audited_gradient(arch, decoder, encoder):
    # the gradient check audits window_nll; an SGD step must take exactly
    # its loss and move every parameter by exactly -lr times its gradient
    model = build_model(TRAIN_SENTS, arch=arch, decoder=decoder, encoder=encoder)
    probe = copy.deepcopy(model)
    inputs, pos, y = first_window(model, si=0, pos=3)
    cfg = TrainConfig(learning_rate=0.1, v_d=2, fine_tune_embeddings=False)
    loss = train_example(model, inputs, pos, y, cfg)

    acc = zero_grads(probe.params)
    want, _ = window_nll(probe.spec, probe.params, xs_of(probe, TRAIN_SENTS[0]),
                         [(pos, y)], cfg.v_d, acc)
    assert loss == want
    for b in probe.params:
        for n, p in probe.params[b].items():
            assert np.array_equal(model.params[b][n], p - cfg.learning_rate * acc[b][n]), (b, n)
    assert np.array_equal(model.table.matrix, probe.table.matrix)


def test_first_position_is_single_step_from_zero_state():
    model = build_model(TRAIN_SENTS)
    probe = copy.deepcopy(model)
    inputs, pos, y = first_window(model, pos=0)
    loss = train_example(model, inputs, pos, y, TrainConfig())
    enc = encode(probe.spec, probe.params, xs_of(probe, TRAIN_SENTS[0]))
    dec = decode_window(probe.spec, probe.params, enc, 0, 0)
    assert len(dec.dists) == 1
    assert loss == nll_loss(dec.dists[0], y)


@pytest.mark.parametrize("arch,decoder,encoder", [
    ("basic", "ELMAN", None),
    ("basic", "JORDAN_GRU", None),
    ("contextual", "JORDAN", "ELMAN"),
    ("bidirectional", "ELMAN_GRU", "JORDAN"),
    ("mesnil", None, "ELMAN"),
])
def test_repeated_training_decreases_loss_monotonically(arch, decoder, encoder):
    model = build_model(TRAIN_SENTS, arch=arch, decoder=decoder, encoder=encoder)
    w = first_window(model, si=0, pos=2)
    cfg = TrainConfig(learning_rate=0.02)
    losses = [train_example(model, *w, cfg) for _ in range(100)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9
    assert losses[-1] < losses[0] - 1e-4


def test_fine_tuning_updates_only_reachable_rows():
    # v_c=0 and v_d=0: the example at position 2 sees exactly one word
    model = build_model(TRAIN_SENTS, v_c=0)
    before = model.table.matrix.copy()
    w = first_window(model, si=0, pos=2)
    cfg = TrainConfig(learning_rate=0.5, v_d=0)
    train_example(model, *w, cfg)

    touched = model.table.vocab.index("acme")
    assert not np.array_equal(model.table.matrix[touched], before[touched])
    for word in ["anna", "visited", "corp", "today", "bob"]:
        i = model.table.vocab.index(word)
        assert np.array_equal(model.table.matrix[i], before[i]), word
    assert np.all(model.table.matrix[0] == 0.0)  # PAD stays frozen


def test_fine_tune_flag_off_freezes_embeddings():
    model = build_model(TRAIN_SENTS)
    before = model.table.matrix.copy()
    cfg = TrainConfig(learning_rate=0.5, fine_tune_embeddings=False)
    train_example(model, *first_window(model), cfg)
    assert np.array_equal(model.table.matrix, before)


def test_window_truncation_limits_embedding_reach():
    # with v_d=0 and v_c=1 the receptive field of position 3 is tokens 2..4
    model = build_model(TRAIN_SENTS, v_c=1)
    before = model.table.matrix.copy()
    cfg = TrainConfig(learning_rate=0.5, v_d=0)
    w = first_window(model, si=0, pos=3)
    train_example(model, *w, cfg)
    changed = {word for word in ["anna", "visited", "acme", "corp", "today"]
               if not np.array_equal(model.table.matrix[model.table.vocab.index(word)],
                                     before[model.table.vocab.index(word)])}
    assert changed == {"acme", "corp", "today"}


def test_nonfinite_parameters_abort():
    model = build_model(TRAIN_SENTS)
    model.params["decoder"]["U"][0, 0] = float("nan")
    with pytest.raises(FloatingPointError):
        train_example(model, *first_window(model), TrainConfig())


def test_numeric_failure_names_epoch_sentence_and_position():
    # an infinite input weight saturates h_0, so the loss stays finite,
    # but dX = dPre @ U meets 0 * inf on the way back to the embeddings
    model = build_model(TRAIN_SENTS, v_c=0)
    model.params["decoder"]["U"][0, 0] = float("inf")
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as err:
        fit(model, TRAIN_SENTS, [], TrainConfig(shuffle=False))
    assert str(err.value) == ("epoch 1, sentence 1, position 1: "
                              "non-finite gradient in embedding row %d"
                              % model.table.vocab.index("anna"))


def test_nonfinite_gradient_names_block():
    acc = {"decoder": {"U": np.array([[float("inf")]])}}
    with pytest.raises(FloatingPointError, match=r"decoder\.U"):
        training._check_finite(acc, np.zeros(0, dtype=int), np.zeros((0, 1)))


def test_clip_caps_global_update_norm():
    model = build_model(TRAIN_SENTS)
    reference = copy.deepcopy(model)
    cfg = TrainConfig(learning_rate=1.0, clip_threshold=1e-3)
    train_example(model, *first_window(model), cfg)

    sq = 0.0
    for b in model.params:
        for n in model.params[b]:
            d = model.params[b][n] - reference.params[b][n]
            sq += float(np.sum(d * d))
    d = model.table.matrix - reference.table.matrix
    sq += float(np.sum(d * d))
    # update = lr * clipped gradient, whose norm is exactly the threshold
    assert math.sqrt(sq) == pytest.approx(1e-3, rel=1e-9)


def test_huge_clip_threshold_is_identity():
    m1 = build_model(TRAIN_SENTS)
    m2 = copy.deepcopy(m1)
    w = first_window(m1)
    train_example(m1, *w, TrainConfig(learning_rate=0.1, clip_threshold=1e9))
    train_example(m2, *w, TrainConfig(learning_rate=0.1))
    assert states_equal(model_state(m1), model_state(m2))


# ----------------------------------------------------------- train_epoch

def test_epoch_visits_every_position_once():
    model = build_model(TRAIN_SENTS)
    stats = train_epoch(model, TRAIN_SENTS, TrainConfig(learning_rate=0.01))
    assert stats.n_examples == sum(len(s) for s in TRAIN_SENTS)
    assert stats.mean_loss > 0.0
    assert stats.examples_per_sec > 0.0


def test_single_token_dataset_is_one_update():
    data = [sent(["anna"], ["B-PER"])]
    m1 = build_model(data)
    m2 = copy.deepcopy(m1)
    stats = train_epoch(m1, data, TrainConfig(learning_rate=0.05))
    assert stats.n_examples == 1
    y = m2.tag_to_index["B-PER"]
    train_example(m2, inputs_of(m2, data[0]), 0, y, TrainConfig(learning_rate=0.05))
    assert states_equal(model_state(m1), model_state(m2))


def test_empty_dataset_rejected():
    model = build_model(TRAIN_SENTS)
    with pytest.raises(ValueError):
        train_epoch(model, [], TrainConfig())


def test_epoch_without_shuffle_is_corpus_order():
    m1 = build_model(TRAIN_SENTS)
    m2 = copy.deepcopy(m1)
    cfg = TrainConfig(learning_rate=0.05, shuffle=False)
    train_epoch(m1, TRAIN_SENTS, cfg)
    # replay manually in corpus order
    for s in TRAIN_SENTS:
        for pos in range(len(s)):
            y = m2.tag_to_index[s.tokens[pos].gold_tag]
            train_example(m2, inputs_of(m2, s), pos, y, cfg)
    assert states_equal(model_state(m1), model_state(m2))


def test_same_seed_same_parameters():
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=11)
    m1 = build_model(TRAIN_SENTS, seed=4)
    m2 = build_model(TRAIN_SENTS, seed=4)
    fit(m1, TRAIN_SENTS, [], cfg)
    fit(m2, TRAIN_SENTS, [], cfg)
    assert states_equal(model_state(m1), model_state(m2))


def test_shuffled_epochs_differ_across_epochs_but_replay_bitwise():
    # the rng is threaded through fit, so epoch 2's order differs from
    # epoch 1's; replaying fit from scratch reproduces both exactly
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=9)
    m1 = build_model(TRAIN_SENTS, seed=4)
    one_epoch = build_model(TRAIN_SENTS, seed=4)
    fit(m1, TRAIN_SENTS, [], cfg)
    rng = SeededRng(cfg.seed)
    train_epoch(one_epoch, TRAIN_SENTS, cfg, rng)
    train_epoch(one_epoch, TRAIN_SENTS, cfg, rng)
    assert states_equal(model_state(m1), model_state(one_epoch))


def test_gold_cache_snapshots_follow_documents():
    # the cache columns of each prepared sentence come from the gold tags
    # of the earlier sentences of its document, and a new document starts
    # from an empty cache
    tagset = make_tagset(["ORG", "PER"], BIO2)
    fconf = FeatureConfig(cache_tagset=tagset)
    data = [
        sent(["anna", "smiled"], ["B-PER", "O"], doc="a"),
        sent(["anna", "left", "smiled"], ["B-PER", "O", "O"], doc="a"),
        sent(["anna", "again"], ["O", "O"], doc="b"),
    ]
    model = build_model(data, fconf=fconf)
    columns = [features for (_, features), _ in training._prepare(model, data)]
    one_hot = np.eye(len(tagset))
    t2i = model.tag_to_index
    none = np.zeros(len(tagset))
    assert np.array_equal(columns[0], [none, none])
    assert np.array_equal(columns[1], [one_hot[t2i["B-PER"]], none, one_hot[t2i["O"]]])
    assert np.array_equal(columns[2], [none, none])  # new document


TAGSET = make_tagset(["ORG", "PER"], BIO2)


@pytest.mark.parametrize("change,problem", [
    ({"v_c": 2}, r"spec\.n_in is 27, expected \(dim 4 \+ features 5\) x \(2 v_c \+ 1\) = 45"),
    ({"v_c": 1.0}, "v_c must be an integer >= 0, got 1.0"),
    ({"tagset": TAGSET[:4]}, "tagset has 4 tags, spec.n_tags is 5"),
    ({"fconf": FeatureConfig(cache_tagset=TAGSET[::-1])},
     "features.cache_tagset must be null or equal tagset"),
])
def test_a_model_built_in_code_checks_its_own_shape(change, problem):
    # the checks a model file meets on load hold however the model is built
    model = build_model(TRAIN_SENTS, fconf=FeatureConfig(cache_tagset=TAGSET))
    with pytest.raises(ValueError, match=problem):
        dataclasses.replace(model, **change)


def test_non_finite_dev_distribution_names_the_epoch(monkeypatch):
    # finite weights whose output layer overflows; training is stubbed out
    # so that the dev evaluation is what meets it
    model = build_model(TRAIN_SENTS)
    model.params["decoder_out"]["W"][:] = 1.7e308
    monkeypatch.setattr(training, "train_epoch",
                        lambda *args: EpochStats(mean_loss=1.0, n_examples=1, seconds=1.0))
    with pytest.raises(FloatingPointError, match="^epoch 1, dev document 1, sentence 1, "
                       "position 1: non-finite output distribution$"):
        fit(model, TRAIN_SENTS, TRAIN_SENTS, TrainConfig(epochs=1))


def test_token_features_run_once_per_sentence_per_epoch(monkeypatch):
    calls = []

    def counting(sentence, *args):
        calls.append(sentence)
        return token_features(sentence, *args)

    monkeypatch.setattr(training, "token_features", counting)
    model = build_model(TRAIN_SENTS)
    stats = train_epoch(model, TRAIN_SENTS, TrainConfig())
    train_epoch(model, TRAIN_SENTS, TrainConfig())
    assert stats.n_examples > len(TRAIN_SENTS)
    assert calls == TRAIN_SENTS + TRAIN_SENTS


def reference_epoch(model, sentences, cfg):
    """One epoch as per-example re-encoding: every example runs all of
    encode_sentence under a copy of the gold cache taken before its
    sentence, then takes an unclipped SGD step.  Returns the losses."""
    t2i = model.tag_to_index
    snaps, cache = [], DocCache()
    for k, s in enumerate(sentences):
        if k and s.doc_id != sentences[k - 1].doc_id:
            cache = DocCache()
        snaps.append(copy.deepcopy(cache))
        cache.update_sentence(s, s.tags(), t2i)
    examples = [(si, pos) for si, s in enumerate(sentences) for pos in range(len(s))]
    SeededRng(cfg.seed).shuffle(examples)
    losses = []
    for si, pos in examples:
        s = sentences[si]
        xs = encode_sentence(s, model.table, model.fconf, model.v_c, snaps[si])
        acc = zero_grads(model.params)
        loss, dxs = window_nll(model.spec, model.params, xs,
                               [(pos, t2i[s.tokens[pos].gold_tag])], cfg.v_d, acc)
        for b in acc:
            for n, g in acc[b].items():
                model.params[b][n] -= cfg.learning_rate * g
        indices = [model.table.vocab.index(w) for w in s.surfaces()]
        model.table.add_grad(*training._embedding_grads(indices, dxs, model.v_c,
                                                        model.table.dim), cfg.learning_rate)
        losses.append(loss)
    return losses


@pytest.mark.parametrize("arch,decoder,encoder", [
    ("basic", "ELMAN", None),
    ("bidirectional", "JORDAN_GRU", "ELMAN_GRU"),
])
def test_prepared_epoch_is_bitwise_per_example_reencoding(arch, decoder, encoder,
                                                          monkeypatch):
    # two documents, one word cached across sentences in each, and every
    # feature channel on: preparing a sentence's features once per epoch
    # must give the losses and bytes of re-encoding it per example
    tagset = make_tagset(["ORG", "PER"], BIO2)
    fconf = FeatureConfig(capitalization=True,
                          gazetteers=[Lexicon("gaz", {"acme corp", "anna"})],
                          trigger=Lexicon("trig", {"visited"}), cache_tagset=tagset)
    data = [
        sent(["Anna", "visited", "ACME", "corp", "today"],
             ["B-PER", "O", "B-ORG", "I-ORG", "O"], doc="a"),
        sent(["Bob", "left", "anna", "alone"], ["B-PER", "O", "B-PER", "O"], doc="a"),
        sent(["acme", "corp", "visited", "Bob"], ["B-ORG", "I-ORG", "O", "B-PER"], doc="b"),
        sent(["Anna", "left"], ["B-PER", "O"], doc="b"),
    ]
    cfg = TrainConfig(learning_rate=0.1, v_d=2, seed=6)
    model = build_model(data, arch=arch, decoder=decoder, encoder=encoder, fconf=fconf)
    reference = copy.deepcopy(model)

    losses = []

    def recording(*args):
        losses.append(train_example(*args))
        return losses[-1]

    monkeypatch.setattr(training, "train_example", recording)
    train_epoch(model, data, cfg)
    assert losses == reference_epoch(reference, data, cfg)
    assert states_equal(model_state(model), model_state(reference))


def test_untagged_training_data_rejected():
    model = build_model(TRAIN_SENTS)
    bad = [Sentence([Token("anna")])]
    with pytest.raises(ValueError):
        train_epoch(model, bad, TrainConfig())


# The four architecture/cell pairs the benchmark trains, each run for one
# epoch on a small fixed corpus.  H and I stay small enough that BLAS
# runs every product on one thread, so the bytes depend on the code only.
SGD_GOLDEN = json.loads((Path(__file__).parent / "data" / "sgd_golden.json").read_text())
GOLDEN_SPECS = {
    "basic-elman": dict(arch="basic", decoder_cell="ELMAN"),
    "contextual-elman-jordan": dict(arch="contextual", encoder_cell="ELMAN",
                                    decoder_cell="JORDAN"),
    "bidirectional-gru": dict(arch="bidirectional", encoder_cell="ELMAN_GRU",
                              decoder_cell="JORDAN_GRU"),
    "mesnil-jordan": dict(arch="mesnil", encoder_cell="JORDAN", mesnil_k=1),
}


def golden_epoch(name, clip):
    """(mean loss, sha256 of every parameter block and the embedding
    matrix) after one seeded epoch of the named config."""
    g = SGD_GOLDEN["config"]
    sents = memorize_corpus(size=g["sentences"], seed=g["seed"])
    rng = SeededRng(g["seed"])
    table = EmbeddingTable.random(build_vocab(sents), g["dim"], rng)
    tagset = make_tagset(list(MEMORIZE_TYPES), BIO2)
    fconf = FeatureConfig(capitalization=True, cache_tagset=tagset)
    spec = ModelSpec(n_in=fconf.input_width(g["dim"], g["v_c"]), hidden=g["hidden"],
                     n_tags=len(tagset), **GOLDEN_SPECS[name])
    model = Model(spec=spec, params=init_model(spec, rng), table=table, fconf=fconf,
                  tagset=tagset, scheme=BIO2, v_c=g["v_c"])
    cfg = TrainConfig(learning_rate=g["learning_rate"], v_d=g["v_d"], seed=g["seed"],
                      clip_threshold=g["clip_threshold"] if clip else None)
    stats = train_epoch(model, sents, cfg)
    h = hashlib.sha256()
    for bundle in sorted(model.params):
        for block in sorted(model.params[bundle]):
            h.update(model.params[bundle][block].tobytes())
    h.update(model.table.matrix.tobytes())
    return stats.mean_loss, h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_unclipped_epoch_keeps_the_golden_bytes(name):
    loss, digest = golden_epoch(name, clip=False)
    want = SGD_GOLDEN["configs"][name]
    assert digest == want["sha256"]
    assert loss == want["mean_loss"]


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_clipped_epoch_loss_within_stated_drift(name):
    # the clip norm may sum the gradient in another order, so the clipped
    # path is held to the 1e-12 relative drift bound rather than its bytes
    loss, _ = golden_epoch(name, clip=True)
    want = SGD_GOLDEN["configs"][name]["clipped_mean_loss"]
    assert loss == pytest.approx(want, rel=1e-12, abs=0.0)


# ------------------------------------------------------------------- fit

def test_fit_single_epoch_equals_train_epoch():
    cfg = TrainConfig(learning_rate=0.05, epochs=1, seed=5)
    m1 = build_model(TRAIN_SENTS, seed=4)
    m2 = build_model(TRAIN_SENTS, seed=4)
    result = fit(m1, TRAIN_SENTS, [], cfg)
    train_epoch(m2, TRAIN_SENTS, cfg, SeededRng(cfg.seed))
    assert states_equal(model_state(m1), model_state(m2))
    assert result.best_epoch == 1
    assert len(result.history) == 1


def fake_dev_scores(scores, monkeypatch, record):
    seq = iter(scores)

    def stub(model, dev, gold_spans):
        record.append(copy.deepcopy(model.params))
        f1 = next(seq)
        return EvalReport(f1, f1, f1, 1, 1, 1, {})

    monkeypatch.setattr(training, "_dev_f1", stub)


def test_fit_keeps_best_dev_epoch(monkeypatch):
    record = []
    fake_dev_scores([50.0, 80.0, 70.0], monkeypatch, record)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=2)
    model = build_model(TRAIN_SENTS)
    dev = [sent(["anna"], ["B-PER"])]
    result = fit(model, TRAIN_SENTS, dev, cfg)
    assert result.best_epoch == 2
    assert [row["dev_f1"] for row in result.history] == [50.0, 80.0, 70.0]
    for b in record[1]:
        for n in record[1][b]:
            assert np.array_equal(model.params[b][n], record[1][b][n])


def test_fit_tie_keeps_earlier_epoch(monkeypatch):
    record = []
    fake_dev_scores([70.0, 70.0], monkeypatch, record)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=2)
    model = build_model(TRAIN_SENTS)
    result = fit(model, TRAIN_SENTS, [sent(["anna"], ["B-PER"])], cfg)
    assert result.best_epoch == 1
    for b in record[0]:
        for n in record[0][b]:
            assert np.array_equal(model.params[b][n], record[0][b][n])


def test_fit_empty_dev_returns_last_epoch():
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=2)
    m1 = build_model(TRAIN_SENTS, seed=4)
    m2 = build_model(TRAIN_SENTS, seed=4)
    result = fit(m1, TRAIN_SENTS, [], cfg)
    rng = SeededRng(cfg.seed)
    for _ in range(3):
        train_epoch(m2, TRAIN_SENTS, cfg, rng)
    assert result.best_epoch == 3
    assert states_equal(model_state(m1), model_state(m2))
    assert all("dev_f1" not in row for row in result.history)


def test_fit_dev_eval_every_thins_evaluations(monkeypatch):
    record = []
    fake_dev_scores([60.0, 61.0], monkeypatch, record)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=2, dev_eval_every=2)
    model = build_model(TRAIN_SENTS)
    result = fit(model, TRAIN_SENTS, [sent(["anna"], ["B-PER"])], cfg)
    evaluated = [row["epoch"] for row in result.history if "dev_f1" in row]
    assert evaluated == [2, 3]  # every 2nd epoch plus the final one


def test_fit_real_dev_scores_are_span_f1():
    cfg = TrainConfig(learning_rate=0.06, epochs=2, seed=3)
    model = build_model(TRAIN_SENTS, hidden=8)
    result = fit(model, TRAIN_SENTS, TRAIN_SENTS, cfg)
    for row in result.history:
        assert 0.0 <= row["dev_f1"] <= 100.0
        assert 0.0 <= row["dev_p"] <= 100.0
        assert 0.0 <= row["dev_r"] <= 100.0


# ---------------------------------------------------- windowed vs full

@pytest.mark.parametrize("arch,decoder,encoder", [
    ("basic", "ELMAN", None),
    ("basic", "JORDAN", None),
    ("contextual", "ELMAN_GRU", "ELMAN"),
    ("bidirectional", "JORDAN_GRU", "ELMAN_GRU"),
])
def test_long_window_matches_full_decode_exactly(arch, decoder, encoder):
    model = build_model(TRAIN_SENTS, arch=arch, decoder=decoder, encoder=encoder)
    s = TRAIN_SENTS[0]
    n = len(s)
    xs = xs_of(model, s)
    enc = encode(model.spec, model.params, xs)
    lo = max(0, (n - 1) - 9)  # v_d=9 >= n-1, so lo == 0
    assert lo == 0
    dec = decode_window(model.spec, model.params, enc, lo, n - 1)
    full = forward_batch(model.spec, model.params, [xs])[0]
    assert np.array_equal(dec.dists[-1], full[-1])


# --------------------------------------------------------- grad checker

@pytest.mark.parametrize("kind", ["ELMAN", "JORDAN", "ELMAN_GRU", "JORDAN_GRU"])
def test_gradient_check_basic_cells(kind):
    spec = ModelSpec(arch="basic", n_in=6, hidden=5, n_tags=3, decoder_cell=kind)
    report = gradient_check(spec, seed=42, n_tokens=4)
    assert report.ok(1e-4), report.blocks
    assert all(v < 1e-4 for v in report.blocks.values())


def test_gradient_check_reports_every_block():
    spec = ModelSpec(arch="basic", n_in=6, hidden=5, n_tags=3, decoder_cell="ELMAN")
    report = gradient_check(spec, seed=42, n_tokens=4)
    assert set(report.blocks) == {"decoder.U", "decoder.V", "decoder_out.W"}


def test_gradient_check_reports_absolute_differences():
    # every difference here is under the noise floor, so the relative
    # errors read 0; the absolute differences still show the margin
    spec = ModelSpec(arch="basic", n_in=6, hidden=5, n_tags=3, decoder_cell="ELMAN")
    report = gradient_check(spec, seed=42, n_tokens=4)
    assert report.max_error == 0.0
    assert set(report.abs_diffs) == set(report.blocks)
    assert all(0.0 < d <= FD_NOISE for d in report.abs_diffs.values())


def test_gradient_check_best_bidirectional_combo():
    spec = ModelSpec(arch="bidirectional", n_in=5, hidden=4, n_tags=3,
                     decoder_cell="JORDAN_GRU", encoder_cell="ELMAN_GRU")
    report = gradient_check(spec, seed=42, n_tokens=3)
    assert report.ok(1e-4), report.blocks


def test_gradient_check_truncated_window():
    spec = ModelSpec(arch="basic", n_in=4, hidden=4, n_tags=3, decoder_cell="ELMAN")
    report = gradient_check(spec, seed=7, n_tokens=5, v_d=1)
    assert report.ok(1e-4), report.blocks


def test_zero_parameters_give_symmetric_point_gradient():
    spec = ModelSpec(arch="basic", n_in=4, hidden=3, n_tags=3, decoder_cell="ELMAN")
    rng = SeededRng(1)
    params = init_model(spec, rng)
    for b in params:
        for n in params[b]:
            params[b][n][:] = 0.0
    xs = [rng.uniform(4, -0.5, 0.5) for _ in range(4)]
    golds = [0, 2, 1, 0]

    examples = list(enumerate(golds))
    total, _ = window_nll(spec, params, xs, examples, v_d=9)
    assert total == pytest.approx(4 * math.log(3), abs=1e-12)

    acc = zero_grads(params)
    window_nll(spec, params, xs, examples, v_d=9, acc=acc)
    # W = 0 makes the output uniform no matter what h is, so U and V get
    # no gradient, and dW = sum_i outer(1/O - onehot(y_i), 0.5 * ones)
    assert np.all(acc["decoder"]["U"] == 0.0)
    assert np.all(acc["decoder"]["V"] == 0.0)
    want = np.zeros((3, 3))
    for y in golds:
        d = np.full(3, 1.0 / 3.0)
        d[y] -= 1.0
        want += np.outer(d, np.full(3, 0.5))
    assert np.allclose(acc["decoder_out"]["W"], want, atol=1e-12)


def nan_in_analytic_block(monkeypatch, bundle, name):
    """Make window_nll's analytic gradient of one block NaN at one entry."""
    real = training.window_nll

    def patched(spec, params, xs, examples, v_d, acc=None, **kw):
        out = real(spec, params, xs, examples, v_d, acc, **kw)
        if acc is not None:
            acc[bundle][name][0, 0] = float("nan")
        return out
    monkeypatch.setattr(training, "window_nll", patched)


@pytest.mark.parametrize("block", [("decoder", "U"), ("decoder_out", "W")])
def test_gradient_check_fails_on_a_nan_gradient(monkeypatch, block):
    # max() keeps its first argument against a NaN, so a NaN block once
    # read as rel err 0 and passed
    nan_in_analytic_block(monkeypatch, *block)
    spec = ModelSpec(arch="basic", n_in=4, hidden=3, n_tags=2, decoder_cell="ELMAN")
    report = gradient_check(spec, seed=5, n_tokens=3)
    key = "%s.%s" % block
    assert math.isnan(report.blocks[key]) and math.isnan(report.abs_diffs[key])
    assert math.isnan(report.max_error)
    assert not report.ok(1e-4)


def test_worse_ranks_a_nan_above_every_number():
    for a, b in [(float("nan"), 1.0), (1.0, float("nan")), (float("nan"), float("inf"))]:
        assert math.isnan(training.worse(a, b))
    assert training.worse(0.5, 0.25) == training.worse(0.25, 0.5) == 0.5


def test_gradient_check_is_deterministic():
    spec = ModelSpec(arch="basic", n_in=4, hidden=3, n_tags=2, decoder_cell="ELMAN")
    r1 = gradient_check(spec, seed=5, n_tokens=3)
    r2 = gradient_check(spec, seed=5, n_tokens=3)
    assert r1.blocks == r2.blocks
