import copy
import dataclasses
import math

import numpy as np
import pytest

from rnntagger.architectures import (
    BASIC,
    BIDIRECTIONAL,
    CONTEXTUAL,
    MESNIL,
    ModelSpec,
    argmax_tags,
    backward_encode,
    backward_window,
    bundle_shapes,
    decode_window,
    encode,
    forward_batch,
    init_model,
    run_chain,
)
from rnntagger.cells import (
    ELMAN,
    ELMAN_GRU,
    JORDAN,
    JORDAN_GRU,
    cell_for,
)
from rnntagger.corpus import Sentence, Token, build_vocab
from rnntagger.linalg import SeededRng
from rnntagger.model import Model
from rnntagger.representation import EmbeddingTable, FeatureConfig, token_features, window_inputs
from rnntagger.tagging import BIO2, make_tagset
from rnntagger import architectures, training
from rnntagger.training import TrainConfig, nll_loss, train_example, window_nll


def rand_xs(rng, n, dim):
    return rng.uniform(n * dim, -1, 1).reshape(n, dim)


def first_state(cell, p, x, hidden):
    """h at position 0 from the zero carry, by the cell's own step."""
    return cell.step(p, cell.project(p, x[None], None)[0], np.zeros(hidden))[-1]


class TestModelSpec:
    def test_contextual_requires_elman_family(self):
        with pytest.raises(ValueError, match="Elman-family"):
            ModelSpec(CONTEXTUAL, n_in=4, hidden=3, n_tags=2,
                      decoder_cell=ELMAN, encoder_cell=JORDAN)

    def test_contextual_accepts_elman_gru(self):
        ModelSpec(CONTEXTUAL, n_in=4, hidden=3, n_tags=2,
                  decoder_cell=JORDAN_GRU, encoder_cell=ELMAN_GRU)

    def test_basic_rejects_encoder(self):
        with pytest.raises(ValueError, match="no encoder"):
            ModelSpec(BASIC, n_in=4, hidden=3, n_tags=2,
                      decoder_cell=ELMAN, encoder_cell=ELMAN)

    def test_mesnil_rejects_decoder(self):
        with pytest.raises(ValueError):
            ModelSpec(MESNIL, n_in=4, hidden=3, n_tags=2,
                      decoder_cell=ELMAN, encoder_cell=ELMAN)

    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelSpec("transformer", n_in=4, hidden=3, n_tags=2, decoder_cell=ELMAN)

    def test_alpha_dimension_law(self):
        # decoder input width doubles the encoder state: 2H for the
        # Elman family, 2O for the Jordan family
        for enc_cell, width in [(ELMAN, 6), (ELMAN_GRU, 6), (JORDAN, 4), (JORDAN_GRU, 4)]:
            spec = ModelSpec(BIDIRECTIONAL, n_in=5, hidden=3, n_tags=2,
                             decoder_cell=ELMAN, encoder_cell=enc_cell)
            assert spec.dec_input_dim == width
            assert bundle_shapes(spec)["decoder"]["U"] == (3, width)

    def test_jordan_encoders_get_own_output_layers(self):
        spec = ModelSpec(BIDIRECTIONAL, n_in=5, hidden=3, n_tags=2,
                         decoder_cell=ELMAN, encoder_cell=JORDAN)
        shapes = bundle_shapes(spec)
        assert shapes["encoder_fwd_out"]["W"] == (2, 3)
        assert shapes["encoder_bwd_out"]["W"] == (2, 3)
        elman_spec = ModelSpec(BIDIRECTIONAL, n_in=5, hidden=3, n_tags=2,
                               decoder_cell=ELMAN, encoder_cell=ELMAN)
        assert "encoder_fwd_out" not in bundle_shapes(elman_spec)

    def test_init_deterministic(self):
        spec = ModelSpec(BIDIRECTIONAL, n_in=4, hidden=3, n_tags=2,
                         decoder_cell=JORDAN_GRU, encoder_cell=ELMAN_GRU)
        a = init_model(spec, SeededRng(7))
        b = init_model(spec, SeededRng(7))
        for bundle in a:
            for k in a[bundle]:
                assert np.array_equal(a[bundle][k], b[bundle][k])


class TestEncodeForward:
    def test_single_step_reduction(self):
        rng = SeededRng(3)
        cell = cell_for(ELMAN)
        from rnntagger.cells import init_params
        p = init_params(cell.param_shapes(4, 3, 2), rng)
        x = rng.uniform(4, -1, 1)
        states = run_chain(cell, p, None, [x[None]])[0].states
        assert np.array_equal(states[0], first_state(cell, p, x, 3))

    def test_severed_recurrence_is_feedforward(self):
        p = {"U": np.array([[1.0, -1.0]]), "V": np.zeros((1, 1))}
        xs = [np.array([0.3, 0.1]), np.array([-0.5, 0.2]), np.array([0.9, 0.9])]
        states = run_chain(cell_for(ELMAN), p, None, [xs])[0].states
        flipped = run_chain(cell_for(ELMAN), p, None, [list(reversed(xs))])[0].states
        assert np.allclose(states, list(reversed(flipped)), atol=0)

    def test_three_step_scalar_chain_oracle(self):
        phi = lambda t: 1.0 / (1.0 + math.exp(-t))
        p = {"U": np.array([[1.0]]), "V": np.array([[2.0]])}
        xs = [np.array([0.5]), np.array([-0.25]), np.array([1.0])]
        h1 = phi(0.5)
        h2 = phi(-0.25 + 2 * h1)
        h3 = phi(1.0 + 2 * h2)
        states = run_chain(cell_for(ELMAN), p, None, [xs])[0].states
        assert [s[0] for s in states] == pytest.approx([h1, h2, h3], abs=1e-15)


class TestEncodeBackward:
    """The right-to-left states r_i that encode() aligns with positions."""

    def _model(self, seed=5, shared=False):
        spec = ModelSpec(BIDIRECTIONAL, n_in=3, hidden=2, n_tags=2,
                         decoder_cell=ELMAN, encoder_cell=ELMAN)
        params = init_model(spec, SeededRng(seed))
        if shared:
            params["encoder_bwd"] = params["encoder_fwd"]
        return spec, params

    def test_definitional_identity(self):
        spec, params = self._model()
        xs = rand_xs(SeededRng(6), 4, 3)
        r = encode(spec, params, xs).r
        run = run_chain(cell_for(ELMAN), params["encoder_bwd"], None,
                        [list(reversed(xs))])[0]
        expect = list(reversed(run.states))
        assert all(np.array_equal(a, b) for a, b in zip(r, expect))

    def test_palindrome_with_shared_params(self):
        spec, params = self._model(shared=True)
        a, b = SeededRng(7).uniform(3, -1, 1), SeededRng(8).uniform(3, -1, 1)
        xs = [a, b, a]  # palindrome
        enc = encode(spec, params, xs)
        n = len(xs)
        for i in range(n):
            assert np.allclose(enc.l[i], enc.r[n - 1 - i], atol=0)

    def test_single_token(self):
        spec, params = self._model(shared=True)
        x = SeededRng(9).uniform(3, -1, 1)
        enc = encode(spec, params, x[None])
        assert np.array_equal(enc.r[0], enc.l[0])


class TestContextual:
    def _spec(self, dec=JORDAN, enc=ELMAN):
        return ModelSpec(CONTEXTUAL, n_in=4, hidden=3, n_tags=2,
                         decoder_cell=dec, encoder_cell=enc)

    def test_zero_s_equals_basic(self):
        for dec in (ELMAN, JORDAN, ELMAN_GRU, JORDAN_GRU):
            spec = self._spec(dec=dec)
            params = init_model(spec, SeededRng(11))
            params["context"]["S"][:] = 0.0
            basic_spec = ModelSpec(BASIC, n_in=4, hidden=3, n_tags=2, decoder_cell=dec)
            basic_params = {"decoder": params["decoder"],
                            "decoder_out": params["decoder_out"]}
            xs = rand_xs(SeededRng(12), 3, 4)
            ours = forward_batch(spec, params, [xs])[0]
            base = forward_batch(basic_spec, basic_params, [xs])[0]
            for o, b in zip(ours, base):
                assert np.allclose(o, b, atol=1e-12)

    def test_single_token_sentence(self):
        spec = self._spec()
        params = init_model(spec, SeededRng(13))
        xs = rand_xs(SeededRng(14), 1, 4)
        dists = forward_batch(spec, params, [xs])[0]
        assert len(dists) == 1
        assert abs(dists[0].sum() - 1.0) < 1e-12

    def test_zero_encoder_constant_shift(self):
        # zero Elman encoder params make every state 0.5, so the decoder
        # sees the constant shift S @ (0.5 * ones)
        spec = self._spec(dec=ELMAN)
        params = init_model(spec, SeededRng(15))
        for k in params["encoder_fwd"]:
            params["encoder_fwd"][k][:] = 0.0
        xs = rand_xs(SeededRng(16), 3, 4)
        enc = encode(spec, params, xs)
        assert np.allclose(enc.c_n, 0.5, atol=0)
        shift = params["context"]["S"] @ np.full(3, 0.5)
        manual = run_chain(cell_for(ELMAN), params["decoder"], params["decoder_out"],
                           [xs], extras=[shift])[0]
        dists = forward_batch(spec, params, [xs])[0]
        for o, m in zip(dists, manual.dists):
            assert np.allclose(o, m, atol=0)


class TestBidirectional:
    def _spec(self, dec=ELMAN, enc=ELMAN):
        return ModelSpec(BIDIRECTIONAL, n_in=4, hidden=3, n_tags=2,
                         decoder_cell=dec, encoder_cell=enc)

    def test_zero_backward_encoder_constant_half(self):
        spec = self._spec()
        params = init_model(spec, SeededRng(17))
        for k in params["encoder_bwd"]:
            params["encoder_bwd"][k][:] = 0.0
        xs = rand_xs(SeededRng(18), 4, 4)
        enc = encode(spec, params, xs)
        for r in enc.r:
            assert np.allclose(r, 0.5, atol=0)
        for alpha in enc.dec_inputs:
            assert np.allclose(alpha[3:], 0.5, atol=0)

    def test_single_token_alpha(self):
        spec = self._spec()
        params = init_model(spec, SeededRng(19))
        x = SeededRng(20).uniform(4, -1, 1)
        enc = encode(spec, params, x[None])
        cell = cell_for(ELMAN)
        l1 = first_state(cell, params["encoder_fwd"], x, 3)
        r1 = first_state(cell, params["encoder_bwd"], x, 3)
        assert np.array_equal(enc.dec_inputs[0], np.concatenate([l1, r1]))

    def test_jordan_encoder_states_are_distributions(self):
        spec = self._spec(enc=JORDAN_GRU)
        params = init_model(spec, SeededRng(21))
        xs = rand_xs(SeededRng(22), 3, 4)
        enc = encode(spec, params, xs)
        for li, ri in zip(enc.l, enc.r):
            assert abs(li.sum() - 1.0) < 1e-12
            assert abs(ri.sum() - 1.0) < 1e-12

    def test_all_sixteen_combos_forward(self):
        kinds = (ELMAN, JORDAN, ELMAN_GRU, JORDAN_GRU)
        xs = rand_xs(SeededRng(23), 3, 4)
        for enc_cell in kinds:
            for dec_cell in kinds:
                spec = self._spec(dec=dec_cell, enc=enc_cell)
                params = init_model(spec, SeededRng(24))
                dists = forward_batch(spec, params, [xs])[0]
                assert len(dists) == 3
                for o in dists:
                    assert abs(o.sum() - 1.0) < 1e-12


class TestMesnil:
    def _spec(self, k=1, enc=ELMAN):
        return ModelSpec(MESNIL, n_in=4, hidden=3, n_tags=2,
                         encoder_cell=enc, mesnil_k=k)

    def test_k0_beta_equals_alpha(self):
        spec = self._spec(k=0)
        params = init_model(spec, SeededRng(25))
        xs = rand_xs(SeededRng(26), 3, 4)
        enc = encode(spec, params, xs)
        for i in range(3):
            assert np.array_equal(enc.dec_inputs[i],
                                  np.concatenate([enc.l[i], enc.r[i]]))

    def test_padding_layout_k1_n2(self):
        spec = self._spec(k=1)
        params = init_model(spec, SeededRng(27))
        xs = rand_xs(SeededRng(28), 2, 4)
        enc = encode(spec, params, xs)
        beta0 = enc.dec_inputs[0]
        assert np.all(beta0[:3] == 0)  # l_{-1} slot
        assert np.array_equal(beta0[3:6], enc.l[0])
        assert np.array_equal(beta0[6:9], enc.r[0])
        assert np.array_equal(beta0[9:12], enc.r[1])
        beta1 = enc.dec_inputs[1]
        assert np.array_equal(beta1[:3], enc.l[0])
        assert np.array_equal(beta1[3:6], enc.l[1])
        assert np.array_equal(beta1[6:9], enc.r[1])
        assert np.all(beta1[9:12] == 0)  # r_2 slot

    def test_word_wise_independence(self):
        spec = self._spec()
        params = init_model(spec, SeededRng(29))
        xs = rand_xs(SeededRng(30), 4, 4)
        enc = encode(spec, params, xs)
        whole = decode_window(spec, params, enc, 0, 3).dists
        for i in range(4):
            alone = decode_window(spec, params, enc, i, i).dists[0]
            assert np.array_equal(alone, whole[i])

    def test_beta_width(self):
        spec = self._spec(k=2, enc=JORDAN)
        assert spec.beta_dim == 2 * 3 * 2  # (k+1) l-blocks + (k+1) r-blocks, O wide
        assert bundle_shapes(spec)["mesnil_out"]["W"] == (2, 12)


class TestPredictTags:
    TAGS = ["O", "B-X", "I-X"]

    def test_uniform_ties_break_to_o(self):
        spec = ModelSpec(BASIC, n_in=4, hidden=3, n_tags=3, decoder_cell=ELMAN)
        params = init_model(spec, SeededRng(31))
        params["decoder_out"]["W"][:] = 0.0
        xs = rand_xs(SeededRng(32), 3, 4)
        assert argmax_tags(forward_batch(spec, params, [xs])[0], self.TAGS) == ["O", "O", "O"]

    def test_peaked_distribution_wins(self):
        spec = ModelSpec(BASIC, n_in=2, hidden=2, n_tags=3, decoder_cell=ELMAN)
        params = init_model(spec, SeededRng(33))
        params["decoder_out"]["W"][:] = 0.0
        params["decoder_out"]["W"][2, :] = 50.0  # hidden states are positive
        xs = rand_xs(SeededRng(34), 2, 2)
        assert argmax_tags(forward_batch(spec, params, [xs])[0], self.TAGS) == ["I-X", "I-X"]

    def test_determinism(self):
        spec = ModelSpec(BIDIRECTIONAL, n_in=3, hidden=2, n_tags=3,
                         decoder_cell=JORDAN_GRU, encoder_cell=ELMAN_GRU)
        params = init_model(spec, SeededRng(35))
        xs = rand_xs(SeededRng(36), 5, 3)
        assert argmax_tags(forward_batch(spec, params, [xs])[0], self.TAGS) == argmax_tags(
            forward_batch(spec, params, [xs])[0], self.TAGS)

    def test_temperature_invariance_without_ties(self):
        spec = ModelSpec(BASIC, n_in=3, hidden=4, n_tags=3, decoder_cell=ELMAN)
        params = init_model(spec, SeededRng(37))
        xs = rand_xs(SeededRng(38), 4, 3)
        before = argmax_tags(forward_batch(spec, params, [xs])[0], self.TAGS)
        params["decoder_out"]["W"] *= 3.0  # Elman carry is W-independent
        assert argmax_tags(forward_batch(spec, params, [xs])[0], self.TAGS) == before


# --- windowed-loss gradients, including the input (embedding) path ---

GRID_SPECS = [
    ModelSpec(BASIC, n_in=4, hidden=3, n_tags=2, decoder_cell=ELMAN),
    ModelSpec(CONTEXTUAL, n_in=4, hidden=3, n_tags=2,
              decoder_cell=JORDAN, encoder_cell=ELMAN),
    ModelSpec(CONTEXTUAL, n_in=4, hidden=3, n_tags=2,
              decoder_cell=JORDAN_GRU, encoder_cell=ELMAN_GRU),
    ModelSpec(BIDIRECTIONAL, n_in=4, hidden=3, n_tags=2,
              decoder_cell=ELMAN_GRU, encoder_cell=JORDAN),
    ModelSpec(BIDIRECTIONAL, n_in=4, hidden=3, n_tags=2,
              decoder_cell=JORDAN, encoder_cell=JORDAN_GRU),
    ModelSpec(MESNIL, n_in=4, hidden=3, n_tags=2, encoder_cell=ELMAN_GRU),
    ModelSpec(MESNIL, n_in=4, hidden=3, n_tags=2, encoder_cell=JORDAN),
]


def grid_id(spec):
    return "%s-%s-%s" % (spec.arch, spec.encoder_cell, spec.decoder_cell)


def fd_mismatches(spec, params, xs, examples, v_d, weights=True, inputs=True):
    """Every parameter (weights) and input (inputs) entry whose analytic
    gradient of window_nll disagrees with its central difference;
    differences below 1e-9 are truncation noise and count as agreement."""
    acc = {b: {} for b in params}
    _, dxs = window_nll(spec, params, xs, examples, v_d, acc)
    entries = []
    if weights:
        entries += [("%s.%s" % (b, name), params[b][name].reshape(-1), acc[b][name].reshape(-1))
                    for b in sorted(params) for name in sorted(params[b])]
    if inputs:
        entries.append(("x", xs.reshape(-1), dxs.reshape(-1)))
    eps = 1e-5
    bad = []
    for label, flat, grad in entries:
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            up, _ = window_nll(spec, params, xs, examples, v_d)
            flat[k] = keep - eps
            down, _ = window_nll(spec, params, xs, examples, v_d)
            flat[k] = keep
            numeric = (up - down) / (2 * eps)
            if not abs(grad[k] - numeric) <= 1e-9 + 1e-4 * max(abs(grad[k]), abs(numeric)):
                bad.append("%s[%d]: %g vs %g" % (label, k, grad[k], numeric))
    return bad


@pytest.mark.parametrize("spec", GRID_SPECS, ids=grid_id)
def test_input_gradients_match_finite_differences(spec):
    rng = SeededRng(99)
    params = init_model(spec, rng)
    xs = rand_xs(rng, 4, spec.n_in)
    examples = [(i, int(rng.randint(spec.n_tags))) for i in range(4)]
    assert fd_mismatches(spec, params, xs, examples, 2, weights=False) == []


@pytest.mark.parametrize("spec", GRID_SPECS, ids=grid_id)
def test_param_gradients_match_finite_differences(spec):
    rng = SeededRng(123)
    params = init_model(spec, rng)
    xs = rand_xs(rng, 4, spec.n_in)
    examples = [(i, int(rng.randint(spec.n_tags))) for i in range(4)]
    assert fd_mismatches(spec, params, xs, examples, 2, inputs=False) == []


# --- one example's encoders step only the cone of its window ---

CONE_N = 7
CONE_VD = 2


def whole_sentence_nll(spec, params, xs, i, y, v_d, acc):
    """window_nll of the one example (i, y) the long way: every encoder
    over the whole sentence, then decode_window, backward_window and
    backward_encode."""
    enc = encode(spec, params, xs)
    dec = decode_window(spec, params, enc, max(0, i - v_d), i)
    dlogits = np.zeros_like(dec.dists)
    dlogits[-1] = dec.dists[-1]
    dlogits[-1, y] -= 1.0
    d, dextra = backward_window(spec, params, enc, dec, dlogits, acc)
    d_inputs = np.zeros_like(enc.dec_inputs)
    d_inputs[dec.lo : dec.hi + 1] += d
    return nll_loss(dec.dists[-1], y), backward_encode(spec, params, enc, d_inputs, dextra, acc)


@pytest.mark.parametrize("spec", GRID_SPECS, ids=grid_id)
def test_one_example_cone_is_bitwise_the_whole_sentence_path(spec, monkeypatch):
    rng = SeededRng(77)
    params = init_model(spec, rng)
    xs = rand_xs(rng, CONE_N, spec.n_in)
    encoded = []

    def recording_encode(*args):
        encoded.append(encode(*args))
        return encoded[-1]

    monkeypatch.setattr(training, "encode", recording_encode)
    for i in range(CONE_N):
        y = int(rng.randint(spec.n_tags))
        acc, want_acc = {b: {} for b in params}, {b: {} for b in params}
        loss, dxs = window_nll(spec, params, xs, [(i, y)], CONE_VD, acc)
        want_loss, want_dxs = whole_sentence_nll(spec, params, xs, i, y, CONE_VD, want_acc)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert dxs.tobytes() == want_dxs.tobytes()
        for b in acc:
            for name in acc[b]:
                assert acc[b][name].tobytes() == want_acc[b][name].tobytes(), (i, b, name)
        enc = encoded[-1]
        if spec.arch in (BIDIRECTIONAL, MESNIL):
            # l stepped 0..i, r from the window's start on, nothing more
            lo = max(0, i - CONE_VD)
            assert enc.enc_fwd.steps == i + 1
            assert enc.enc_bwd.steps == CONE_N - lo
            assert not enc.l[i + 1:].any() and not enc.r[:lo].any()
        elif spec.arch == CONTEXTUAL:
            assert enc.enc_fwd.steps == CONE_N


@pytest.mark.parametrize("spec", [s for s in GRID_SPECS if s.arch in (BIDIRECTIONAL, MESNIL)],
                         ids=grid_id)
@pytest.mark.parametrize("i", [0, CONE_N // 2, CONE_N - 1])
def test_one_example_cone_gradients_match_finite_differences(spec, i):
    rng = SeededRng(55 + i)
    params = init_model(spec, rng)
    xs = rand_xs(rng, CONE_N, spec.n_in)
    examples = [(i, int(rng.randint(spec.n_tags)))]
    assert fd_mismatches(spec, params, xs, examples, CONE_VD) == []


# --- a window_nll call sums its windows' gradients, then runs each encoder once ---

ENCODER_BPTTS = {BASIC: 0, CONTEXTUAL: 1, BIDIRECTIONAL: 2, MESNIL: 2}


@pytest.mark.parametrize("spec", GRID_SPECS, ids=grid_id)
def test_window_nll_runs_each_encoder_bptt_once(spec, monkeypatch):
    rng = SeededRng(13)
    params = init_model(spec, rng)
    xs = rand_xs(rng, CONE_N, spec.n_in)
    examples = [(i, int(rng.randint(spec.n_tags))) for i in (0, 2, 3, 6)]
    encoders = {id(params[b]) for b in ("encoder_fwd", "encoder_bwd") if b in params}
    calls = []
    chain_backward = architectures.chain_backward

    def counting(cell, block, *args, **kwargs):
        calls.append(id(block) in encoders)
        return chain_backward(cell, block, *args, **kwargs)

    monkeypatch.setattr(architectures, "chain_backward", counting)
    window_nll(spec, params, xs, examples, CONE_VD, {b: {} for b in params})
    assert calls.count(True) == ENCODER_BPTTS[spec.arch]
    assert calls.count(False) == (0 if spec.arch == MESNIL else len(examples))


@pytest.mark.parametrize("spec", GRID_SPECS, ids=grid_id)
def test_window_nll_gradients_are_the_sum_of_single_example_ones(spec):
    """One encoder BPTT over the summed windows only reorders sums: every
    gradient block and dxs stay within 1e-12 relative of the sum of the
    examples' own gradients, and the loss keeps its bits."""
    rng = SeededRng(17)
    params = init_model(spec, rng)
    xs = rand_xs(rng, CONE_N, spec.n_in)
    examples = [(i, int(rng.randint(spec.n_tags))) for i in range(CONE_N)]
    acc = {b: {} for b in params}
    loss, dxs = window_nll(spec, params, xs, examples, CONE_VD, acc)
    want_loss, want_dxs = 0.0, np.zeros_like(dxs)
    want_acc = {b: {} for b in params}
    for example in examples:
        one = {b: {} for b in params}
        one_loss, one_dxs = window_nll(spec, params, xs, [example], CONE_VD, one)
        want_loss += one_loss
        want_dxs += one_dxs
        for b, block in one.items():
            for name, g in block.items():
                want_acc[b][name] = want_acc[b].get(name, 0.0) + g
    assert loss == want_loss
    assert np.abs(dxs - want_dxs).max() <= 1e-12 * np.abs(want_dxs).max()
    assert {b: sorted(block) for b, block in acc.items()} == {
        b: sorted(block) for b, block in want_acc.items()}
    for b, block in acc.items():
        for name, g in block.items():
            w = want_acc[b][name]
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), (b, name)


# --- an SGD step writes each gradient block once, at full height ---

def reference_step(model, inputs, i, y, cfg):
    """train_example with every gradient block zero-filled and added to
    at full height: the encoders run over the whole sentence, so each
    product spans every row, then the same clip and SGD apply.  Returns
    (loss, clip scale)."""
    indices, features = inputs
    xs = window_inputs(model.table, indices, features, model.v_c)
    acc = {b: {n: np.zeros_like(p) for n, p in block.items()}
           for b, block in model.params.items()}
    loss, dxs = whole_sentence_nll(model.spec, model.params, xs, i, y, cfg.v_d, acc)
    rows, emb = training._embedding_grads(indices, dxs, model.v_c, model.table.dim)
    sq = 0.0
    for block in acc.values():
        for g in block.values():
            sq += float(np.vdot(g, g))
    norm = math.sqrt(sq + float(np.vdot(emb, emb)))
    cap = cfg.clip_threshold
    scale = cap / norm if cap is not None and norm > cap else 1.0
    for b, block in acc.items():
        for name, g in block.items():
            model.params[b][name] -= (cfg.learning_rate * scale) * g
    model.table.add_grad(rows, scale * emb, cfg.learning_rate)
    return loss, scale


# (words, embedding dim, v_c, features, hidden) of the step models: a
# small one with capitalization columns (zero in most rows) and the width
# of the conll profile without feature columns, I = 550 and H = 100.  A
# sum over the stepped rows only rounds differently from the full-height
# one at the wide shape, and not at the small one.
STEP_SHAPES = {
    "small": (["Anna", "met", "bob", "at", "Acme", "corp", "today"], 3, 1,
              FeatureConfig(capitalization=True), 3),
    "wide": (["w" + "abcdefghijklmnopqrstuvwxyz"[k % 26] * (1 + k // 26) for k in range(30)],
             50, 5, FeatureConfig(), 100),
}


def step_model(spec, shape):
    """A model of the grid spec's architecture and cells at one of the
    STEP_SHAPES, with zero-padded windows in its inputs; returns (model,
    sentence)."""
    words, dim, v_c, fconf, hidden = STEP_SHAPES[shape]
    sentence = Sentence([Token(w) for w in words])
    tagset = make_tagset(["ORG", "PER"], BIO2)
    rng = SeededRng(31)
    table = EmbeddingTable.random(build_vocab([sentence]), dim, rng)
    spec = dataclasses.replace(spec, n_in=fconf.input_width(dim, v_c), hidden=hidden,
                               n_tags=len(tagset))
    model = Model(spec=spec, params=init_model(spec, rng), table=table, fconf=fconf,
                  tagset=tagset, scheme=BIO2, v_c=v_c)
    return model, sentence


@pytest.mark.parametrize("clip", [None, 1e-3], ids=["unclipped", "clip-binding"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("shape", sorted(STEP_SHAPES))
@pytest.mark.parametrize("spec", GRID_SPECS, ids=grid_id)
def test_sgd_step_is_bitwise_the_zero_filled_full_height_step(spec, shape, where, clip):
    model, sentence = step_model(spec, shape)
    n = len(sentence.tokens)
    i = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    reference = copy.deepcopy(model)
    inputs = token_features(sentence, model.table.vocab, model.fconf)
    y = i % len(model.tagset)
    cfg = TrainConfig(learning_rate=0.5, v_d=CONE_VD, clip_threshold=clip)
    loss = train_example(model, inputs, i, y, cfg)
    want_loss, scale = reference_step(reference, inputs, i, y, cfg)
    assert (scale < 1.0) == (clip is not None)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    for b, block in reference.params.items():
        for name, want in block.items():
            assert model.params[b][name].tobytes() == want.tobytes(), (b, name)
    assert model.table.matrix.tobytes() == reference.table.matrix.tobytes()


def test_empty_sentence_rejected():
    spec = ModelSpec(BASIC, n_in=2, hidden=2, n_tags=2, decoder_cell=ELMAN)
    params = init_model(spec, SeededRng(1))
    with pytest.raises(ValueError, match="empty"):
        encode(spec, params, [])


def test_decode_window_bounds_checked():
    spec = ModelSpec(BASIC, n_in=2, hidden=2, n_tags=2, decoder_cell=ELMAN)
    params = init_model(spec, SeededRng(1))
    enc = encode(spec, params, rand_xs(SeededRng(2), 3, 2))
    with pytest.raises(ValueError, match="window"):
        decode_window(spec, params, enc, 1, 3)
