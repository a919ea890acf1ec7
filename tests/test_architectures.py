import math

import numpy as np
import pytest

from rnntagger.architectures import (
    BASIC,
    BIDIRECTIONAL,
    CONTEXTUAL,
    MESNIL,
    ModelSpec,
    backward_window,
    bundle_shapes,
    decode_window,
    encode,
    full_forward,
    init_model,
    predict_tags,
    run_chain,
    zero_model_grads,
)
from rnntagger.cells import (
    ELMAN,
    ELMAN_GRU,
    JORDAN,
    JORDAN_GRU,
    CellConfig,
    cell_for,
)
from rnntagger.linalg import SeededRng

CFG = CellConfig()


def rand_xs(rng, n, dim):
    return rng.uniform(n * dim, -1, 1).reshape(n, dim)


def first_state(cell, p, x, hidden):
    """h at position 0 from the zero carry, by the cell's own step."""
    return cell.step(p, cell.project(p, x[None], CFG, None)[0], np.zeros(hidden), CFG)[-1]


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
        p = init_params(cell.param_shapes(4, 3, 2, CFG), rng)
        x = rng.uniform(4, -1, 1)
        states = run_chain(cell, p, None, x[None], CFG, 3, 2).states
        assert np.array_equal(states[0], first_state(cell, p, x, 3))

    def test_severed_recurrence_is_feedforward(self):
        p = {"U": np.array([[1.0, -1.0]]), "V": np.zeros((1, 1))}
        xs = [np.array([0.3, 0.1]), np.array([-0.5, 0.2]), np.array([0.9, 0.9])]
        states = run_chain(cell_for(ELMAN), p, None, xs, CFG, 1, 1).states
        flipped = run_chain(cell_for(ELMAN), p, None, list(reversed(xs)), CFG, 1, 1).states
        assert np.allclose(states, list(reversed(flipped)), atol=0)

    def test_three_step_scalar_chain_oracle(self):
        phi = lambda t: 1.0 / (1.0 + math.exp(-t))
        p = {"U": np.array([[1.0]]), "V": np.array([[2.0]])}
        xs = [np.array([0.5]), np.array([-0.25]), np.array([1.0])]
        h1 = phi(0.5)
        h2 = phi(-0.25 + 2 * h1)
        h3 = phi(1.0 + 2 * h2)
        states = run_chain(cell_for(ELMAN), p, None, xs, CFG, 1, 1).states
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
                        list(reversed(xs)), CFG, 2, 2)
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
            ours = full_forward(spec, params, xs)
            base = full_forward(basic_spec, basic_params, xs)
            for o, b in zip(ours, base):
                assert np.allclose(o, b, atol=1e-12)

    def test_single_token_sentence(self):
        spec = self._spec()
        params = init_model(spec, SeededRng(13))
        xs = rand_xs(SeededRng(14), 1, 4)
        dists = full_forward(spec, params, xs)
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
                           xs, CFG, 3, 2, extra=shift)
        dists = full_forward(spec, params, xs)
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
                dists = full_forward(spec, params, xs)
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
        assert predict_tags(spec, params, xs, self.TAGS) == ["O", "O", "O"]

    def test_peaked_distribution_wins(self):
        spec = ModelSpec(BASIC, n_in=2, hidden=2, n_tags=3, decoder_cell=ELMAN)
        params = init_model(spec, SeededRng(33))
        params["decoder_out"]["W"][:] = 0.0
        params["decoder_out"]["W"][2, :] = 50.0  # hidden states are positive
        xs = rand_xs(SeededRng(34), 2, 2)
        assert predict_tags(spec, params, xs, self.TAGS) == ["I-X", "I-X"]

    def test_determinism(self):
        spec = ModelSpec(BIDIRECTIONAL, n_in=3, hidden=2, n_tags=3,
                         decoder_cell=JORDAN_GRU, encoder_cell=ELMAN_GRU)
        params = init_model(spec, SeededRng(35))
        xs = rand_xs(SeededRng(36), 5, 3)
        assert predict_tags(spec, params, xs, self.TAGS) == predict_tags(
            spec, params, xs, self.TAGS)

    def test_temperature_invariance_without_ties(self):
        spec = ModelSpec(BASIC, n_in=3, hidden=4, n_tags=3, decoder_cell=ELMAN)
        params = init_model(spec, SeededRng(37))
        xs = rand_xs(SeededRng(38), 4, 3)
        before = predict_tags(spec, params, xs, self.TAGS)
        params["decoder_out"]["W"] *= 3.0  # Elman carry is W-independent
        assert predict_tags(spec, params, xs, self.TAGS) == before


# --- windowed-loss gradients, including the input (embedding) path ---

def total_windowed_nll(spec, params, xs, golds, v_d):
    enc = encode(spec, params, xs)
    total = 0.0
    for i in range(len(xs)):
        dec = decode_window(spec, params, enc, max(0, i - v_d), i)
        total += -math.log(max(dec.dists[-1][golds[i]], 1e-12))
    return total


def analytic_grads(spec, params, xs, golds, v_d):
    acc = zero_model_grads(params)
    dxs_total = np.zeros_like(xs)
    enc = encode(spec, params, xs)
    for i in range(len(xs)):
        lo = max(0, i - v_d)
        dec = decode_window(spec, params, enc, lo, i)
        dlogits = np.zeros_like(dec.dists)
        dlogits[-1] = dec.dists[-1]
        dlogits[-1, golds[i]] -= 1.0
        dxs_total += backward_window(spec, params, enc, dec, dlogits, acc)
    return acc, dxs_total


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


@pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda s: "%s-%s-%s" % (
    s.arch, s.encoder_cell, s.decoder_cell))
def test_input_gradients_match_finite_differences(spec):
    rng = SeededRng(99)
    params = init_model(spec, rng)
    xs = rand_xs(rng, 4, spec.n_in)
    golds = [int(rng.randint(spec.n_tags)) for _ in range(4)]
    v_d = 2
    _, dxs = analytic_grads(spec, params, xs, golds, v_d)
    eps = 1e-5
    for j in range(len(xs)):
        for k in range(spec.n_in):
            keep = xs[j][k]
            xs[j][k] = keep + eps
            up = total_windowed_nll(spec, params, xs, golds, v_d)
            xs[j][k] = keep - eps
            down = total_windowed_nll(spec, params, xs, golds, v_d)
            xs[j][k] = keep
            numeric = (up - down) / (2 * eps)
            analytic = dxs[j][k]
            # atol guard: diffs below 1e-9 are FD truncation noise
            assert abs(analytic - numeric) <= 1e-9 + 1e-4 * max(
                abs(analytic), abs(numeric)), "x[%d][%d]: %g vs %g" % (
                j, k, analytic, numeric)


@pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda s: "%s-%s-%s" % (
    s.arch, s.encoder_cell, s.decoder_cell))
def test_param_gradients_match_finite_differences(spec):
    rng = SeededRng(123)
    params = init_model(spec, rng)
    xs = rand_xs(rng, 4, spec.n_in)
    golds = [int(rng.randint(spec.n_tags)) for _ in range(4)]
    v_d = 2
    acc, _ = analytic_grads(spec, params, xs, golds, v_d)
    eps = 1e-5
    for bundle in sorted(params):
        for name in sorted(params[bundle]):
            arr = params[bundle][name]
            flat = arr.reshape(-1)
            gflat = acc[bundle][name].reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                up = total_windowed_nll(spec, params, xs, golds, v_d)
                flat[k] = keep - eps
                down = total_windowed_nll(spec, params, xs, golds, v_d)
                flat[k] = keep
                numeric = (up - down) / (2 * eps)
                assert abs(gflat[k] - numeric) <= 1e-9 + 1e-4 * max(
                    abs(gflat[k]), abs(numeric)), "%s.%s[%d]: %g vs %g" % (
                    bundle, name, k, gflat[k], numeric)


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
