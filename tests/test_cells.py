import numpy as np
import pytest

from rnntagger.cells import (
    CELLS,
    ELMAN,
    ELMAN_GRU,
    JORDAN,
    JORDAN_GRU,
    CellConfig,
    ElmanCell,
    ElmanGruCell,
    JordanCell,
    JordanGruCell,
    SoftmaxOutput,
    cell_for,
    init_params,
    zero_grads,
)
from rnntagger.linalg import SeededRng

CFG = CellConfig()

# frozen scalar oracles (mpmath, 40 digits)
PHI_1_5 = 0.8175744761936437
PHI_0_4 = 0.598687660112452


def P(**kw):
    return {k: np.array(v, dtype=np.float64) for k, v in kw.items()}


class TestElmanStep:
    def test_zero_params_give_half(self):
        p = P(U=np.zeros((3, 2)), V=np.zeros((3, 3)))
        h, _ = ElmanCell.step(p, np.array([1.0, -2.0]), np.zeros(3), CFG)
        assert np.array_equal(h, [0.5, 0.5, 0.5])

    def test_zero_input_ignores_carry(self):
        p = P(U=np.ones((2, 2)), V=np.zeros((2, 2)))
        h1, _ = ElmanCell.step(p, np.zeros(2), np.array([0.9, 0.1]), CFG)
        h2, _ = ElmanCell.step(p, np.zeros(2), np.array([-5.0, 5.0]), CFG)
        assert np.array_equal(h1, [0.5, 0.5])
        assert np.array_equal(h1, h2)

    def test_scalar_oracle(self):
        p = P(U=[[1.0]], V=[[1.0]])
        h, _ = ElmanCell.step(p, np.array([1.0]), np.array([0.5]), CFG)
        assert h[0] == pytest.approx(PHI_1_5, abs=1e-12)

    def test_dimension_mismatch(self):
        p = P(U=np.zeros((2, 3)), V=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ElmanCell.step(p, np.zeros(5), np.zeros(2), CFG)


class TestJordanStep:
    def test_zero_carry_zero_input_weights(self):
        p = P(U=np.zeros((2, 2)), V=np.ones((2, 3)))
        h, _ = JordanCell.step(p, np.array([3.0, 4.0]), np.zeros(3), CFG)
        assert np.array_equal(h, [0.5, 0.5])

    def test_zero_v_is_feedforward(self):
        p = P(U=np.array([[1.0, -1.0]]), V=np.zeros((1, 2)))
        x = np.array([0.3, 0.1])
        h1, _ = JordanCell.step(p, x, np.array([1.0, 0.0]), CFG)
        h2, _ = JordanCell.step(p, x, np.array([0.0, 1.0]), CFG)
        assert np.array_equal(h1, h2)

    def test_scalar_oracle(self):
        p = P(U=[[2.0]], V=[[1.0, -1.0]])
        h, _ = JordanCell.step(p, np.array([0.0]), np.array([0.7, 0.3]), CFG)
        assert h[0] == pytest.approx(PHI_0_4, abs=1e-12)


class TestElmanGruStep:
    def _params(self, H, I, fill=0.0):
        z = lambda shape: np.full(shape, fill)
        return {
            "W_h": z((H, I)), "W_z": z((H, I)), "W_r": z((H, I)),
            "U_h": z((H, H)), "U_z": z((H, H)), "U_r": z((H, H)),
        }

    def test_forced_update_gate_one(self):
        p = self._params(2, 1)
        p["W_z"] = np.full((2, 1), 1000.0)  # saturates z to exactly 1
        carry = np.array([0.9, 0.2])
        h, tape = ElmanGruCell.step(p, np.array([1.0]), carry, CFG)
        assert np.array_equal(h, tape.c)

    def test_forced_update_gate_zero(self):
        p = self._params(2, 1)
        p["W_z"] = np.full((2, 1), -1000.0)
        carry = np.array([0.9, 0.2])
        h, _ = ElmanGruCell.step(p, np.array([1.0]), carry, CFG)
        assert np.array_equal(h, carry)

    def test_all_zero_params_algebra(self):
        # z = r = cand = 0.5, so h = 0.25 + 0.5 * carry
        p = self._params(3, 2)
        carry = np.array([0.0, 0.5, 1.0])
        h, _ = ElmanGruCell.step(p, np.array([7.0, -7.0]), carry, CFG)
        assert np.allclose(h, 0.25 + 0.5 * carry, atol=1e-15)

    def test_convexity(self):
        rng = SeededRng(123)
        cfg = CFG
        for seed in range(30):
            p = init_params(ElmanGruCell.param_shapes(3, 4, 2, cfg), SeededRng(seed))
            x = rng.uniform(3, -2, 2)
            carry = rng.uniform(4, 0, 1)
            h, tape = ElmanGruCell.step(p, x, carry, cfg)
            lo = np.minimum(tape.c, carry) - 1e-12
            hi = np.maximum(tape.c, carry) + 1e-12
            assert np.all(h >= lo) and np.all(h <= hi)


class TestJordanGruStep:
    def _params(self, H, I, O):
        return {
            "W_o": np.zeros((H, I)), "W_z": np.zeros((H, I)), "W_r": np.zeros((H, I)),
            "U_o": np.zeros((H, H)), "U_z": np.zeros((H, H)), "U_r": np.zeros((H, H)),
            "T": np.zeros((H, O)),
        }

    def test_zero_carry_kills_skip_branch(self):
        p = self._params(2, 1, 3)
        p["W_o"][:] = 0.7
        h, tape = JordanGruCell.step(p, np.array([1.0]), np.zeros(3), CFG)
        assert np.allclose(h, tape.z * tape.c, atol=1e-15)

    def test_zero_t_matrix_same_as_zero_carry(self):
        p = self._params(2, 1, 3)
        p["W_o"][:] = 0.7
        h0, _ = JordanGruCell.step(p, np.array([1.0]), np.zeros(3), CFG)
        h1, _ = JordanGruCell.step(p, np.array([1.0]), np.array([0.2, 0.5, 0.3]), CFG)
        assert np.array_equal(h0, h1)

    def test_forced_z_zero_passes_transformed_carry(self):
        p = self._params(2, 1, 2)
        p["W_z"] = np.full((2, 1), -1000.0)
        p["T"] = np.array([[3.0, 0.0], [0.0, -2.0]])  # h can leave (0,1)
        o_prev = np.array([0.6, 0.4])
        h, _ = JordanGruCell.step(p, np.array([1.0]), o_prev, CFG)
        assert np.array_equal(h, p["T"] @ o_prev)


class TestSoftmaxOutput:
    def test_zero_weights_uniform(self):
        p = P(W=np.zeros((4, 3)))
        o, _ = SoftmaxOutput.step(p, np.array([1.0, -2.0, 0.3]), CFG)
        assert np.allclose(o, 0.25, atol=1e-15)

    def test_equal_rows_uniform(self):
        p = P(W=[[1.0, 2.0], [1.0, 2.0]])
        o, _ = SoftmaxOutput.step(p, np.array([0.4, 0.6]), CFG)
        assert np.allclose(o, 0.5, atol=1e-15)

    def test_exponential_identity(self):
        p = P(W=[[1.0, 0.0], [0.0, 1.0]])
        o, _ = SoftmaxOutput.step(p, np.array([np.log(2.0), 0.0]), CFG)
        assert np.allclose(o, [2 / 3, 1 / 3], atol=1e-15)

    def test_probability_simplex(self):
        rng = SeededRng(8)
        for _ in range(20):
            p = {"W": rng.uniform(12, -3, 3).reshape(4, 3)}
            o, _ = SoftmaxOutput.step(p, rng.uniform(3, -2, 2), CFG)
            assert abs(o.sum() - 1.0) < 1e-12
            assert np.all(o > 0)

    def test_nll_logit_gradient_identity(self):
        # d(nll)/d(logits) = o - onehot(y): check the generic softmax
        # backward against the collapsed form
        rng = SeededRng(21)
        p = {"W": rng.uniform(6, -1, 1).reshape(3, 2)}
        h = rng.uniform(2, -1, 1)
        o, tape = SoftmaxOutput.step(p, h, CFG)
        y = 1
        do = np.zeros(3)
        do[y] = -1.0 / o[y]
        acc1, acc2 = zero_grads(p), zero_grads(p)
        dh1 = SoftmaxOutput.backward(p, tape, do, CFG, acc1)
        dlogits = o.copy()
        dlogits[y] -= 1.0
        dh2 = SoftmaxOutput.backward_from_logits(p, tape, dlogits, CFG, acc2)
        assert np.allclose(dh1, dh2, atol=1e-12)
        assert np.allclose(acc1["W"], acc2["W"], atol=1e-12)


# --- finite-difference verification of every backward op ---

EPS = 1e-5
TOL = 1e-4


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def fd_check_cell(kind, seed, cfg):
    cell = cell_for(kind)
    n_in, hidden, n_out = 3, 4, 2
    rng = SeededRng(seed)
    params = init_params(cell.param_shapes(n_in, hidden, n_out, cfg), rng)
    for name in params:
        if params[name].ndim == 1:  # randomize biases too
            params[name] = rng.uniform(params[name].size, -0.5, 0.5)
    x = rng.uniform(n_in, -1, 1)
    carry = rng.uniform(cell.carry_dim(hidden, n_out), 0.05, 0.95)
    g = rng.uniform(hidden, -1, 1)

    def loss():
        h, _ = cell.step(params, x, carry, cfg)
        return float(np.dot(g, h))

    h, tape = cell.step(params, x, carry, cfg)
    acc = zero_grads(params)
    dx, dcarry, _ = cell.backward(params, tape, g, cfg, acc)

    blocks = [("x", x, dx), ("carry", carry, dcarry)]
    blocks += [(name, params[name], acc[name]) for name in sorted(params)]
    for name, arr, grad in blocks:
        flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + EPS
            up = loss()
            flat[k] = keep - EPS
            down = loss()
            flat[k] = keep
            numeric = (up - down) / (2 * EPS)
            assert rel_err(gflat[k], numeric) < TOL, (
                "%s %s[%d]: analytic %g vs numeric %g" % (kind, name, k, gflat[k], numeric)
            )


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_backward_matches_finite_differences_100_seeds(kind):
    for seed in range(100):
        fd_check_cell(kind, seed, CFG)


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_backward_with_bias_and_tanh(kind):
    for seed in range(5):
        fd_check_cell(kind, seed, CellConfig(bias=True, candidate="tanh"))


def test_softmax_backward_finite_differences():
    for seed in range(100):
        rng = SeededRng(seed)
        p = {"W": rng.uniform(12, -1, 1).reshape(4, 3)}
        h = rng.uniform(3, -1, 1)
        g = rng.uniform(4, -1, 1)

        def loss():
            o, _ = SoftmaxOutput.step(p, h, CFG)
            return float(np.dot(g, o))

        o, tape = SoftmaxOutput.step(p, h, CFG)
        acc = zero_grads(p)
        dh = SoftmaxOutput.backward(p, tape, g, CFG, acc)
        blocks = [("h", h, dh), ("W", p["W"], acc["W"])]
        for name, arr, grad in blocks:
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + EPS
                up = loss()
                flat[k] = keep - EPS
                down = loss()
                flat[k] = keep
                numeric = (up - down) / (2 * EPS)
                assert rel_err(gflat[k], numeric) < TOL


def test_zero_upstream_gradient_zero_grads():
    for kind in sorted(CELLS):
        cell = cell_for(kind)
        rng = SeededRng(3)
        params = init_params(cell.param_shapes(3, 4, 2, CFG), rng)
        x = rng.uniform(3, -1, 1)
        carry = rng.uniform(cell.carry_dim(4, 2), 0, 1)
        _, tape = cell.step(params, x, carry, CFG)
        acc = zero_grads(params)
        dx, dcarry, _ = cell.backward(params, tape, np.zeros(4), CFG, acc)
        assert np.all(dx == 0) and np.all(dcarry == 0)
        assert all(np.all(v == 0) for v in acc.values())


def test_tape_mismatch_rejected():
    rng = SeededRng(1)
    ep = init_params(ElmanCell.param_shapes(2, 3, 2, CFG), rng)
    _, tape = ElmanCell.step(ep, np.zeros(2), np.zeros(3), CFG)
    jp = init_params(JordanCell.param_shapes(2, 3, 3, CFG), rng)
    with pytest.raises(ValueError, match="tape"):
        JordanCell.backward(jp, tape, np.zeros(3), CFG, zero_grads(jp))


def test_hidden_states_stay_in_unit_interval():
    rng = SeededRng(55)
    for kind in (ELMAN, JORDAN):
        cell = cell_for(kind)
        for seed in range(20):
            params = init_params(cell.param_shapes(3, 4, 2, CFG), SeededRng(seed))
            x = rng.uniform(3, -10, 10)
            carry = rng.uniform(cell.carry_dim(4, 2), 0, 1)
            h, _ = cell.step(params, x, carry, CFG)
            assert np.all(h > 0) and np.all(h < 1)


def test_determinism_bitwise():
    for kind in sorted(CELLS):
        cell = cell_for(kind)
        params = init_params(cell.param_shapes(3, 4, 2, CFG), SeededRng(9))
        x = SeededRng(10).uniform(3, -1, 1)
        carry = SeededRng(11).uniform(cell.carry_dim(4, 2), 0, 1)
        h1, _ = cell.step(params, x, carry, CFG)
        h2, _ = cell.step(params, x, carry, CFG)
        assert np.array_equal(h1, h2)


def test_unknown_cell_kind():
    with pytest.raises(ValueError, match="unknown cell"):
        cell_for("LSTM")


def test_tanh_candidate_changes_output():
    p = init_params(ElmanGruCell.param_shapes(2, 3, 2, CFG), SeededRng(4))
    x = np.array([0.5, -0.5])
    carry = np.array([0.2, 0.8, 0.5])
    h_sig, _ = ElmanGruCell.step(p, x, carry, CellConfig(candidate="sigmoid"))
    h_tanh, _ = ElmanGruCell.step(p, x, carry, CellConfig(candidate="tanh"))
    assert not np.array_equal(h_sig, h_tanh)


def test_bias_shapes_present_when_enabled():
    cfg = CellConfig(bias=True)
    assert "b" in ElmanCell.param_shapes(2, 3, 2, cfg)
    assert "b_h" in ElmanGruCell.param_shapes(2, 3, 2, cfg)
    assert "b_o" in JordanGruCell.param_shapes(2, 3, 2, cfg)
    assert "b" in SoftmaxOutput.param_shapes(3, 2, cfg)


def test_invalid_candidate_rejected():
    with pytest.raises(ValueError):
        CellConfig(candidate="relu")


def test_extra_term_gradient_finite_differences():
    # the additive context hook: injected into the pre-activation
    # (Elman/Jordan) or the candidate pre-activation (GRUs)
    for kind in sorted(CELLS):
        cell = cell_for(kind)
        for seed in range(10):
            rng = SeededRng(seed + 1000)
            params = init_params(cell.param_shapes(3, 4, 2, CFG), rng)
            x = rng.uniform(3, -1, 1)
            carry = rng.uniform(cell.carry_dim(4, 2), 0.05, 0.95)
            extra = rng.uniform(4, -1, 1)
            g = rng.uniform(4, -1, 1)

            def loss():
                h, _ = cell.step(params, x, carry, CFG, extra)
                return float(np.dot(g, h))

            _, tape = cell.step(params, x, carry, CFG, extra)
            acc = zero_grads(params)
            _, _, dextra = cell.backward(params, tape, g, CFG, acc)
            assert dextra is not None
            for k in range(4):
                keep = extra[k]
                extra[k] = keep + EPS
                up = loss()
                extra[k] = keep - EPS
                down = loss()
                extra[k] = keep
                numeric = (up - down) / (2 * EPS)
                assert rel_err(dextra[k], numeric) < TOL


def test_no_extra_returns_none():
    p = init_params(ElmanCell.param_shapes(2, 3, 2, CFG), SeededRng(1))
    _, tape = ElmanCell.step(p, np.zeros(2), np.zeros(3), CFG)
    _, _, dextra = ElmanCell.backward(p, tape, np.ones(3), CFG, zero_grads(p))
    assert dextra is None
