import numpy as np
import pytest

from rnntagger.architectures import chain_backward, run_chain
from rnntagger.cells import (
    CELLS,
    ELMAN,
    ELMAN_GRU,
    JORDAN,
    JORDAN_GRU,
    ElmanCell,
    ElmanGruCell,
    JordanCell,
    JordanGruCell,
    SoftmaxOutput,
    cell_for,
    init_params,
)
from rnntagger.linalg import SeededRng

# frozen scalar oracles (mpmath, 40 digits)
PHI_1_5 = 0.8175744761936437
PHI_0_4 = 0.598687660112452


def P(**kw):
    return {k: np.array(v, dtype=np.float64) for k, v in kw.items()}


def step(cell, p, x, carry, extra=None):
    """One position from a given carry: the cell's intermediates, h last."""
    return cell.step(p, cell.project(p, x[None], extra)[0], carry)


def elman_states(p, xs):
    return run_chain(ElmanCell, p, None, [np.array(xs)])[0].states


class TestElmanStep:
    def test_zero_params_give_half(self):
        p = P(U=np.zeros((3, 2)), V=np.zeros((3, 3)))
        states = elman_states(p, [[1.0, -2.0]])
        assert np.array_equal(states, [[0.5, 0.5, 0.5]])

    def test_zero_input_ignores_carry(self):
        # the second position reads different carries, the same zero input
        p = P(U=np.ones((2, 2)), V=np.zeros((2, 2)))
        s1 = elman_states(p, [[0.9, 0.1], [0.0, 0.0]])
        s2 = elman_states(p, [[-5.0, 5.0], [0.0, 0.0]])
        assert not np.array_equal(s1[0], s2[0])
        assert np.array_equal(s1[1], [0.5, 0.5])
        assert np.array_equal(s1[1], s2[1])

    def test_scalar_oracle(self):
        # Φ(0) = 0.5 exactly, so the second position reads carry 0.5
        p = P(U=[[1.0]], V=[[1.0]])
        states = elman_states(p, [[0.0], [1.0]])
        assert states[0, 0] == 0.5
        assert states[1, 0] == pytest.approx(PHI_1_5, abs=1e-12)

    def test_dimension_mismatch(self):
        p = P(U=np.zeros((2, 3)), V=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            elman_states(p, np.zeros((2, 5)))


class TestJordanStep:
    def test_zero_carry_zero_input_weights(self):
        p = P(U=np.zeros((2, 2)), V=np.ones((2, 3)))
        (h,) = step(JordanCell, p, np.array([3.0, 4.0]), np.zeros(3))
        assert np.array_equal(h, [0.5, 0.5])

    def test_zero_v_is_feedforward(self):
        p = P(U=np.array([[1.0, -1.0]]), V=np.zeros((1, 2)))
        x = np.array([0.3, 0.1])
        (h1,) = step(JordanCell, p, x, np.array([1.0, 0.0]))
        (h2,) = step(JordanCell, p, x, np.array([0.0, 1.0]))
        assert np.array_equal(h1, h2)

    def test_scalar_oracle(self):
        p = P(U=[[2.0]], V=[[1.0, -1.0]])
        (h,) = step(JordanCell, p, np.array([0.0]), np.array([0.7, 0.3]))
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
        *_, c, h = step(ElmanGruCell, p, np.array([1.0]), carry)
        assert np.array_equal(h, c)

    def test_forced_update_gate_zero(self):
        p = self._params(2, 1)
        p["W_z"] = np.full((2, 1), -1000.0)
        carry = np.array([0.9, 0.2])
        h = step(ElmanGruCell, p, np.array([1.0]), carry)[-1]
        assert np.array_equal(h, carry)

    def test_all_zero_params_algebra(self):
        # z = r = cand = 0.5, so h = 0.25 + 0.5 * carry
        p = self._params(3, 2)
        carry = np.array([0.0, 0.5, 1.0])
        h = step(ElmanGruCell, p, np.array([7.0, -7.0]), carry)[-1]
        assert np.allclose(h, 0.25 + 0.5 * carry, atol=1e-15)

    def test_convexity(self):
        rng = SeededRng(123)
        for seed in range(30):
            p = init_params(ElmanGruCell.param_shapes(3, 4, 2), SeededRng(seed))
            x = rng.uniform(3, -2, 2)
            carry = rng.uniform(4, 0, 1)
            *_, c, h = step(ElmanGruCell, p, x, carry)
            lo = np.minimum(c, carry) - 1e-12
            hi = np.maximum(c, carry) + 1e-12
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
        _, _, z, _, c, h = step(JordanGruCell, p, np.array([1.0]), np.zeros(3))
        assert np.allclose(h, z * c, atol=1e-15)

    def test_zero_t_matrix_same_as_zero_carry(self):
        p = self._params(2, 1, 3)
        p["W_o"][:] = 0.7
        h0 = step(JordanGruCell, p, np.array([1.0]), np.zeros(3))[-1]
        h1 = step(JordanGruCell, p, np.array([1.0]), np.array([0.2, 0.5, 0.3]))[-1]
        assert np.array_equal(h0, h1)

    def test_forced_z_zero_passes_transformed_carry(self):
        p = self._params(2, 1, 2)
        p["W_z"] = np.full((2, 1), -1000.0)
        p["T"] = np.array([[3.0, 0.0], [0.0, -2.0]])  # h can leave (0,1)
        o_prev = np.array([0.6, 0.4])
        h = step(JordanGruCell, p, np.array([1.0]), o_prev)[-1]
        assert np.array_equal(h, p["T"] @ o_prev)


class TestSoftmaxOutput:
    def test_zero_weights_uniform(self):
        p = P(W=np.zeros((4, 3)))
        o = SoftmaxOutput.step(p, np.array([1.0, -2.0, 0.3]))
        assert np.allclose(o, 0.25, atol=1e-15)

    def test_equal_rows_uniform(self):
        p = P(W=[[1.0, 2.0], [1.0, 2.0]])
        o = SoftmaxOutput.step(p, np.array([0.4, 0.6]))
        assert np.allclose(o, 0.5, atol=1e-15)

    def test_exponential_identity(self):
        p = P(W=[[1.0, 0.0], [0.0, 1.0]])
        o = SoftmaxOutput.step(p, np.array([np.log(2.0), 0.0]))
        assert np.allclose(o, [2 / 3, 1 / 3], atol=1e-15)

    def test_probability_simplex(self):
        rng = SeededRng(8)
        for _ in range(20):
            p = {"W": rng.uniform(12, -3, 3).reshape(4, 3)}
            o = SoftmaxOutput.step(p, rng.uniform(3, -2, 2))
            assert abs(o.sum() - 1.0) < 1e-12
            assert np.all(o > 0)

    def test_nll_logit_gradient_identity(self):
        # d(nll)/d(logits) = o - onehot(y): check the generic softmax
        # backward against the collapsed form
        rng = SeededRng(21)
        p = {"W": rng.uniform(6, -1, 1).reshape(3, 2)}
        h = rng.uniform(2, -1, 1)
        o = SoftmaxOutput.step(p, h)
        y = 1
        do = np.zeros(3)
        do[y] = -1.0 / o[y]
        acc1, acc2 = {}, {}
        dh1 = SoftmaxOutput.backward_from_logits(
            p, h[None], SoftmaxOutput.logit_grad(o, do)[None], acc1)
        dlogits = o.copy()
        dlogits[y] -= 1.0
        dh2 = SoftmaxOutput.backward_from_logits(p, h[None], dlogits[None], acc2)
        assert np.allclose(dh1, dh2, atol=1e-12)
        assert np.allclose(acc1["W"], acc2["W"], atol=1e-12)


# --- finite-difference verification of every backward op ---

EPS = 1e-5
TOL = 1e-4
# central differences at EPS on an O(1) loss carry ~1e-11 of rounding
# noise; over a chain some gradients (the Jordan GRU's U_r, which reads
# the small T @ o_prev) are only ~1e-8, so differences below this count
# as agreement
FD_NOISE = 1e-10
N_IN, HIDDEN, N_OUT, M = 3, 4, 2, 3


def rel_err(a, n):
    if abs(a - n) <= FD_NOISE:
        return 0.0
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def chain_model(kind, seed):
    """A cell's parameters, its output layer when it carries o, and a
    random length-M input, all drawn from one seed."""
    cell = cell_for(kind)
    rng = SeededRng(seed)
    params = init_params(cell.param_shapes(N_IN, HIDDEN, N_OUT), rng)
    out = init_params(SoftmaxOutput.param_shapes(HIDDEN, N_OUT), rng) \
        if cell.carries_output else None
    xs = rng.uniform(M * N_IN, -1, 1).reshape(M, N_IN)
    return cell, params, out, xs, rng


def run(cell, params, out, xs, extra=None):
    return run_chain(cell, params, out, [xs], [extra])[0]


def backward(cell, params, out, chain, g):
    """chain_backward for the loss sum(g * states): (dX, dextra, acc, acc_out)."""
    acc, acc_out = {}, {}
    dxs, dextra = chain_backward(cell, params, out, chain, acc, acc_out, dstates=g)
    return dxs, dextra, acc, acc_out


def fd_blocks(blocks, loss, label):
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
                "%s %s[%d]: analytic %g vs numeric %g" % (label, name, k, gflat[k], numeric))


def fd_check_cell(kind, seed):
    cell, params, out, xs, rng = chain_model(kind, seed)
    g = rng.uniform(M * (N_OUT if cell.carries_output else HIDDEN), -1, 1).reshape(M, -1)

    def loss():
        return float(np.sum(g * run(cell, params, out, xs).states))

    dxs, _, acc, acc_out = backward(cell, params, out, run(cell, params, out, xs), g)
    blocks = [("x", xs, dxs)]
    blocks += [(name, params[name], acc[name]) for name in sorted(params)]
    blocks += [("out." + name, out[name], acc_out[name]) for name in sorted(out or {})]
    fd_blocks(blocks, loss, kind)


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_backward_matches_finite_differences_100_seeds(kind):
    for seed in range(100):
        fd_check_cell(kind, seed)


def test_softmax_backward_finite_differences():
    for seed in range(100):
        rng = SeededRng(seed)
        p = {"W": rng.uniform(12, -1, 1).reshape(4, 3)}
        h = rng.uniform(3, -1, 1)
        g = rng.uniform(4, -1, 1)

        def loss():
            return float(np.dot(g, SoftmaxOutput.step(p, h)))

        o = SoftmaxOutput.step(p, h)
        acc = {}
        dh = SoftmaxOutput.backward_from_logits(
            p, h[None], SoftmaxOutput.logit_grad(o, g)[None], acc)
        fd_blocks([("h", h, dh), ("W", p["W"], acc["W"])], loss, "softmax")


def test_zero_upstream_gradient_zero_grads():
    for kind in sorted(CELLS):
        cell, params, out, xs, _ = chain_model(kind, 3)
        chain = run(cell, params, out, xs)
        dxs, _, acc, acc_out = backward(cell, params, out, chain, np.zeros_like(chain.states))
        assert np.all(dxs == 0)
        assert set(acc) == set(params) and set(acc_out) == set(out or {})
        assert all(np.all(v == 0) for v in list(acc.values()) + list(acc_out.values()))


def test_hidden_states_stay_in_unit_interval():
    for kind in (ELMAN, JORDAN):
        for seed in range(20):
            cell, params, out, _, rng = chain_model(kind, seed)
            xs = rng.uniform(5 * N_IN, -10, 10).reshape(5, N_IN)
            h = run(cell, params, out, xs).hidden
            assert np.all(h > 0) and np.all(h < 1)


def test_determinism_bitwise():
    for kind in sorted(CELLS):
        cell, params, out, xs, _ = chain_model(kind, 9)
        a = run(cell, params, out, xs)
        b = run(cell, params, out, xs)
        assert np.array_equal(a.mid, b.mid)
        assert np.array_equal(a.states, b.states)


def test_unknown_cell_kind():
    with pytest.raises(ValueError, match="unknown cell"):
        cell_for("LSTM")


def test_extra_term_gradient_finite_differences():
    # the additive context hook: injected into the pre-activation
    # (Elman/Jordan) or the candidate pre-activation (GRUs) at every position
    for kind in sorted(CELLS):
        for seed in range(10):
            cell, params, out, xs, rng = chain_model(kind, seed + 1000)
            extra = rng.uniform(HIDDEN, -1, 1)
            g = rng.uniform(M * (N_OUT if cell.carries_output else HIDDEN), -1, 1).reshape(M, -1)

            def loss():
                return float(np.sum(g * run(cell, params, out, xs, extra).states))

            chain = run(cell, params, out, xs, extra)
            _, dextra, _, _ = backward(cell, params, out, chain, g)
            assert dextra is not None
            fd_blocks([("extra", extra, dextra)], loss, kind)


def test_no_extra_returns_none():
    cell, params, out, xs, _ = chain_model(ELMAN, 1)
    chain = run(cell, params, out, xs)
    _, dextra, _, _ = backward(cell, params, out, chain, np.ones_like(chain.states))
    assert dextra is None
