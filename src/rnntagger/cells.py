"""The recurrent cells and the softmax output layer.

Two cell families cover the four kinds the paper compares:

* the plain cell, h_i = Φ(U x_i + V carry), is ElmanCell when the carry
  is the previous hidden state h_{i-1} and JordanCell when it is the
  previous output distribution o_{i-1};
* the gated cell (a GRU) is ElmanGruCell over h_{i-1} and JordanGruCell
  over o_{i-1}, which it first maps into hidden space through T.

A cell works on a whole chain of m positions at once, except for the
part of the recurrence that needs the carry:

* project   -- the input half of every pre-activation, one product
               X @ Uᵀ per chain before the step loop;
* step      -- one position: returns its intermediates, h last, which
               the chain keeps as row i of an (m, n_mid, H) array;
* backward  -- one position, right to left: returns d(carry) and the
               position's pre-activation gradients, row i of an
               (m, n_dpre, H) array;
* grads     -- after the loop: every parameter gradient as one
               dPreᵀ @ X or dPreᵀ @ Carry product; returns dX = dPre @ U
               and the gradients of the pre-activation an additive
               extra term enters.

Faithful to the update rules as given: no bias terms unless the config
flag turns them on, and the GRU candidate activation is the logistic
sigmoid by default (tanh available behind the same config).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import sigmoid, softmax

ELMAN = "ELMAN"
JORDAN = "JORDAN"
ELMAN_GRU = "ELMAN_GRU"
JORDAN_GRU = "JORDAN_GRU"
SOFTMAX = "SOFTMAX"


@dataclass
class CellConfig:
    bias: bool = False
    candidate: str = "sigmoid"  # GRU candidate activation

    def __post_init__(self):
        if self.candidate not in ("sigmoid", "tanh"):
            raise ValueError("candidate must be sigmoid or tanh, got %r" % self.candidate)


def _candidate(pre, cfg):
    if cfg.candidate == "tanh":
        return np.tanh(pre)
    return sigmoid(pre)


def _candidate_grad(c, cfg):
    if cfg.candidate == "tanh":
        return 1.0 - c * c
    return c * (1.0 - c)


def _cell_class(name, kind, carries_output, doc, n_mid, n_dpre,
                param_shapes, project, step, backward, grads):
    """One class per cell kind, each holding its own step and backward,
    so a wrapper put on one kind leaves the others alone."""

    def carry_dim(hidden, n_out):
        return n_out if carries_output else hidden

    return type(name, (), {
        "__doc__": doc,
        "kind": kind,
        "carries_output": carries_output,
        "n_mid": n_mid,
        "n_dpre": n_dpre,
        "carry_dim": staticmethod(carry_dim),
        "param_shapes": staticmethod(param_shapes),
        "project": staticmethod(project),
        "step": staticmethod(step),
        "backward": staticmethod(backward),
        "grads": staticmethod(grads),
    })


def _plain_cell(name, kind, carries_output, doc):
    # intermediates per position: (h,); pre-activation gradients: (dpre,)
    def param_shapes(n_in, hidden, n_out, cfg):
        shapes = {"U": (hidden, n_in), "V": (hidden, n_out if carries_output else hidden)}
        if cfg.bias:
            shapes["b"] = (hidden,)
        return shapes

    def project(p, X, cfg, extra):
        pre = X @ p["U"].T
        if cfg.bias:
            pre += p["b"]
        if extra is not None:
            pre += extra
        return pre

    def step(p, proj, carry, cfg):
        return (sigmoid(proj + p["V"] @ carry),)

    def backward(p, mid, dh, cfg):
        (h,) = mid
        dpre = dh * h * (1.0 - h)
        return p["V"].T @ dpre, (dpre,)

    def grads(p, run, dpre, cfg, acc):
        dpre = dpre[:, 0]
        acc["U"] += dpre.T @ run.xs
        acc["V"] += dpre.T @ run.carries
        if cfg.bias:
            acc["b"] += dpre.sum(axis=0)
        return dpre @ p["U"], dpre

    return _cell_class(name, kind, carries_output, doc, 1, 1,
                       param_shapes, project, step, backward, grads)


def _gated_cell(name, kind, carries_output, doc):
    # the candidate weights are W_h/U_h/b_h over h_prev and W_o/U_o/b_o
    # over o_prev; model files store them under these names
    W, U, B = ("W_o", "U_o", "b_o") if carries_output else ("W_h", "U_h", "b_h")
    # input weights, recurrent weights and bias of the candidate and the
    # two gates, in the row order of the projections and of dpre
    parts = ((W, U, B), ("W_z", "U_z", "b_z"), ("W_r", "U_r", "b_r"))

    def param_shapes(n_in, hidden, n_out, cfg):
        shapes = {
            W: (hidden, n_in), "W_z": (hidden, n_in), "W_r": (hidden, n_in),
            U: (hidden, hidden), "U_z": (hidden, hidden), "U_r": (hidden, hidden),
        }
        if carries_output:
            shapes["T"] = (hidden, n_out)
        if cfg.bias:
            shapes.update({B: (hidden,), "b_z": (hidden,), "b_r": (hidden,)})
        return shapes

    def project(p, X, cfg, extra):
        proj = np.stack([X @ p[w].T for w, _, _ in parts], axis=1)
        if cfg.bias:
            proj += np.stack([p[b] for _, _, b in parts])
        if extra is not None:
            # the additive context term enters the candidate only, not the gates
            proj[:, 0] += extra
        return proj

    # intermediates per position: t (the state the gates read: the carry,
    # or T @ carry), r, z, rt = r * t, the candidate c, and h; pre-activation
    # gradients: candidate, z, r, and the Jordan GRU's dt for T
    def step(p, proj, carry, cfg):
        t = p["T"] @ carry if carries_output else carry
        r = sigmoid(proj[2] + p["U_r"] @ t)
        z = sigmoid(proj[1] + p["U_z"] @ t)
        rt = r * t
        c = _candidate(proj[0] + p[U] @ rt, cfg)
        return t, r, z, rt, c, z * c + (1.0 - z) * t

    def backward(p, mid, dh, cfg):
        t, r, z, _, c, _ = mid
        dpre_c = dh * z * _candidate_grad(c, cfg)
        drt = p[U].T @ dpre_c
        dpre_z = dh * (c - t) * z * (1.0 - z)
        dpre_r = drt * t * r * (1.0 - r)
        dt = dh * (1.0 - z) + drt * r + p["U_z"].T @ dpre_z + p["U_r"].T @ dpre_r
        if carries_output:
            return p["T"].T @ dt, (dpre_c, dpre_z, dpre_r, dt)
        return dt, (dpre_c, dpre_z, dpre_r)

    def grads(p, run, dpre, cfg, acc):
        t, rt = run.mid[:, 0], run.mid[:, 3]
        dX = 0.0
        for j, ((w, u, b), rec) in enumerate(zip(parts, (rt, t, t))):
            d = dpre[:, j]
            acc[w] += d.T @ run.xs
            acc[u] += d.T @ rec
            if cfg.bias:
                acc[b] += d.sum(axis=0)
            dX = dX + d @ p[w]
        if carries_output:
            acc["T"] += dpre[:, 3].T @ run.carries
        return dX, dpre[:, 0]

    return _cell_class(name, kind, carries_output, doc, 6, 4 if carries_output else 3,
                       param_shapes, project, step, backward, grads)


ElmanCell = _plain_cell(
    "ElmanCell", ELMAN, False,
    "h_i = Φ(U x_i + V h_{i-1}); carries its own hidden state.")

JordanCell = _plain_cell(
    "JordanCell", JORDAN, True,
    "h_i = Φ(U x_i + V o_{i-1}); carries the previous output distribution.")

ElmanGruCell = _gated_cell(
    "ElmanGruCell", ELMAN_GRU, False,
    """Gated variant of the Elman cell.

    r_i = Φ(W_r x_i + U_r h_prev), z_i = Φ(W_z x_i + U_z h_prev),
    cand = act(W_h x_i + U_h (r_i * h_prev)),
    h_i = z_i * cand + (1 - z_i) * h_prev.
    """)

JordanGruCell = _gated_cell(
    "JordanGruCell", JORDAN_GRU, True,
    """Gated variant of the Jordan cell.

    The previous output distribution is first mapped into hidden space,
    t = T o_prev; gates and candidate then read t where the Elman GRU
    reads h_prev, and the skip branch carries t itself:
    h_i = z_i * cand + (1 - z_i) * t.
    """)


class SoftmaxOutput:
    """o_i = softmax(W h_i); the output layer, over one state h or over
    every row of a chain's (m, H) states."""

    kind = SOFTMAX

    @staticmethod
    def param_shapes(hidden, n_out, cfg):
        shapes = {"W": (n_out, hidden)}
        if cfg.bias:
            shapes["b"] = (n_out,)
        return shapes

    @staticmethod
    def step(p, h, cfg):
        logits = h @ p["W"].T
        if cfg.bias:
            logits = logits + p["b"]
        return softmax(logits)

    @staticmethod
    def logit_grad(o, do):
        """d(loss)/d(logits) given d(loss)/d(o) at one position: the softmax VJP."""
        return o * (do - np.dot(do, o))

    @staticmethod
    def backward_from_logits(p, H, dlogits, cfg, acc):
        """Given d(loss)/d(logits) of every row of H (softmax + nll
        collapses to o - onehot(y)), accumulate the layer's gradients
        and return d(loss)/dH."""
        acc["W"] += dlogits.T @ H
        if cfg.bias:
            acc["b"] += dlogits.sum(axis=0)
        return dlogits @ p["W"]


CELLS = {cell.kind: cell for cell in (ElmanCell, JordanCell, ElmanGruCell, JordanGruCell)}


def cell_for(kind):
    if kind not in CELLS:
        raise ValueError("unknown cell kind: %r (expected one of %s)" % (kind, sorted(CELLS)))
    return CELLS[kind]


def init_params(shapes, rng):
    """Uniform init, radius scaled per matrix by its fan-in/fan-out;
    bias vectors start at zero."""
    params = {}
    for name in sorted(shapes):
        shape = shapes[name]
        if len(shape) == 1:
            params[name] = linalg.zeros(shape)
        else:
            radius = linalg.glorot_radius(shape[1], shape[0])
            params[name] = linalg.uniform_init(rng, shape, radius)
    return params


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}
