"""The recurrent cells and the softmax output layer.

Two cell families cover the four kinds the paper compares:

* the plain cell, h_i = Φ(U x_i + V carry), is ElmanCell when the carry
  is the previous hidden state h_{i-1} and JordanCell when it is the
  previous output distribution o_{i-1};
* the gated cell (a GRU) is ElmanGruCell over h_{i-1} and JordanGruCell
  over o_{i-1}, which it first maps into hidden space through T.

Each forward step returns a typed tape of intermediates; the matching
backward consumes it and produces exact analytic gradients for the
parameters, the step input x_i, and the carried state.

Faithful to the update rules as given: no bias terms unless the config
flag turns them on, and the GRU candidate activation is the logistic
sigmoid by default (tanh available behind the same config).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import matvec, sigmoid, softmax

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


@dataclass(slots=True)
class PlainTape:
    kind: str
    x: np.ndarray
    carry: np.ndarray
    h: np.ndarray
    has_extra: bool


@dataclass(slots=True)
class GatedTape:
    kind: str
    x: np.ndarray
    carry: np.ndarray
    t: np.ndarray       # the state the gates read: the carry, or T @ carry
    r: np.ndarray
    z: np.ndarray
    rt: np.ndarray      # r * t, the candidate's recurrent input
    c: np.ndarray       # the candidate activation
    has_extra: bool


@dataclass(slots=True)
class SoftmaxTape:
    h: np.ndarray
    o: np.ndarray
    kind = SOFTMAX


def _check_tape(tape, kind):
    got = getattr(tape, "kind", None)
    if got != kind:
        raise ValueError("tape from %r passed to %s backward" % (got, kind))


def _cell_class(name, kind, carries_output, doc, param_shapes, step, backward):
    """One class per cell kind, each holding its own step and backward,
    so a wrapper put on one kind leaves the others alone."""

    def carry_dim(hidden, n_out):
        return n_out if carries_output else hidden

    return type(name, (), {
        "__doc__": doc,
        "kind": kind,
        "carries_output": carries_output,
        "carry_dim": staticmethod(carry_dim),
        "param_shapes": staticmethod(param_shapes),
        "step": staticmethod(step),
        "backward": staticmethod(backward),
    })


def _plain_cell(name, kind, carries_output, doc):
    def param_shapes(n_in, hidden, n_out, cfg):
        shapes = {"U": (hidden, n_in), "V": (hidden, n_out if carries_output else hidden)}
        if cfg.bias:
            shapes["b"] = (hidden,)
        return shapes

    def step(p, x, carry, cfg, extra=None):
        pre = matvec(p["U"], x) + matvec(p["V"], carry)
        if cfg.bias:
            pre = pre + p["b"]
        if extra is not None:
            pre = pre + extra
        h = sigmoid(pre)
        return h, PlainTape(kind, x, carry, h, extra is not None)

    def backward(p, tape, dh, cfg, acc):
        _check_tape(tape, kind)
        h = tape.h
        dpre = dh * h * (1.0 - h)
        acc["U"] += np.outer(dpre, tape.x)
        acc["V"] += np.outer(dpre, tape.carry)
        if cfg.bias:
            acc["b"] += dpre
        dx = p["U"].T @ dpre
        dcarry = p["V"].T @ dpre
        dextra = dpre if tape.has_extra else None
        return dx, dcarry, dextra

    return _cell_class(name, kind, carries_output, doc, param_shapes, step, backward)


def _gated_cell(name, kind, carries_output, doc):
    # the candidate weights are W_h/U_h/b_h over h_prev and W_o/U_o/b_o
    # over o_prev; model files store them under these names
    W, U, B = ("W_o", "U_o", "b_o") if carries_output else ("W_h", "U_h", "b_h")

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

    def step(p, x, carry, cfg, extra=None):
        t = matvec(p["T"], carry) if carries_output else carry
        pre_r = matvec(p["W_r"], x) + matvec(p["U_r"], t)
        pre_z = matvec(p["W_z"], x) + matvec(p["U_z"], t)
        if cfg.bias:
            pre_r = pre_r + p["b_r"]
            pre_z = pre_z + p["b_z"]
        r = sigmoid(pre_r)
        z = sigmoid(pre_z)
        rt = r * t
        # the additive context term enters the candidate only, not the gates
        pre_c = matvec(p[W], x) + matvec(p[U], rt)
        if cfg.bias:
            pre_c = pre_c + p[B]
        if extra is not None:
            pre_c = pre_c + extra
        c = _candidate(pre_c, cfg)
        h = z * c + (1.0 - z) * t
        return h, GatedTape(kind, x, carry, t, r, z, rt, c, extra is not None)

    def backward(p, tape, dh, cfg, acc):
        _check_tape(tape, kind)
        x, t = tape.x, tape.t
        r, z, c = tape.r, tape.z, tape.c

        dz = dh * (c - t)
        dc = dh * z
        dt = dh * (1.0 - z)

        dpre_c = dc * _candidate_grad(c, cfg)
        acc[W] += np.outer(dpre_c, x)
        acc[U] += np.outer(dpre_c, tape.rt)
        drt = p[U].T @ dpre_c
        dr = drt * t
        dt = dt + drt * r

        dpre_z = dz * z * (1.0 - z)
        acc["W_z"] += np.outer(dpre_z, x)
        acc["U_z"] += np.outer(dpre_z, t)
        dt = dt + p["U_z"].T @ dpre_z

        dpre_r = dr * r * (1.0 - r)
        acc["W_r"] += np.outer(dpre_r, x)
        acc["U_r"] += np.outer(dpre_r, t)
        dt = dt + p["U_r"].T @ dpre_r

        if cfg.bias:
            acc[B] += dpre_c
            acc["b_z"] += dpre_z
            acc["b_r"] += dpre_r

        if carries_output:
            acc["T"] += np.outer(dt, tape.carry)
            dcarry = p["T"].T @ dt
        else:
            dcarry = dt
        dx = p[W].T @ dpre_c + p["W_z"].T @ dpre_z + p["W_r"].T @ dpre_r
        dextra = dpre_c if tape.has_extra else None
        return dx, dcarry, dextra

    return _cell_class(name, kind, carries_output, doc, param_shapes, step, backward)


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
    """o_i = softmax(W h_i); the per-position output layer."""

    kind = SOFTMAX

    @staticmethod
    def param_shapes(hidden, n_out, cfg):
        shapes = {"W": (n_out, hidden)}
        if cfg.bias:
            shapes["b"] = (n_out,)
        return shapes

    @staticmethod
    def step(p, h, cfg):
        logits = matvec(p["W"], h)
        if cfg.bias:
            logits = logits + p["b"]
        o = softmax(logits)
        return o, SoftmaxTape(h, o)

    @staticmethod
    def logit_grad(tape, do):
        """d(loss)/d(logits) given d(loss)/d(o): the softmax VJP."""
        _check_tape(tape, SOFTMAX)
        o = tape.o
        return o * (do - np.dot(do, o))

    @staticmethod
    def backward(p, tape, do, cfg, acc):
        """Gradient through the softmax given d(loss)/d(o)."""
        dlogits = SoftmaxOutput.logit_grad(tape, do)
        return SoftmaxOutput.backward_from_logits(p, tape, dlogits, cfg, acc)

    @staticmethod
    def backward_from_logits(p, tape, dlogits, cfg, acc):
        """Entry point when d(loss)/d(logits) is already known
        (softmax + nll collapses to o - onehot(y))."""
        _check_tape(tape, SOFTMAX)
        acc["W"] += np.outer(dlogits, tape.h)
        if cfg.bias:
            acc["b"] += dlogits
        return p["W"].T @ dlogits


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
