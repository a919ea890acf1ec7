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
* step      -- one position of B chains at once: a (B, ·) block of
               projections and of carries, one row per chain (or a single
               row as plain vectors); returns its intermediates, h last,
               each one row per chain, and every recurrent product is
               linalg.rowwise, so a row has the same bits for any B;
* backward  -- one position, right to left: returns d(carry) and the
               position's pre-activation gradients, row i of an
               (m, n_dpre, H) array;
* grads     -- after the loop: every parameter gradient as one
               dPreᵀ @ X or dPreᵀ @ Carry product, written into the
               gradient set with put_grad; returns dX = dPre @ U and the
               gradients of the pre-activation an additive extra term
               enters.

Faithful to the update rules as given: no cell or output layer has a
bias term, and the GRU candidate activation is the logistic sigmoid.
"""

import numpy as np

from . import linalg
from .linalg import rowwise, sigmoid, softmax

ELMAN = "ELMAN"
JORDAN = "JORDAN"
ELMAN_GRU = "ELMAN_GRU"
JORDAN_GRU = "JORDAN_GRU"
SOFTMAX = "SOFTMAX"


def put_grad(acc, name, g):
    """Make the fresh product g the gradient block acc[name], or add it
    to the block an earlier window of the same objective wrote there: an
    SGD step writes each block once, a sum over several windows adds."""
    if name in acc:
        acc[name] += g
    else:
        acc[name] = g


def _cell_class(name, kind, carries_output, doc, n_mid, n_dpre,
                param_shapes, project, step, backward, grads):
    """One class per cell kind, each holding its own step and backward,
    so a wrapper put on one kind leaves the others alone."""
    return type(name, (), {
        "__doc__": doc,
        "kind": kind,
        "carries_output": carries_output,
        "n_mid": n_mid,
        "n_dpre": n_dpre,
        "param_shapes": staticmethod(param_shapes),
        "project": staticmethod(project),
        "step": staticmethod(step),
        "backward": staticmethod(backward),
        "grads": staticmethod(grads),
    })


def _plain_cell(name, kind, carries_output, doc):
    # intermediates per position: (h,); pre-activation gradients: (dpre,)
    def param_shapes(n_in, hidden, n_out):
        return {"U": (hidden, n_in), "V": (hidden, n_out if carries_output else hidden)}

    def project(p, X, extra):
        pre = X @ p["U"].T
        if extra is not None:
            pre += extra
        return pre

    def step(p, proj, carry):
        return (sigmoid(proj + rowwise(carry, p["V"])),)

    def backward(p, mid, dh):
        (h,) = mid
        dpre = dh * h * (1.0 - h)
        return p["V"].T @ dpre, (dpre,)

    def grads(p, run, dpre, acc):
        dpre = dpre[:, 0]
        put_grad(acc, "U", dpre.T @ run.xs)
        put_grad(acc, "V", dpre.T @ run.carries)
        return dpre @ p["U"], dpre

    return _cell_class(name, kind, carries_output, doc, 1, 1,
                       param_shapes, project, step, backward, grads)


def _gated_cell(name, kind, carries_output, doc):
    # the candidate weights are W_h/U_h over h_prev and W_o/U_o over
    # o_prev; model files store them under these names
    W, U = ("W_o", "U_o") if carries_output else ("W_h", "U_h")
    # input and recurrent weights of the candidate and the two gates, in
    # the row order of the projections and of dpre
    parts = ((W, U), ("W_z", "U_z"), ("W_r", "U_r"))

    def param_shapes(n_in, hidden, n_out):
        shapes = {
            W: (hidden, n_in), "W_z": (hidden, n_in), "W_r": (hidden, n_in),
            U: (hidden, hidden), "U_z": (hidden, hidden), "U_r": (hidden, hidden),
        }
        if carries_output:
            shapes["T"] = (hidden, n_out)
        return shapes

    def project(p, X, extra):
        proj = np.stack([X @ p[w].T for w, _ in parts], axis=1)
        if extra is not None:
            # the additive context term enters the candidate only, not the gates
            proj[:, 0] += extra
        return proj

    # intermediates per position: t (the state the gates read: the carry,
    # or T @ carry), r, z, rt = r * t, the candidate c, and h; pre-activation
    # gradients: candidate, z, r, and the Jordan GRU's dt for T
    def step(p, proj, carry):
        t = rowwise(carry, p["T"]) if carries_output else carry
        r = sigmoid(proj[..., 2, :] + rowwise(t, p["U_r"]))
        z = sigmoid(proj[..., 1, :] + rowwise(t, p["U_z"]))
        rt = r * t
        c = sigmoid(proj[..., 0, :] + rowwise(rt, p[U]))
        return t, r, z, rt, c, z * c + (1.0 - z) * t

    def backward(p, mid, dh):
        t, r, z, _, c, _ = mid
        # the sigmoid's derivative c * (1 - c) stays one factor:
        # multiplying it in term by term rounds differently
        dpre_c = dh * z * (c * (1.0 - c))
        drt = p[U].T @ dpre_c
        dpre_z = dh * (c - t) * z * (1.0 - z)
        dpre_r = drt * t * r * (1.0 - r)
        dt = dh * (1.0 - z) + drt * r + p["U_z"].T @ dpre_z + p["U_r"].T @ dpre_r
        if carries_output:
            return p["T"].T @ dt, (dpre_c, dpre_z, dpre_r, dt)
        return dt, (dpre_c, dpre_z, dpre_r)

    def grads(p, run, dpre, acc):
        t, rt = run.mid[:, 0], run.mid[:, 3]
        dX = 0.0
        for j, ((w, u), rec) in enumerate(zip(parts, (rt, t, t))):
            d = dpre[:, j]
            put_grad(acc, w, d.T @ run.xs)
            put_grad(acc, u, d.T @ rec)
            dX = dX + d @ p[w]
        if carries_output:
            put_grad(acc, "T", dpre[:, 3].T @ run.carries)
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
    cand = Φ(W_h x_i + U_h (r_i * h_prev)),
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
    """o_i = softmax(W h_i); the output layer, over one state h, over
    every row of a chain's (m, H) states in one GEMM, or over a (B, 1, H)
    block one row at a time (the o carried by B Jordan-family chains)."""

    kind = SOFTMAX

    @staticmethod
    def param_shapes(hidden, n_out):
        return {"W": (n_out, hidden)}

    @staticmethod
    def step(p, h):
        return softmax(h @ p["W"].T)

    @staticmethod
    def logit_grad(o, do):
        """d(loss)/d(logits) given d(loss)/d(o) at one position: the softmax VJP."""
        return o * (do - np.dot(do, o))

    @staticmethod
    def backward_from_logits(p, H, dlogits, acc):
        """Given d(loss)/d(logits) of every row of H (softmax + nll
        collapses to o - onehot(y)), write the layer's gradient into acc
        and return d(loss)/dH."""
        put_grad(acc, "W", dlogits.T @ H)
        return dlogits @ p["W"]


CELLS = {cell.kind: cell for cell in (ElmanCell, JordanCell, ElmanGruCell, JordanGruCell)}


def cell_for(kind):
    if kind not in CELLS:
        raise ValueError("unknown cell kind: %r (expected one of %s)" % (kind, sorted(CELLS)))
    return CELLS[kind]


def init_params(shapes, rng):
    """Uniform init, radius scaled per matrix by its fan-in/fan-out,
    drawn in sorted name order."""
    return {name: linalg.uniform_init(rng, shapes[name],
                                      linalg.glorot_radius(shapes[name][1], shapes[name][0]))
            for name in sorted(shapes)}
