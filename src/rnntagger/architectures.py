"""Compose cells into full tagging architectures.

Four arrangements:

* basic          -- one recurrent decoder straight over the x_i windows.
* contextual     -- an Elman-family encoder summarizes the sentence into
                    its last state c_n; the decoder receives S @ c_n as
                    an additive term at every step.
* bidirectional  -- forward and backward encoders (same cell kind, own
                    weights per direction) produce l_i and r_i; the
                    decoder runs recurrently over alpha_i = [l_i, r_i].
* mesnil         -- the same two encoders, but each position is
                    classified independently from the context stack
                    beta_i = [l_{i-k}..l_i, r_i..r_{i+k}] with a single
                    softmax layer; no decoder recurrence.

alpha_i is the context stack with k = 0, so both encoder architectures
build their decoder inputs, and route the gradients back to l and r,
through the same code.

A sentence is an (n, I) array with one input row per position, and every
chain (encoder, decoder window) keeps its states, distributions and cell
intermediates as arrays with one row per position.

Encoders of the Elman family emit hidden vectors (length H); Jordan
family encoders carry and emit their own softmax output vectors (length
O) through per-direction output layers.  Each cell reports its family
and its state width itself (carries_output, carry_dim).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cells import (
    CellConfig,
    SoftmaxOutput,
    cell_for,
    init_params,
    zero_grads,
)

BASIC = "basic"
CONTEXTUAL = "contextual"
BIDIRECTIONAL = "bidirectional"
MESNIL = "mesnil"
ARCHS = (BASIC, CONTEXTUAL, BIDIRECTIONAL, MESNIL)


@dataclass
class ModelSpec:
    arch: str
    n_in: int
    hidden: int
    n_tags: int
    decoder_cell: str = None
    encoder_cell: str = None
    mesnil_k: int = 1
    bias: bool = False
    gru_candidate: str = "sigmoid"

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError("unknown architecture %r (expected one of %s)" % (self.arch, ARCHS))
        if min(self.n_in, self.hidden, self.n_tags) < 1:
            raise ValueError("dimensions must be positive: I=%d H=%d O=%d"
                             % (self.n_in, self.hidden, self.n_tags))
        if self.arch == MESNIL:
            if self.decoder_cell is not None:
                raise ValueError("the word-wise variant has no recurrent decoder")
            if self.mesnil_k < 0:
                raise ValueError("context size k must be >= 0, got %d" % self.mesnil_k)
        else:
            cell_for(self.decoder_cell)
        if self.arch == BASIC:
            if self.encoder_cell is not None:
                raise ValueError("basic architecture takes no encoder")
        else:
            enc = cell_for(self.encoder_cell)
            if self.arch == CONTEXTUAL and enc.carries_output:
                raise ValueError(
                    "contextual encoder must be Elman-family, got %r" % self.encoder_cell)

    @property
    def cell_config(self):
        return CellConfig(bias=self.bias, candidate=self.gru_candidate)

    @property
    def enc_state_dim(self):
        """Width of one encoder state: H for Elman family, O for Jordan."""
        if self.encoder_cell is None:
            return 0
        return cell_for(self.encoder_cell).carry_dim(self.hidden, self.n_tags)

    @property
    def encoder_has_output(self):
        return self.encoder_cell is not None and cell_for(self.encoder_cell).carries_output

    @property
    def context_k(self):
        """k of the context stack over the encoder states; the
        bidirectional alpha_i = [l_i, r_i] is the k = 0 stack."""
        return self.mesnil_k if self.arch == MESNIL else 0

    @property
    def dec_input_dim(self):
        if self.arch in (BASIC, CONTEXTUAL):
            return self.n_in
        if self.arch == BIDIRECTIONAL:
            return self.beta_dim
        return None  # mesnil: no recurrent decoder

    @property
    def beta_dim(self):
        return 2 * (self.context_k + 1) * self.enc_state_dim


def bundle_shapes(spec):
    """name -> {param -> shape} for every parameter bundle of the model."""
    cfg = spec.cell_config
    shapes = {}
    if spec.arch != MESNIL:
        dec = cell_for(spec.decoder_cell)
        shapes["decoder"] = dec.param_shapes(spec.dec_input_dim, spec.hidden, spec.n_tags, cfg)
        shapes["decoder_out"] = SoftmaxOutput.param_shapes(spec.hidden, spec.n_tags, cfg)
    if spec.arch == CONTEXTUAL:
        enc = cell_for(spec.encoder_cell)
        shapes["encoder_fwd"] = enc.param_shapes(spec.n_in, spec.hidden, spec.n_tags, cfg)
        shapes["context"] = {"S": (spec.hidden, spec.enc_state_dim)}
    if spec.arch in (BIDIRECTIONAL, MESNIL):
        enc = cell_for(spec.encoder_cell)
        for d in ("fwd", "bwd"):
            shapes["encoder_%s" % d] = enc.param_shapes(spec.n_in, spec.hidden, spec.n_tags, cfg)
            if spec.encoder_has_output:
                shapes["encoder_%s_out" % d] = SoftmaxOutput.param_shapes(
                    spec.hidden, spec.n_tags, cfg)
    if spec.arch == MESNIL:
        shapes["mesnil_out"] = SoftmaxOutput.param_shapes(spec.beta_dim, spec.n_tags, cfg)
    return shapes


def init_model(spec, rng):
    """Fresh parameter bundles; draw order is fixed (sorted names) so
    the same seed always yields the same model."""
    return {name: init_params(shapes, rng)
            for name, shapes in sorted(bundle_shapes(spec).items())}


def zero_model_grads(params):
    return {name: zero_grads(bundle) for name, bundle in params.items()}


@dataclass
class ChainRun:
    xs: np.ndarray       # (m, I) inputs
    mid: np.ndarray      # (m, n_mid, H) cell intermediates, h last
    states: np.ndarray   # (m, carry width) emitted states: h, or o for the Jordan family
    dists: np.ndarray    # (m, O) output distributions, or None without an output layer
    has_extra: bool

    @property
    def hidden(self):
        return self.mid[:, -1]

    @property
    def carries(self):
        """The carry each position read: zero, then the previous state."""
        return np.vstack([np.zeros((1, self.states.shape[1])), self.states[:-1]])


def run_chain(cell, params, out_params, xs, cfg, hidden, n_tags, extra=None):
    """Left-to-right recurrence from a zero initial carry over the rows of xs."""
    if cell.carries_output and out_params is None:
        raise ValueError("%s chain needs an output layer to carry o_prev" % cell.kind)
    xs = np.asarray(xs, dtype=np.float64)
    proj = cell.project(params, xs, cfg, extra)
    mid = np.empty((len(xs), cell.n_mid, hidden))
    dists = np.empty((len(xs), n_tags)) if cell.carries_output else None
    carry = linalg.zeros(cell.carry_dim(hidden, n_tags))
    for i in range(len(xs)):
        mid[i] = cell.step(params, proj[i], carry, cfg)
        if cell.carries_output:
            carry = dists[i] = SoftmaxOutput.step(out_params, mid[i, -1], cfg)
        else:
            carry = mid[i, -1]
    if out_params is not None and not cell.carries_output:
        dists = SoftmaxOutput.step(out_params, mid[:, -1], cfg)
    states = dists if cell.carries_output else mid[:, -1]
    return ChainRun(xs=xs, mid=mid, states=states, dists=dists, has_extra=extra is not None)


def chain_backward(cell, params, out_params, run, cfg, acc, acc_out,
                   dstates=None, dlogits=None):
    """BPTT over one chain.

    dstates: (m, state width) upstream gradient on the emitted states.
    dlogits: (m, O) upstream gradient on the output-layer logits (loss path).
    Either may be None (zero). Returns (dX, dextra); dextra is None
    when the chain ran without an extra term.
    """
    m, _, hidden = run.mid.shape
    if dstates is None:
        dstates = np.zeros_like(run.states)
    if cell.carries_output:
        # the emitted state is the output distribution itself, so its
        # gradient joins the loss gradient at the logits, step by step
        dlogits = np.zeros_like(run.dists) if dlogits is None else dlogits.copy()
    elif dlogits is not None:
        dh_out = SoftmaxOutput.backward_from_logits(
            out_params, run.hidden, dlogits, cfg, acc_out)
    dpre = np.empty((m, cell.n_dpre, hidden))
    dcarry = np.zeros(run.states.shape[1])
    for i in reversed(range(m)):
        dstate = dstates[i] + dcarry
        if cell.carries_output:
            dlogits[i] += SoftmaxOutput.logit_grad(run.dists[i], dstate)
            dh = dlogits[i] @ out_params["W"]
        else:
            dh = dstate if dlogits is None else dstate + dh_out[i]
        dcarry, dpre[i] = cell.backward(params, run.mid[i], dh, cfg)
    if cell.carries_output:
        SoftmaxOutput.backward_from_logits(out_params, run.hidden, dlogits, cfg, acc_out)
    dxs, dextra = cell.grads(params, run, dpre, cfg, acc)
    return dxs, dextra.sum(axis=0) if run.has_extra else None


@dataclass
class Encoded:
    xs: np.ndarray                 # (n, I) sentence inputs
    dec_inputs: np.ndarray = None  # (n, decoder input width): xs or the context stacks
    extra: np.ndarray = None
    c_n: np.ndarray = None
    enc_fwd: ChainRun = None
    enc_bwd: ChainRun = None       # run over xs[::-1]; its states reversed are r
    l: np.ndarray = None
    r: np.ndarray = None


def encode(spec, params, xs):
    """Run whatever encoders the architecture needs over the full
    sentence, xs holding one input row per position."""
    xs = np.asarray(xs, dtype=np.float64)
    if len(xs) < 1:
        raise ValueError("cannot encode an empty sentence")
    cfg = spec.cell_config
    enc = Encoded(xs=xs)
    if spec.arch == BASIC:
        enc.dec_inputs = xs
        return enc
    cell = cell_for(spec.encoder_cell)
    if spec.arch == CONTEXTUAL:
        enc.enc_fwd = run_chain(cell, params["encoder_fwd"], None, xs, cfg,
                                spec.hidden, spec.n_tags)
        enc.c_n = enc.enc_fwd.states[-1]
        enc.extra = params["context"]["S"] @ enc.c_n
        enc.dec_inputs = xs
        return enc
    enc.enc_fwd = run_chain(cell, params["encoder_fwd"], params.get("encoder_fwd_out"),
                            xs, cfg, spec.hidden, spec.n_tags)
    enc.enc_bwd = run_chain(cell, params["encoder_bwd"], params.get("encoder_bwd_out"),
                            xs[::-1], cfg, spec.hidden, spec.n_tags)
    enc.l = enc.enc_fwd.states
    enc.r = enc.enc_bwd.states[::-1]
    enc.dec_inputs = _beta(enc.l, enc.r, spec.context_k)
    return enc


def _beta(l, r, k):
    """Context stacks [l_{i-k}..l_i, r_i..r_{i+k}] of every position i,
    zero-padded off the ends: each slot is l or r shifted by its offset."""
    n, width = l.shape
    pad = np.zeros((k, width))
    l_pad = np.vstack([pad, l])   # row i + j holds l_{i-k+j}
    r_pad = np.vstack([r, pad])   # row i + j holds r_{i+j}
    return np.hstack([l_pad[j : j + n] for j in range(k + 1)]
                     + [r_pad[j : j + n] for j in range(k + 1)])


def _scatter_beta_grads(dbeta, lo, n, k):
    """Inverse of _beta for the stacks of positions lo.. in dbeta:
    slice-add each slot back onto the l and r rows it was copied from."""
    m = len(dbeta)
    slots = dbeta.reshape(m, 2 * (k + 1), -1)
    dl_pad = np.zeros((n + k, slots.shape[2]))
    dr_pad = np.zeros((n + k, slots.shape[2]))
    for j in range(k + 1):
        dl_pad[lo + j : lo + j + m] += slots[:, j]
        dr_pad[lo + j : lo + j + m] += slots[:, k + 1 + j]
    return dl_pad[k:], dr_pad[:n]


@dataclass
class DecodeRun:
    dists: np.ndarray         # (hi - lo + 1, O)
    lo: int
    hi: int
    run: ChainRun = None      # recurrent decoders


def decode_window(spec, params, enc, lo, hi):
    """Decode positions lo..hi (inclusive) from a zero initial carry.

    Full-sentence inference is the lo=0, hi=n-1 case; training windows
    pass lo = max(0, i - v_d), hi = i.
    """
    n = len(enc.dec_inputs)
    if not (0 <= lo <= hi < n):
        raise ValueError("window [%d, %d] out of range for %d positions" % (lo, hi, n))
    cfg = spec.cell_config
    if spec.arch == MESNIL:
        # positions are independent: classify all of them in one product
        # and slice, so a position's distribution has the same bits
        # whichever window asks for it
        dists = SoftmaxOutput.step(params["mesnil_out"], enc.dec_inputs, cfg)
        return DecodeRun(dists=dists[lo : hi + 1], lo=lo, hi=hi)
    cell = cell_for(spec.decoder_cell)
    run = run_chain(cell, params["decoder"], params["decoder_out"],
                    enc.dec_inputs[lo : hi + 1], cfg, spec.hidden, spec.n_tags,
                    extra=enc.extra)
    return DecodeRun(dists=run.dists, lo=lo, hi=hi, run=run)


def backward_window(spec, params, enc, dec, dlogits, acc):
    """Backprop a decoded window given its (window length, O) logit grads.

    Accumulates parameter gradients into acc and returns the (n, I)
    input gradients, zero rows where no gradient reached.
    """
    cfg = spec.cell_config
    window = slice(dec.lo, dec.hi + 1)
    if spec.arch == MESNIL:
        d_dec = SoftmaxOutput.backward_from_logits(
            params["mesnil_out"], enc.dec_inputs[window], dlogits, cfg, acc["mesnil_out"])
    else:
        d_dec, dextra = chain_backward(
            cell_for(spec.decoder_cell), params["decoder"], params["decoder_out"], dec.run,
            cfg, acc["decoder"], acc["decoder_out"], dlogits=dlogits)

    dxs = np.zeros_like(enc.xs)
    if spec.arch in (BASIC, CONTEXTUAL):
        dxs[window] += d_dec
        if spec.arch == CONTEXTUAL:
            # every decoder step received S @ c_n, so dextra sums them all
            acc["context"]["S"] += np.outer(dextra, enc.c_n)
            dstates = np.zeros_like(enc.enc_fwd.states)
            dstates[-1] = params["context"]["S"].T @ dextra
            dxs += _encoder_backward(spec, params, "encoder_fwd", enc.enc_fwd, dstates, acc)
        return dxs

    dl, dr = _scatter_beta_grads(d_dec, dec.lo, len(dxs), spec.context_k)
    dxs += _encoder_backward(spec, params, "encoder_fwd", enc.enc_fwd, dl, acc)
    # the backward encoder ran over xs[::-1]: flip its grads in and out
    dxs += _encoder_backward(spec, params, "encoder_bwd", enc.enc_bwd, dr[::-1], acc)[::-1]
    return dxs


def _encoder_backward(spec, params, name, run, dstates, acc):
    """BPTT through one encoder chain; returns its input gradients."""
    out = name + "_out"   # the Jordan family's own output layer, if any
    dxs, _ = chain_backward(
        cell_for(spec.encoder_cell), params[name], params.get(out), run, spec.cell_config,
        acc[name], acc.get(out), dstates=dstates)
    return dxs


def full_forward(spec, params, xs):
    """Whole-sentence distributions (encode + single decode pass)."""
    enc = encode(spec, params, xs)
    dec = decode_window(spec, params, enc, 0, len(xs) - 1)
    return dec.dists


def predict_tags(spec, params, xs, tagset):
    """Argmax decoding; ties resolve to the lowest tag index."""
    dists = full_forward(spec, params, xs)
    return [tagset[int(np.argmax(o))] for o in dists]
