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
    states: list       # emitted state per position (h or o)
    dists: list        # output distributions, when an output layer runs
    cell_tapes: list
    out_tapes: list


def run_chain(cell, params, out_params, xs, cfg, hidden, n_tags, extra=None):
    """Left-to-right recurrence from a zero initial carry."""
    carry = linalg.zeros(cell.carry_dim(hidden, n_tags))
    if cell.carries_output and out_params is None:
        raise ValueError("%s chain needs an output layer to carry o_prev" % cell.kind)
    states, dists, ctapes, otapes = [], [], [], []
    for x in xs:
        h, tape = cell.step(params, x, carry, cfg, extra)
        ctapes.append(tape)
        if out_params is not None:
            o, otape = SoftmaxOutput.step(out_params, h, cfg)
            dists.append(o)
            otapes.append(otape)
        carry = dists[-1] if cell.carries_output else h
        states.append(carry)
    return ChainRun(states=states, dists=dists, cell_tapes=ctapes, out_tapes=otapes)


def chain_backward(cell, params, out_params, run, cfg, acc, acc_out,
                   dstates=None, dlogits=None):
    """BPTT over one chain.

    dstates[i]: upstream gradient on the emitted state at position i.
    dlogits[i]: upstream gradient on the output-layer logits (loss path).
    Either may be None (treated as zero). Returns (dxs, dextra_total).
    """
    n = len(run.cell_tapes)
    dcarry = None
    dxs = [None] * n
    dextra_total = None
    for i in reversed(range(n)):
        dstate = np.zeros_like(run.states[i])
        if dcarry is not None:
            dstate += dcarry
        if dstates is not None and dstates[i] is not None:
            dstate += dstates[i]
        dl = dlogits[i] if dlogits is not None else None
        if cell.carries_output:
            # the emitted state is the output distribution itself, so its
            # gradient joins the loss gradient at the logits
            dl_state = SoftmaxOutput.logit_grad(run.out_tapes[i], dstate)
            dl = dl_state if dl is None else dl_state + dl
            dh = SoftmaxOutput.backward_from_logits(out_params, run.out_tapes[i], dl, cfg, acc_out)
        else:
            dh = dstate
            if dl is not None:
                dh += SoftmaxOutput.backward_from_logits(
                    out_params, run.out_tapes[i], dl, cfg, acc_out)
        dx, dcarry, dextra = cell.backward(params, run.cell_tapes[i], dh, cfg, acc)
        dxs[i] = dx
        if dextra is not None:
            dextra_total = dextra if dextra_total is None else dextra_total + dextra
    return dxs, dextra_total


@dataclass
class Encoded:
    xs: list
    dec_inputs: list = None
    extra: np.ndarray = None
    c_n: np.ndarray = None
    enc_fwd: ChainRun = None
    enc_bwd: ChainRun = None   # run over reversed xs; states reversed = r
    l: list = None
    r: list = None


def encode(spec, params, xs):
    """Run whatever encoders the architecture needs over the full sentence."""
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
                            list(reversed(xs)), cfg, spec.hidden, spec.n_tags)
    enc.l = enc.enc_fwd.states
    enc.r = list(reversed(enc.enc_bwd.states))
    enc.dec_inputs = [_beta(enc.l, enc.r, i, spec.context_k) for i in range(len(xs))]
    return enc


def _beta(l, r, i, k):
    """Context stack [l_{i-k}..l_i, r_i..r_{i+k}], zero-padded off the ends."""
    n = len(l)
    width = l[0].shape[0]
    parts = []
    for j in range(i - k, i + 1):
        parts.append(l[j] if 0 <= j < n else np.zeros(width))
    for j in range(i, i + k + 1):
        parts.append(r[j] if 0 <= j < n else np.zeros(width))
    return np.concatenate(parts)


@dataclass
class DecodeRun:
    dists: list
    lo: int
    hi: int
    run: ChainRun = None      # recurrent decoders
    out_tapes: list = None    # mesnil


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
        steps = [SoftmaxOutput.step(params["mesnil_out"], beta, cfg)
                 for beta in enc.dec_inputs[lo : hi + 1]]
        return DecodeRun(dists=[o for o, _ in steps], lo=lo, hi=hi,
                         out_tapes=[tape for _, tape in steps])
    cell = cell_for(spec.decoder_cell)
    run = run_chain(cell, params["decoder"], params["decoder_out"],
                    enc.dec_inputs[lo : hi + 1], cfg, spec.hidden, spec.n_tags,
                    extra=enc.extra)
    return DecodeRun(dists=run.dists, lo=lo, hi=hi, run=run)


def backward_window(spec, params, enc, dec, dlogits, acc):
    """Backprop a decoded window given per-window-position logit grads.

    Accumulates parameter gradients into acc and returns per-position
    input gradients dxs (length n; entries may be zero arrays).
    """
    cfg = spec.cell_config
    n = len(enc.xs)
    dxs = [np.zeros_like(x) for x in enc.xs]

    if spec.arch == MESNIL:
        d_dec = [None if dl is None else SoftmaxOutput.backward_from_logits(
                     params["mesnil_out"], tape, dl, cfg, acc["mesnil_out"])
                 for tape, dl in zip(dec.out_tapes, dlogits)]
    else:
        cell = cell_for(spec.decoder_cell)
        d_dec, dextra = chain_backward(
            cell, params["decoder"], params["decoder_out"], dec.run, cfg,
            acc["decoder"], acc["decoder_out"], dlogits=dlogits)

    if spec.arch in (BASIC, CONTEXTUAL):
        for wi, dx in enumerate(d_dec):
            dxs[dec.lo + wi] += dx
        if spec.arch == CONTEXTUAL:
            # every decoder step received S @ c_n, so dextra sums them all
            acc["context"]["S"] += np.outer(dextra, enc.c_n)
            dstates = [None] * n
            dstates[n - 1] = params["context"]["S"].T @ dextra
            _encoder_backward(spec, params, "encoder_fwd", enc.enc_fwd, dstates, dxs, acc)
        return dxs

    dl_states, dr_states = _scatter_beta_grads(spec, enc, dec, d_dec)
    _encoder_backward(spec, params, "encoder_fwd", enc.enc_fwd, dl_states, dxs, acc)
    _encoder_backward(spec, params, "encoder_bwd", enc.enc_bwd, dr_states, dxs, acc, flip=True)
    return dxs


def _scatter_beta_grads(spec, enc, dec, d_dec):
    """Undo the context-stack concatenation: route slice grads to l and r states."""
    n = len(enc.xs)
    k = spec.context_k
    sd = spec.enc_state_dim
    dl = [None] * n
    dr = [None] * n

    def bump(acc_list, j, g):
        if 0 <= j < n:
            acc_list[j] = g.copy() if acc_list[j] is None else acc_list[j] + g

    for wi, dbeta in enumerate(d_dec):
        if dbeta is None:
            continue
        i = dec.lo + wi
        at = 0
        for j in range(i - k, i + 1):
            bump(dl, j, dbeta[at : at + sd])
            at += sd
        for j in range(i, i + k + 1):
            bump(dr, j, dbeta[at : at + sd])
            at += sd
    return dl, dr


def _encoder_backward(spec, params, name, run, dstates, dxs, acc, flip=False):
    """BPTT through one encoder, adding its input gradients into dxs.

    The backward encoder ran over reversed inputs; flip=True flips the
    state grads going in and the input grads coming out.
    """
    out = name + "_out"   # the Jordan family's own output layer, if any
    d_xs, _ = chain_backward(
        cell_for(spec.encoder_cell), params[name], params.get(out), run, spec.cell_config,
        acc[name], acc.get(out), dstates=list(reversed(dstates)) if flip else dstates)
    for j, dx in enumerate(reversed(d_xs) if flip else d_xs):
        dxs[j] += dx


def full_forward(spec, params, xs):
    """Whole-sentence distributions (encode + single decode pass)."""
    enc = encode(spec, params, xs)
    dec = decode_window(spec, params, enc, 0, len(xs) - 1)
    return dec.dists


def predict_tags(spec, params, xs, tagset):
    """Argmax decoding; ties resolve to the lowest tag index."""
    dists = full_forward(spec, params, xs)
    return [tagset[int(np.argmax(o))] for o in dists]
