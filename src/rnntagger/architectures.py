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
itself (carries_output).
"""

from dataclasses import dataclass

import numpy as np

from .cells import SoftmaxOutput, cell_for, init_params, put_grad
from .linalg import check_size, unwindow, windows

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

    def __post_init__(self):
        """A value the architectures cannot take is a ValueError whose
        message starts with the field it refuses."""
        if self.arch not in ARCHS:
            raise ValueError("arch: unknown architecture %r (expected one of %s)"
                             % (self.arch, ARCHS))
        for name, least in (("n_in", 1), ("hidden", 1), ("n_tags", 1), ("mesnil_k", 0)):
            check_size(name, getattr(self, name), least)
        if self.arch == MESNIL:
            if self.decoder_cell is not None:
                raise ValueError("decoder_cell: the word-wise variant has no recurrent decoder,"
                                 " got %r" % self.decoder_cell)
        else:
            _cell(self, "decoder_cell")
        if self.arch == BASIC:
            if self.encoder_cell is not None:
                raise ValueError("encoder_cell: basic architecture takes no encoder, got %r"
                                 % self.encoder_cell)
        elif _cell(self, "encoder_cell").carries_output and self.arch == CONTEXTUAL:
            raise ValueError("encoder_cell: contextual encoder must be Elman-family, got %r"
                             % self.encoder_cell)

    @property
    def enc_state_dim(self):
        """Width of one encoder state: H for Elman family, O for Jordan."""
        if self.encoder_cell is None:
            return 0
        return self.n_tags if cell_for(self.encoder_cell).carries_output else self.hidden

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


def _cell(spec, name):
    try:
        return cell_for(getattr(spec, name))
    except ValueError as e:
        raise ValueError("%s: %s" % (name, e)) from None


def bundle_shapes(spec):
    """name -> {param -> shape} for every parameter bundle of the model."""
    shapes = {}
    if spec.arch != MESNIL:
        dec = cell_for(spec.decoder_cell)
        shapes["decoder"] = dec.param_shapes(spec.dec_input_dim, spec.hidden, spec.n_tags)
        shapes["decoder_out"] = SoftmaxOutput.param_shapes(spec.hidden, spec.n_tags)
    if spec.arch == CONTEXTUAL:
        enc = cell_for(spec.encoder_cell)
        shapes["encoder_fwd"] = enc.param_shapes(spec.n_in, spec.hidden, spec.n_tags)
        shapes["context"] = {"S": (spec.hidden, spec.enc_state_dim)}
    if spec.arch in (BIDIRECTIONAL, MESNIL):
        enc = cell_for(spec.encoder_cell)
        for d in ("fwd", "bwd"):
            shapes["encoder_%s" % d] = enc.param_shapes(spec.n_in, spec.hidden, spec.n_tags)
            if enc.carries_output:
                shapes["encoder_%s_out" % d] = SoftmaxOutput.param_shapes(
                    spec.hidden, spec.n_tags)
    if spec.arch == MESNIL:
        shapes["mesnil_out"] = SoftmaxOutput.param_shapes(spec.beta_dim, spec.n_tags)
    return shapes


def init_model(spec, rng):
    """Fresh parameter bundles; draw order is fixed (sorted names) so
    the same seed always yields the same model."""
    return {name: init_params(shapes, rng)
            for name, shapes in sorted(bundle_shapes(spec).items())}


@dataclass
class ChainRun:
    xs: np.ndarray       # (m, I) inputs
    mid: np.ndarray      # (m, n_mid, H) cell intermediates, h last
    states: np.ndarray   # (m, carry width) emitted states: h, or o for the Jordan family
    dists: np.ndarray    # (m, O) output distributions, or None without an output layer
    has_extra: bool
    steps: int           # positions stepped; the rows past them are zero

    @property
    def hidden(self):
        return self.mid[:, -1]

    @property
    def carries(self):
        """The carry each position read: zero, then the previous state."""
        return np.vstack([np.zeros((1, self.states.shape[1])), self.states[:-1]])


def run_chain(cell, params, out_params, xss, extras=None, steps=None):
    """Left-to-right recurrences from a zero initial carry, one over the
    rows of each array in xss, all stepped together; returns one ChainRun
    per array, in the order given.  The hidden width is the projections',
    and a Jordan-family carry is as wide as the output layer's W is tall.

    steps, when given, holds how many leading positions of each chain to
    step (default: all of them); a chain's rows past that count stay
    zero.  The chains are sorted by it, most first, so step i runs the
    first a_i rows, the chains still stepping; no padded position is
    computed.  Every product over positions (the projections, an
    Elman-family output layer, and chain_backward's input and parameter
    gradients) runs per chain at its full height, the zero rows past
    the stepped ones included: BLAS rounds by the height of the
    matrices, so a shorter product would change the bits.  Each row of
    a step has the bits it has in a batch of one.
    """
    if cell.carries_output and out_params is None:
        raise ValueError("%s chain needs an output layer to carry o_prev" % cell.kind)
    xss = [np.asarray(xs, dtype=np.float64) for xs in xss]
    if extras is None:
        extras = [None] * len(xss)
    if steps is None:
        steps = [len(xs) for xs in xss]
    order = sorted(range(len(xss)), key=lambda b: -steps[b])
    projs = [cell.project(params, xss[b], extras[b]) for b in order]
    counts = [steps[b] for b in order]
    height = max(len(p) for p in projs)
    hidden = projs[0].shape[-1]
    width = out_params["W"].shape[0] if cell.carries_output else hidden
    # a_i: how many chains step position i
    active = (np.array(counts)[:, None] > np.arange(counts[0])).sum(axis=0)
    # time-major blocks: row (i, j) is position i of the j-th chain
    proj = np.zeros((height, len(projs)) + projs[0].shape[1:])
    for j, p in enumerate(projs):
        proj[: len(p), j] = p
    mid = np.empty((height, cell.n_mid, len(projs), hidden))
    dists = np.empty((height, len(projs), width)) if cell.carries_output else None
    for j, (p, c) in enumerate(zip(projs, counts)):
        # full-height products read the rows not stepped: zero, not
        # uninitialised memory, whose NaNs would survive a times zero
        mid[c : len(p), :, j] = 0.0
        if dists is not None:
            dists[c : len(p), j] = 0.0
    carry = np.zeros((len(projs), width))
    for i, a in enumerate(active):
        mid[i, :, :a] = cell.step(params, proj[i, :a], carry[:a])
        if cell.carries_output:
            # a (a, 1, H) block: one output product per row, as in the step
            carry = dists[i, :a] = SoftmaxOutput.step(
                out_params, mid[i, -1, :a, None])[:, 0]
        else:
            carry = mid[i, -1, :a]
    runs = [None] * len(xss)
    for j, (b, p, c) in enumerate(zip(order, projs, counts)):
        chain_mid = mid[: len(p), :, j]
        if cell.carries_output:
            states = chain_dists = dists[: len(p), j]
        else:
            states = chain_mid[:, -1]
            chain_dists = (None if out_params is None
                           else SoftmaxOutput.step(out_params, states))
        runs[b] = ChainRun(xs=xss[b], mid=chain_mid, states=states, dists=chain_dists,
                           has_extra=extras[b] is not None, steps=c)
    return runs


def chain_backward(cell, params, out_params, run, acc, acc_out,
                   dstates=None, dlogits=None):
    """BPTT over the positions of one chain that were stepped.

    dstates: (m, state width) upstream gradient on the emitted states.
    dlogits: (m, O) upstream gradient on the output-layer logits (loss path).
    Either may be None (zero), and must be zero past run.steps: a
    position not stepped gets no gradient.  Returns (dX, dextra); dextra
    is None when the chain ran without an extra term.
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
            out_params, run.hidden, dlogits, acc_out)
    # dpre is zero past run.steps, yet every product below, dX = dPre @ U
    # and the parameter gradients (sums over positions) alike, stays at
    # full height m: BLAS may group a shorter sum's terms differently, so
    # only at full height are the bits a whole-sentence backward's
    dpre = np.zeros((m, cell.n_dpre, hidden))
    dcarry = np.zeros(run.states.shape[1])
    for i in reversed(range(run.steps)):
        dstate = dstates[i] + dcarry
        if cell.carries_output:
            dlogits[i] += SoftmaxOutput.logit_grad(run.dists[i], dstate)
            dh = dlogits[i] @ out_params["W"]
        else:
            dh = dstate if dlogits is None else dstate + dh_out[i]
        dcarry, dpre[i] = cell.backward(params, run.mid[i], dh)
    if cell.carries_output:
        SoftmaxOutput.backward_from_logits(out_params, run.hidden, dlogits, acc_out)
    dxs, dextra = cell.grads(params, run, dpre, acc)
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


def encode_batch(spec, params, xss, spans=None):
    """Run whatever encoders the architecture needs over each sentence
    of the batch, each xs holding one input row per position; one
    Encoded per sentence, and every chain of the batch stepped together.

    spans, when given, holds for each sentence the (lo, hi) of the
    positions whose decoder windows will be read.  Those windows read l
    only up to hi and r only from lo on, so the forward encoder steps
    0..hi and the backward one n - 1 down to lo, and the other rows of l
    and r are zero.  The contextual encoder always runs whole: c_n reads
    every position.
    """
    xss = [np.asarray(xs, dtype=np.float64) for xs in xss]
    if any(len(xs) < 1 for xs in xss):
        raise ValueError("cannot encode an empty sentence")
    encs = [Encoded(xs=xs, dec_inputs=xs) for xs in xss]
    if spec.arch == BASIC:
        return encs
    cell = cell_for(spec.encoder_cell)
    cone = spans is not None and spec.arch != CONTEXTUAL
    fwd = run_chain(cell, params["encoder_fwd"], params.get("encoder_fwd_out"),
                    xss, steps=[hi + 1 for _, hi in spans] if cone else None)
    if spec.arch == CONTEXTUAL:
        for enc, run in zip(encs, fwd):
            enc.enc_fwd = run
            enc.c_n = run.states[-1]
            enc.extra = params["context"]["S"] @ enc.c_n
        return encs
    bwd = run_chain(cell, params["encoder_bwd"], params.get("encoder_bwd_out"),
                    [xs[::-1] for xs in xss],
                    steps=[len(xs) - lo for xs, (lo, _) in zip(xss, spans)] if cone else None)
    for enc, run_f, run_b in zip(encs, fwd, bwd):
        enc.enc_fwd, enc.enc_bwd = run_f, run_b
        enc.l = run_f.states
        enc.r = run_b.states[::-1]
        enc.dec_inputs = _beta(enc.l, enc.r, spec.context_k)
    return encs


def encode(spec, params, xs, span=None):
    """encode_batch of the one sentence xs, over the cone of span."""
    return encode_batch(spec, params, [xs], None if span is None else [span])[0]


def _beta(l, r, k):
    """Context stacks [l_{i-k}..l_i, r_i..r_{i+k}] of every position i: the
    width-k+1 windows of l after k zero rows, then of r before k zero rows."""
    pad = np.zeros((k, l.shape[1]))
    return np.hstack([windows(np.vstack([pad, l]), k + 1),
                      windows(np.vstack([r, pad]), k + 1)])


def _scatter_beta_grads(dbeta, k):
    """Adjoint of _beta: (dl, dr) from the (n, ·) stacks' gradients dbeta."""
    halves = dbeta.reshape(len(dbeta), 2, k + 1, -1)
    return unwindow(halves[:, 0])[k:], unwindow(halves[:, 1])[: len(dbeta)]


@dataclass
class DecodeRun:
    dists: np.ndarray         # (hi - lo + 1, O)
    lo: int
    hi: int
    run: ChainRun = None      # recurrent decoders


def decode_batch(spec, params, encs, windows):
    """Decode positions lo..hi (inclusive) of each encoded sentence, from
    a zero initial carry, with (lo, hi) the matching entry of windows;
    the decoder chains of the batch step together.

    Full-sentence inference is the lo=0, hi=n-1 case; training windows
    pass lo = max(0, i - v_d), hi = i.
    """
    for enc, (lo, hi) in zip(encs, windows):
        n = len(enc.dec_inputs)
        if not (0 <= lo <= hi < n):
            raise ValueError("window [%d, %d] out of range for %d positions" % (lo, hi, n))
    if spec.arch == MESNIL:
        # positions are independent: classify all of a sentence's
        # positions in one product and slice, so a position's
        # distribution has the same bits whichever window asks for it
        return [DecodeRun(dists=SoftmaxOutput.step(params["mesnil_out"],
                                                   enc.dec_inputs)[lo : hi + 1], lo=lo, hi=hi)
                for enc, (lo, hi) in zip(encs, windows)]
    runs = run_chain(cell_for(spec.decoder_cell), params["decoder"], params["decoder_out"],
                     [enc.dec_inputs[lo : hi + 1] for enc, (lo, hi) in zip(encs, windows)],
                     extras=[enc.extra for enc in encs])
    return [DecodeRun(dists=run.dists, lo=lo, hi=hi, run=run)
            for run, (lo, hi) in zip(runs, windows)]


def decode_window(spec, params, enc, lo, hi):
    """decode_batch of the one window lo..hi of enc."""
    return decode_batch(spec, params, [enc], [(lo, hi)])[0]


def backward_window(spec, params, enc, dec, dlogits, acc):
    """Adjoint of decode_window given the window's (hi - lo + 1, O) logit
    grads; writes the decoder's parameter gradients into acc with put_grad.
    Returns the gradients on rows dec.lo..dec.hi of enc.dec_inputs and on
    the extra term (None without one)."""
    if spec.arch == MESNIL:
        window = enc.dec_inputs[dec.lo : dec.hi + 1]
        return SoftmaxOutput.backward_from_logits(
            params["mesnil_out"], window, dlogits, acc["mesnil_out"]), None
    return chain_backward(cell_for(spec.decoder_cell), params["decoder"], params["decoder_out"],
                          dec.run, acc["decoder"], acc["decoder_out"], dlogits=dlogits)


def backward_encode(spec, params, enc, d_inputs, dextra, acc):
    """Adjoint of encode given the (n, ·) gradient on enc.dec_inputs and the
    one on the extra term: runs each encoder's BPTT once, into acc.  Returns
    the (n, I) input gradient: basic and contextual add into d_inputs."""
    if spec.arch == BASIC:
        return d_inputs
    cell = cell_for(spec.encoder_cell)

    def bptt(name, run, dstates):
        out = name + "_out"   # the Jordan family's own output layer, if any
        return chain_backward(cell, params[name], params.get(out), run, acc[name],
                              acc.get(out), dstates=dstates)[0]

    if spec.arch == CONTEXTUAL:
        # every decoder step received S @ c_n, so dextra sums them all
        put_grad(acc["context"], "S", np.outer(dextra, enc.c_n))
        dstates = np.zeros_like(enc.enc_fwd.states)
        dstates[-1] = params["context"]["S"].T @ dextra
        d_inputs += bptt("encoder_fwd", enc.enc_fwd, dstates)
        return d_inputs
    dl, dr = _scatter_beta_grads(d_inputs, spec.context_k)
    dxs = bptt("encoder_fwd", enc.enc_fwd, dl)
    # the backward encoder ran over xs[::-1]: flip its grads in and out
    dxs += bptt("encoder_bwd", enc.enc_bwd, dr[::-1])[::-1]
    return dxs


def forward_batch(spec, params, xss):
    """Whole-sentence distributions of every sentence of the batch
    (encode + a single decode pass each), bitwise what each sentence
    gets alone."""
    encs = encode_batch(spec, params, xss)
    return [dec.dists for dec in
            decode_batch(spec, params, encs, [(0, len(enc.xs) - 1) for enc in encs])]


def argmax_tags(dists, tagset):
    """Argmax decoding; ties resolve to the lowest tag index."""
    return [tagset[k] for k in np.argmax(dists, axis=1)]
