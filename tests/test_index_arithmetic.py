"""The array index arithmetic of the context stack, its gradient scatter
and the embedding-row scatter, against naive per-position loops kept
here as the reference.

Values are small integers, so every sum is exact whatever its order and
the array versions must match the loops bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger.architectures import _beta, _scatter_beta_grads
from rnntagger.representation import InputEncoding
from rnntagger.training import _embedding_grads


def ints(seed, *shape):
    return np.random.default_rng(seed).integers(-3, 4, size=shape).astype(np.float64)


def naive_beta(l, r, i, k):
    n, width = l.shape
    parts = []
    for j in range(i - k, i + 1):
        parts.append(l[j] if 0 <= j < n else np.zeros(width))
    for j in range(i, i + k + 1):
        parts.append(r[j] if 0 <= j < n else np.zeros(width))
    return np.concatenate(parts)


def naive_scatter(dbeta, lo, n, k, width):
    dl, dr = np.zeros((n, width)), np.zeros((n, width))
    for wi, row in enumerate(dbeta):
        i = lo + wi
        at = 0
        for j in range(i - k, i + 1):
            if 0 <= j < n:
                dl[j] += row[at : at + width]
            at += width
        for j in range(i, i + k + 1):
            if 0 <= j < n:
                dr[j] += row[at : at + width]
            at += width
    return dl, dr


def naive_embedding_grads(word_indices, dxs, v_c, block, dim):
    n = len(dxs)
    rows = {}
    for p, dx in enumerate(dxs):
        if not np.any(dx):
            continue
        for k in range(2 * v_c + 1):
            sp = p + k - v_c
            if not 0 <= sp < n:
                continue
            g = dx[k * block : k * block + dim]
            row = word_indices[sp]
            rows[row] = rows[row] + g if row in rows else g.copy()
    return rows


@st.composite
def stacks(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, 4))            # k >= n pads every slot of some stacks
    width = draw(st.integers(1, 3))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    return n, k, width, lo, hi, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_context_stack_matches_per_position_concatenation(case):
    n, k, width, _, _, seed = case
    l, r = ints(seed, n, width), ints(seed + 1, n, width)
    beta = _beta(l, r, k)
    assert beta.shape == (n, 2 * (k + 1) * width)
    for i in range(n):
        assert np.array_equal(beta[i], naive_beta(l, r, i, k))


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_context_stack_scatter_matches_per_slice_adds(case):
    n, k, width, lo, hi, seed = case
    dbeta = ints(seed, hi - lo + 1, 2 * (k + 1) * width)
    dl, dr = _scatter_beta_grads(dbeta, lo, n, k)
    want_l, want_r = naive_scatter(dbeta, lo, n, k, width)
    assert np.array_equal(dl, want_l)
    assert np.array_equal(dr, want_r)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_embedding_grads_match_per_slot_loop(n, v_c, dim, features, seed, sparse):
    block = dim + features
    dxs = ints(seed, n, (2 * v_c + 1) * block)
    if sparse:
        dxs[::2] = 0.0                       # positions no gradient reached
    word_indices = [int(i) for i in np.random.default_rng(seed).integers(0, 4, size=n)]
    enc_in = InputEncoding(xs=None, word_indices=word_indices, block=block, v_c=v_c, dim=dim)
    got = _embedding_grads(enc_in, dxs)
    want = naive_embedding_grads(word_indices, dxs, v_c, block, dim)
    # the two may differ in which rows with an all-zero gradient they
    # list; adding zero changes no row, so a missing row counts as zero
    assert set(got) <= set(word_indices)
    zero = np.zeros(dim)
    for row in set(got) | set(want):
        assert np.array_equal(got.get(row, zero), want.get(row, zero))
