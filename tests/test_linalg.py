import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnntagger import linalg, model, pretrain, training
from rnntagger.linalg import SeededRng, sigmoid, softmax


# Reference values computed with mpmath at 40 digits, frozen here.
SIGMOID_1 = 0.7310585786300049
SIGMOID_1_5 = 0.8175744761936437
SIGMOID_0_4 = 0.598687660112452


def test_sigmoid_known_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([1.0]))[0] == pytest.approx(SIGMOID_1, abs=1e-15)
    assert sigmoid(np.array([1.5]))[0] == pytest.approx(SIGMOID_1_5, abs=1e-15)
    assert sigmoid(np.array([0.4]))[0] == pytest.approx(SIGMOID_0_4, abs=1e-15)


def test_sigmoid_extreme_inputs_do_not_overflow():
    v = sigmoid(np.array([-1000.0, 1000.0, -710.0, 710.0]))
    assert v[0] == 0.0
    assert v[1] == 1.0
    assert np.all(np.isfinite(v))


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_sigmoid_symmetry(x):
    s = sigmoid(np.array([x, -x]))
    assert abs(s[0] + s[1] - 1.0) < 1e-15


def masked_sigmoid(x):
    """The boolean-mask formula sigmoid used before, kept as its oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                 2.2e-308, -2.2e-308, 36.7, -36.7, 709.8, -745.2, 800.0, -800.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(SIGMOID_EDGES)), max_size=40),
       st.booleans())
def test_sigmoid_matches_masked_formula_bitwise(values, as_rows):
    x = np.array(values, dtype=np.float64)
    if as_rows and len(x) % 2 == 0:
        x = x.reshape(2, -1)
    got, want = sigmoid(x), masked_sigmoid(x)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 120), st.integers(1, 120), st.integers(0, 2**32))
def test_rowwise_matches_vector_products_bitwise(n_rows, k, h, seed):
    rng = SeededRng(seed)
    m = rng.uniform(h * k, -1, 1).reshape(h, k)
    c = rng.uniform(n_rows * k, -1, 1).reshape(n_rows, k)
    out = linalg.rowwise(c, m)
    assert out.shape == (n_rows, h)
    for row, got in zip(c, out):
        assert np.array_equal(got, m @ row)
    assert np.array_equal(linalg.rowwise(c[0], m), m @ c[0])


@st.composite
def window_cases(draw):
    """(padded, width, slots): slots are the gradients of every row of
    windows(padded, width).  Small integers make every sum exact, so any
    summation order gives the same bits."""
    width = draw(st.integers(1, 4))                 # width 1 is v_c = 0
    n_windows = draw(st.integers(1, 6))             # may be below width
    cols = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    padded = rng.integers(-3, 4, size=(n_windows + width - 1, cols)).astype(np.float64)
    slots = rng.integers(-3, 4, size=(n_windows, width, cols)).astype(np.float64)
    return padded, width, slots


@settings(max_examples=300, deadline=None)
@given(window_cases())
@example((np.arange(6.0).reshape(3, 2), 1, np.ones((3, 1, 2))))      # width 1
@example((np.arange(10.0).reshape(5, 2), 4, np.ones((2, 4, 2))))     # fewer rows than width
def test_windows_and_unwindow_match_row_loops_and_are_adjoint(case):
    padded, width, slots = case
    rows, cols = padded.shape
    got = linalg.windows(padded, width)
    want = np.array([np.concatenate([padded[i + k] for k in range(width)])
                     for i in range(rows - width + 1)])
    assert np.array_equal(got, want)
    assert np.shares_memory(got, padded)
    assert not got.flags.writeable

    back = linalg.unwindow(slots)
    want_back = np.zeros((rows, cols))
    for i in range(len(slots)):
        for k in range(width):
            want_back[i + k] += slots[i, k]
    assert np.array_equal(back, want_back)

    # <windows(P), D> = <P, unwindow(D)>, exactly
    assert np.vdot(got, slots.reshape(len(slots), -1)) == np.vdot(padded, back)


def test_softmax_known_distribution():
    # logits ln(1), ln(2), ln(3) -> probabilities 1/6, 2/6, 3/6
    p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
    assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


def test_softmax_shift_invariance():
    x = np.array([0.1, -2.0, 3.5, 0.0])
    assert np.allclose(softmax(x), softmax(x + 1000.0), atol=1e-12)
    assert np.allclose(softmax(x), softmax(x - 1000.0), atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(np.array([]))


@given(
    st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=20)
)
def test_softmax_simplex(logits):
    p = softmax(np.array(logits))
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)


def test_softmax_rows_match_vectors():
    # a matrix is a stack of independent rows, each its own distribution
    x = SeededRng(3).uniform(12, -5, 5).reshape(3, 4)
    p = softmax(x)
    for row, logits in zip(p, x):
        assert np.array_equal(row, softmax(logits))


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(12345).uniform(10000)
        b = SeededRng(12345).uniform(10000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).uniform(100)
        b = SeededRng(2).uniform(100)
        assert not np.array_equal(a, b)

    def test_bulk_matches_scalar_sequence(self):
        rng = SeededRng(777)
        bulk = rng.uniform(257)
        rng2 = SeededRng(777)
        scalars = np.array([rng2.uniform_scalar() for _ in range(257)])
        assert np.array_equal(bulk, scalars)

    @pytest.mark.parametrize("low, high", [(-0.5, 0.5), (-1e-3, 2e-2), (3.0, 3.0 + 1e-9)])
    def test_bulk_range_is_the_scalar_affine_map(self, low, high):
        bulk = SeededRng(777).uniform(257, low, high)
        rng = SeededRng(777)
        scalars = np.array([low + rng.uniform_scalar() * (high - low) for _ in range(257)])
        assert bulk.tobytes() == scalars.tobytes()

    def test_stream_continues_across_calls(self):
        rng = SeededRng(9)
        first = rng.uniform(5)
        second = rng.uniform(5)
        joined = SeededRng(9).uniform(10)
        assert np.array_equal(np.concatenate([first, second]), joined)

    def test_range_respected(self):
        v = SeededRng(3).uniform(10000, -0.01, 0.01)
        assert np.all(v >= -0.01) and np.all(v < 0.01)

    def test_uniform_roughly_uniform(self):
        v = SeededRng(42).uniform(100000)
        assert abs(v.mean() - 0.5) < 0.01
        assert abs(np.quantile(v, 0.25) - 0.25) < 0.01

    def test_randint_bounds_and_determinism(self):
        rng = SeededRng(5)
        draws = [rng.randint(7) for _ in range(1000)]
        assert min(draws) == 0 and max(draws) == 6
        rng2 = SeededRng(5)
        assert draws == [rng2.randint(7) for _ in range(1000)]

    def test_shuffle_permutes(self):
        xs = list(range(20))
        rng = SeededRng(11)
        rng.shuffle(xs)
        assert sorted(xs) == list(range(20))
        assert xs != list(range(20))

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SeededRng(0).randint(0)


def test_uniform_init_shape_and_radius():
    m = linalg.uniform_init(SeededRng(1), (4, 5), 0.25)
    assert m.shape == (4, 5)
    assert np.all(np.abs(m) <= 0.25)


def test_glorot_radius_value():
    assert linalg.glorot_radius(3, 3) == pytest.approx(1.0)


class BlasPinned(Exception):
    pass


@pytest.mark.parametrize("entry, n_args", [(training.train_epoch, 3),
                                           (training.gradient_check, 3),
                                           (model.tag_corpus, 2),
                                           (pretrain.train_embeddings, 3)])
def test_library_entry_points_pin_blas_to_one_thread_first(monkeypatch, entry, n_args):
    # a thread-count setter that stops the call when asked for one thread:
    # the entry point must get there before it does any work, which on
    # these None arguments would raise something else
    def put(n):
        if n == 1:
            raise BlasPinned

    monkeypatch.setattr(linalg, "_openblas_thread_fns", lambda: (lambda: 4, put))
    with pytest.raises(BlasPinned):
        entry(*[None] * n_args)


def test_nested_blas_pins_restore_the_outer_count(monkeypatch):
    count, seen = [4], []
    monkeypatch.setattr(linalg, "_openblas_thread_fns",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    inner = linalg.one_blas_thread(lambda: seen.append(count[0]))

    @linalg.one_blas_thread
    def outer():
        inner()
        seen.append(count[0])

    outer()
    assert seen == [1, 1]
    assert count == [4]
    with pytest.raises(ZeroDivisionError):
        linalg.one_blas_thread(lambda: 1 / 0)()
    assert count == [4]


def test_blas_pin_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_thread_fns", lambda: None)
    assert linalg.one_blas_thread(lambda x: x + 1)(1) == 2
