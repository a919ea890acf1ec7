import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnntagger import linalg
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
