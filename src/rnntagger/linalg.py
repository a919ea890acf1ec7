"""Small dense-numerics layer shared by every model component.

Vectors and matrices are plain float64 numpy arrays; the helpers here
exist to pin down numerically safe nonlinearities, the window layout
and a platform-independent RNG so that every run of the toolkit is
bit-for-bit reproducible from a seed.
"""

import ctypes
import functools
import math
import numbers
import os

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4B7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def is_int(value):
    """An integer that is not a bool: a size read as 1.0 or true from a
    file is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_size(field, value, least):
    """value, if it is an integer (not a bool) >= least.  Every size of
    the toolkit is refused here, in one wording led by its field."""
    if not is_int(value) or value < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (field, least, value))
    return value


def check_rate(field, value):
    """value, if it is a real number (not a bool), finite and above 0."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise ValueError("%s must be finite and > 0, got %r" % (field, value))
    return value


@functools.cache
def _openblas_thread_fns():
    """(get, set) of the OpenBLAS thread count bundled with numpy's wheel,
    found with ctypes once; None when numpy ships no such library."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libdir) if "openblas" in f)
    except OSError:
        return None
    for fname in names:
        try:
            lib = ctypes.CDLL(os.path.join(libdir, fname))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, prefix + "get_num_threads" + suffix, None)
            put = getattr(lib, prefix + "set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


def one_blas_thread(fn):
    """fn with BLAS on one thread, the count it found restored on return: a
    product split across threads rounds differently, and seeded runs must
    write the same bytes whatever the machine's thread count.  The
    library's entry points into BLAS wear it; inside another pin, or with
    no OpenBLAS, it finds nothing to set and costs one call."""
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        fns = _openblas_thread_fns()
        previous = fns[0]() if fns else 1
        if previous == 1:
            return fn(*args, **kwargs)
        fns[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            fns[1](previous)
    return pinned


def _mix_scalar(z):
    # SplitMix64 finalizer (Steele, Lea & Flood 2014).
    z = (z ^ (z >> 30)) * MIX1 & MASK64
    z = (z ^ (z >> 27)) * MIX2 & MASK64
    return z ^ (z >> 31)


def _mix_array(z):
    # uint64 array ops wrap silently, matching the masked scalar path
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


class SeededRng:
    """Deterministic SplitMix64 stream.

    The same seed yields the same sequence on every platform, and the
    vectorized draws reproduce the scalar sequence exactly: uniform(n)
    returns what n successive uniform_scalar() calls would.
    """

    def __init__(self, seed):
        self._state = int(seed) & MASK64

    def next_u64(self):
        self._state = (self._state + GOLDEN) & MASK64
        return _mix_scalar(self._state)

    def uniform(self, n, low=0.0, high=1.0):
        """n floats in [low, high), drawn as a single batch."""
        if n < 0:
            raise ValueError("uniform: n must be >= 0, got %d" % n)
        ks = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + ks * np.uint64(GOLDEN)
        bits = _mix_array(states)
        self._state = (self._state + n * GOLDEN) & MASK64
        u = (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return low + u * (high - low)

    def uniform_scalar(self):
        """One float in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n):
        """Uniform int in [0, n). Plain modulo: every n here (vocab sizes,
        window widths) is tiny relative to 2^64, so the bias is below
        measurement."""
        if n <= 0:
            raise ValueError("randint: n must be positive, got %d" % n)
        return self.next_u64() % n

    def shuffle(self, xs):
        """In-place Fisher-Yates on a list."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def sigmoid(x):
    """Elementwise logistic function of a float64 array, overflow-safe:
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from the
    one exponential e^-|x|, which cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def rowwise(C, M):
    """M @ c for every row c of C, or for C itself when it is a vector.

    This is deliberately not the one GEMM C @ Mᵀ: BLAS gives a row of a
    GEMM different last bits depending on the height of the matrix and
    even on the row's place in it.  The stacked 1 x K products here each
    match the vector product M @ c bitwise, so a sentence's recurrence has
    the same bits in a batch of any size as it has alone.
    """
    return np.matmul(C[..., None, :], M.T)[..., 0, :]


def windows(padded, width):
    """Row i joins rows i..i + width - 1 of the C-contiguous 2-D padded, which lie
    back to back: a read-only view with padded's strides, its rows overlapping."""
    rows, cols = padded.shape
    view = np.ndarray((rows - width + 1, width * cols), padded.dtype, padded, 0, padded.strides)
    view.flags.writeable = False
    return view


def unwindow(slots):
    """Adjoint of windows: slot k of row i of the (m, width, cols) slots is
    added onto row i + k of an (m + width - 1, cols) zero array, one
    shifted add per slot in slot order."""
    out = np.zeros((len(slots) + slots.shape[1] - 1, slots.shape[2]))
    for k in range(slots.shape[1]):
        out[k : k + len(slots)] += slots[:, k]
    return out


def softmax(x):
    """Softmax of a float64 array over its last axis (each row of a
    matrix), with max-subtraction. Rejects empty input."""
    if x.size == 0:
        raise ValueError("softmax: empty input")
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def uniform_init(rng, shape, radius):
    """Matrix/vector filled from U[-radius, radius)."""
    n = int(np.prod(shape))
    return rng.uniform(n, -radius, radius).reshape(shape)


def glorot_radius(fan_in, fan_out):
    return float(np.sqrt(6.0 / (fan_in + fan_out)))

