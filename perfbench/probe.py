"""How fast the machine runs right now, measured by a fixed loop the
benchmark owns.

On a shared 2-vCPU VM the whole CPU slows down and speeds up by up to
±25% over tens of seconds to minutes. The CPU time of a fixed loop rises
with its wall time, and steal time stays near zero. A median over the
units of one run cannot remove a slow phase that lasts the whole run.

The probe runs on a timer signal every INTERVAL_S seconds while the
benchmark measures, so its samples are spread evenly over the measured
time. Its own time is left out of every timing the benchmark takes,
through `clock()`. The slowdown around a timed interval is the median
of the probe samples nearest to it divided by REFERENCE_S, and the run's
slowdown the median of all of them. The benchmark divides each timing by
the slowdown around it, so it reads in reference seconds: the time the
work would take with the machine at its reference speed.

The loop mixes what the program spends its time on: 100x693 and 100x100
matvecs with an elementwise sigmoid, as in a tagger step, and scalar dot
products of 50-wide rows with a dict of gradients, as in a negative
sample. It imports nothing from the program, so a change to the program
cannot move it.
"""

import contextlib
import math
import signal
import statistics
import time

import numpy as np

# median probe time on the machine the benchmark was defined on: a 2-vCPU
# Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4 with one OpenBLAS thread
REFERENCE_S = 0.0028
INTERVAL_S = 0.25
STEPS = 20
ROUNDS = 4
PAIRS = 300
LOCAL_SAMPLES = 9


class Probe:
    reference_s = REFERENCE_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self._u = rng.standard_normal((100, 693)) * 0.01
        self._v = rng.standard_normal((100, 100)) * 0.01
        self._xs = [rng.standard_normal(693) for _ in range(STEPS)]
        self._rows = rng.standard_normal((500, 50)) * 0.1
        self._pairs = [(int(i), int(j)) for i, j in rng.integers(2, 500, (PAIRS, 2))]
        self.samples = []
        self.stamps = []         # clock() at each sample
        self.probe_s = 0.0       # time spent probing so far

    def _loop(self):
        for _ in range(ROUNDS):
            h = np.zeros(100)
            tape = []
            for x in self._xs:
                h = 1.0 / (1.0 + np.exp(-(self._u @ x + self._v @ h)))
                tape.append({"h": h, "x": x})
        grads = {}
        for i, j in self._pairs:
            p = 1.0 / (1.0 + math.exp(-float(self._rows[i] @ self._rows[j])))
            g = (p - 1.0) * self._rows[j]
            grads[i] = grads[i] + g if i in grads else g

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._loop()
        spent = time.perf_counter() - start
        self.samples.append(spent)
        self.stamps.append(start - self.probe_s)
        self.probe_s += spent

    def clock(self):
        """time.perf_counter() without the time spent in the probe."""
        probe_s = self.probe_s
        return time.perf_counter() - probe_s

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self):
        """Median probe time over the run relative to REFERENCE_S."""
        return statistics.median(self.samples) / self.reference_s

    def local_slowdown(self, start, end):
        """Median of the LOCAL_SAMPLES probe samples nearest to the clock()
        interval [start, end] (all of them, if more fall inside it),
        relative to REFERENCE_S."""
        near = sorted(zip(self.stamps, self.samples),
                      key=lambda st: max(0.0, start - st[0], st[0] - end))
        inside = sum(1 for stamp, _ in near if start <= stamp <= end)
        chosen = near[:max(LOCAL_SAMPLES, inside)]
        return statistics.median(s for _, s in chosen) / self.reference_s
