"""Reference kernels: fixed code, outside the package, timed between rounds.

The machine this benchmark was defined on changes speed by up to 1.7x over
seconds to minutes (other tenants share its cores), so raw operations per
second drift from one run to the next.  Each workload has a kernel doing the
same kind of work as its hot path, with numpy and plain Python only.  Timed
between rounds, it measures the machine's speed at that moment for that kind
of work; ``ops_per_ref`` divides it out.  The kernels never call the package,
so a change to the package moves ``ops_per_ref`` and leaves the kernels alone.
"""

from __future__ import annotations

import math
import time

import numpy as np

SAMPLE_S = 0.02   # each sample repeats the kernel for at least this long


def _headline(g: np.random.Generator) -> None:
    # one tester run at n=1000: m0=9 multinomial batches of m=7784, TV numerator
    probs = np.full(1000, 1e-3)
    for _ in range(9):
        counts = g.multinomial(7784, probs)
        int(np.abs(1000 * counts - 7784).sum())


def _identity(g: np.random.Generator) -> None:
    # one reduced batch: m=53,587 samples on 200 elements spread over 1200 cells
    m, n = 53_587, 200
    samples = g.integers(0, n, size=m)
    mixed = np.where(g.random(m) < 0.5, samples, g.integers(0, n, size=m))
    cell = 6 * mixed + g.integers(0, np.full(m, 5))
    mapped = np.where(g.random(m) < 0.9, cell, g.integers(0, 1200, size=m))
    np.bincount(mapped, minlength=1200)


_N = 10**4
_HEAVY = np.full(_N, (1.0 - 0.01) / (_N - 1))
_HEAVY[0] = 0.01
_ACCEPT = np.minimum(_HEAVY * _N, 1.0)


def _barrier(g: np.random.Generator) -> None:
    # alias draws with collision and TV counts, then a Poissonized chi-square
    for m in (400, 1600, 6400):
        idx = g.integers(0, _N, size=m)
        counts = np.bincount(np.where(g.random(m) >= _ACCEPT[idx], 0, idx), minlength=_N)
        int((counts * (counts - 1)).sum())
        int(np.abs(_N * counts - m).sum())
        x = g.poisson(m * _HEAVY).astype(np.float64)
        rate = m / _N
        math.fsum((((x - rate) ** 2 - x) / rate).tolist())


def _oracles(g: np.random.Generator) -> None:
    # many tiny-array evaluations, as in the pair loop of the reduction scan
    for d in range(1, 9):
        for a in range(d + 1):
            for b in range(d + 1 - a):
                p = np.array([a / d, b / d, (d - a - b) / d])
                qbar = 0.5 * (p + 1.0 / 3)
                cells = np.floor(18 * qbar).astype(np.int64)
                out = np.repeat(np.where(cells > 0, qbar / np.maximum(cells, 1), 0.0), cells)
                math.fsum(np.abs(out - 1.0 / 18).tolist())


KERNELS = {"headline": _headline, "identity": _identity, "barrier": _barrier, "oracles": _oracles}


class Reference:
    """Samples of one kernel call's duration, taken between rounds.

    A workload whose rounds last many seconds may also sample inside a
    round, through :meth:`sampling_before`; ``spent`` lets the caller take
    that time out of the round's.
    """

    def __init__(self, workload: str, every_s: float = 1.0):
        self.kernel = KERNELS[workload]
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0   # total time spent sampling
        self._rng = np.random.Generator(np.random.Philox(0))
        self._last = -math.inf

    def sample(self) -> None:
        """Record the mean duration of one kernel call over one sample."""
        t0 = t1 = time.perf_counter()
        calls = 0
        while t1 - t0 < SAMPLE_S:
            self.kernel(self._rng)
            calls += 1
            t1 = time.perf_counter()
        self.samples.append((t1 - t0) / calls)
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample if ``every_s`` seconds have passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def sampling_before(self, fn):
        """Wrapper that may take a sample before each call of ``fn``."""
        def wrapper(*args, **kwargs):
            self.maybe_sample()
            return fn(*args, **kwargs)
        return wrapper
