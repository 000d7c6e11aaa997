"""Replicable uniformity tester and the identity reduction.

The main tester compares the median of several TV statistics against a
random threshold ``mu(U_n) + r0 * R`` where ``r0 ~ Unif(1/4, 3/4)`` comes
from the internal coin stream and ``R`` is the expectation-gap schedule.
Fixing the internal stream fixes the threshold; sample randomness only
enters through the median statistic, which is what makes the two-run
replicability protocol meaningful.

The collision and chi-square statistics of the heavy-element barrier study
are sampled and compared in :mod:`repunif.harness`, not here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Union

import numpy as np

# draw_batch stays bound here too: perfbench's tests look it up on this module
from .distributions import Pmf, SampleBatch, draw_batch, draw_batches  # noqa: F401
from .rng import SeedSplit
from .stats import GapRegime, exact_uniform_mean, expectation_gap, tv_statistics

__all__ = [
    "TesterParams",
    "Verdict",
    "derive_sizes",
    "run_tester",
    "IdentityReducer",
    "run_identity_tester",
]

# The band of the threshold coin r0, drawn uniformly from the internal stream.
R0_LOW, R0_HIGH = 0.25, 0.75

# An oracle maps (batch size, rng) to one SampleBatch.
BatchOracle = Callable[[int, np.random.Generator], SampleBatch]


@dataclass(frozen=True)
class TesterParams:
    """Domain size, tolerances, and the calibrated constants.

    ``m = ceil(c_m1 * sqrt(n)/(rho eps^2) * sqrt(ln(n/rho)) + c_m2/(rho^2 eps^2))``
    floored at 6, and ``m0`` is the smallest odd integer >= ``c_m0 * ln(4/rho)``.
    """

    n: int
    eps: float
    rho: float
    c_m1: float = 1.0
    c_m2: float = 1.0
    c_m0: float = 3.0
    c_gap: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("domain size must be >= 2")
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        if not 0.0 < self.rho < 0.5:
            raise ValueError("rho must lie in (0, 1/2)")
        for name in ("c_m1", "c_m2", "c_m0", "c_gap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @classmethod
    def from_constants(cls, n: int, eps: float, rho: float, constants) -> "TesterParams":
        return cls(n=n, eps=eps, rho=rho, c_m1=constants["c_m1"],
                   c_m2=constants["c_m2"], c_m0=constants["c_m0"],
                   c_gap=constants["c_gap"])


def derive_sizes(params: TesterParams) -> tuple[int, int]:
    """Batch size m and repetition count m0 (odd) from the size formulas."""
    n, eps, rho = params.n, params.eps, params.rho
    raw = (
        params.c_m1 * (math.sqrt(n) / (rho * eps * eps)) * math.sqrt(math.log(n / rho))
        + params.c_m2 / (rho * rho * eps * eps)
    )
    m = max(6, math.ceil(raw))
    k = max(1, math.ceil(params.c_m0 * math.log(4.0 / rho)))
    m0 = k if k % 2 == 1 else k + 1
    return m, m0


@dataclass(frozen=True)
class Verdict:
    """One tester decision with every intermediate needed to replay it."""

    decision: str            # "accept" | "reject"
    statistic: float         # median TV statistic
    threshold: float
    r0: float                # the Unif(1/4, 3/4) coin from the internal stream
    regime: GapRegime
    mu_uniform: float
    gap: float
    n: int
    m: int
    m0: int
    kind: str                # "tv-median"

    @property
    def accept(self) -> bool:
        return self.decision == "accept"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["regime"] = self.regime.value
        return d


def _schedule(params: TesterParams) -> tuple[int, int, float, GapRegime, float]:
    """Batch size m, repetition count m0, ``mu(U_n)`` and the gap's regime and R."""
    m, m0 = derive_sizes(params)
    regime, gap = expectation_gap(params.n, m, params.eps, params.c_gap)
    return m, m0, exact_uniform_mean(params.n, m), regime, gap


def run_tester(p_access: Union[Pmf, BatchOracle], params: TesterParams, seeds: SeedSplit) -> Verdict:
    """The replicable uniformity tester.

    Draws m0 batches of m samples from the sample stream, takes the median
    of their TV statistics (computed in one stacked pass), and accepts iff
    it falls below
    ``mu(U_n) + r0 * R`` with ``r0`` the first draw of the internal stream.
    An explicit ``Pmf`` gives all m0 batches in one ``draw_batches`` call;
    a callable oracle is called once per batch.
    """
    m, m0, mu, regime, gap = _schedule(params)
    r0 = float(seeds.internal.uniform(R0_LOW, R0_HIGH))
    threshold = mu + r0 * gap
    if isinstance(p_access, Pmf):
        if p_access.n != params.n:
            raise ValueError(f"pmf is on [{p_access.n}] but the tester's domain is [{params.n}]")
        batches = draw_batches(p_access, m, m0, seeds.sample)
    else:
        batches = []
        for _ in range(m0):
            batch = p_access(m, seeds.sample)
            if batch.n != params.n:
                raise ValueError("oracle produced a batch on the wrong domain")
            batches.append(batch)
    s_median = sorted(tv_statistics(batches))[m0 // 2]
    decision = "accept" if s_median < threshold else "reject"
    return Verdict(
        decision=decision, statistic=s_median, threshold=threshold, r0=r0,
        regime=regime, mu_uniform=mu, gap=gap, n=params.n, m=m, m0=m0,
        kind="tv-median",
    )


class IdentityReducer:
    """Randomized per-sample map taking q-identity testing to uniformity.

    Built once from the reference distribution q on [n].  Each input sample
    is mixed with uniform (probability 1/2 each way), then spread over the
    cell block assigned to the mixed element, or over the shared overflow
    block, inside a domain of size 6n.  Feeding samples of q itself makes
    the output exactly uniform on [6n]; a p that is eps-far from q maps to
    an output at least eps/3-far from uniform.

    Mapped samples are i.i.d., so for an explicit p a reduced batch is one
    multinomial draw from ``pushforward(p)``; ``map_many`` maps the samples
    of a black-box oracle one by one.  Table construction and
    ``pushforward`` are O(n); each mapped sample costs O(1).
    """

    def __init__(self, q: Pmf):
        n = q.n
        big = 6 * n
        qbar = 0.5 * (q.probs + 1.0 / n)
        cells = np.floor(big * qbar).astype(np.int64)  # >= 2 per element
        self.q = q
        self.n = n
        self.big = big
        self.cells = cells
        self.start = np.concatenate(([0], np.cumsum(cells)[:-1]))
        self.used = int(cells.sum())
        self.overflow = big - self.used
        spread = cells / (big * qbar)
        if self.overflow == 0:
            # all blocks exact: the overflow branch must have probability 0
            spread = np.ones_like(spread)
        self.spread = spread

    def pushforward(self, p: Pmf) -> Pmf:
        """The exact law on [6n] of one mapped sample of p."""
        if p.n != self.n:
            raise ValueError(f"p is on [{p.n}] but the reducer's q is on [{self.n}]")
        pbar = 0.5 * (p.probs + 1.0 / self.n)
        out = np.empty(self.big, dtype=np.float64)
        out[:self.used] = np.repeat(pbar * self.spread / self.cells, self.cells)
        if self.overflow > 0:
            out[self.used:] = math.fsum((pbar * (1.0 - self.spread)).tolist()) / self.overflow
        return Pmf(out)

    def map_many(self, samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Map 0-based samples of [n], each independently, to 0-based elements of [6n]."""
        m = samples.shape[0]
        if m and (int(samples.min()) < 0 or int(samples.max()) >= self.n):
            raise ValueError(f"samples must lie in [0, {self.n})")
        keep = rng.random(m) < 0.5
        replacement = rng.integers(0, self.n, size=m)
        mixed = np.where(keep, samples, replacement)
        in_block = rng.random(m) < self.spread[mixed]
        cell = self.start[mixed] + rng.integers(0, self.cells[mixed])
        if self.overflow > 0:
            over = self.used + rng.integers(0, self.overflow, size=m)
        else:
            over = cell
        return np.where(in_block, cell, over).astype(np.int64)


def run_identity_tester(p_access, q: Pmf, params: TesterParams, seeds: SeedSplit) -> Verdict:
    """Test p = q vs TV(p, q) >= eps by reduction to uniformity on [6n].

    ``params`` describes the original problem (domain n, tolerance eps); the
    reduced tester runs on domain 6n with tolerance eps/3 and the same rho.
    An explicit ``Pmf`` p is sampled at count level: the reduced batches
    are drawn from the reducer's pushforward of p.  A callable
    ``p_access(m, rng)`` returns m raw 0-based samples, which are mapped one
    by one.  Reduction randomness is drawn from the sample stream: it does
    not need to be shared across paired runs.
    """
    if params.n != q.n:
        raise ValueError("params.n must match q's domain")
    reducer = IdentityReducer(q)
    reduced_params = replace(params, n=reducer.big, eps=params.eps / 3.0)
    if isinstance(p_access, Pmf):
        return run_tester(reducer.pushforward(p_access), reduced_params, seeds)

    def reduced_oracle(m, rng):
        raw = p_access(m, rng)
        mapped = reducer.map_many(np.asarray(raw, dtype=np.int64), rng)
        return SampleBatch(np.bincount(mapped, minlength=reducer.big))

    return run_tester(reduced_oracle, reduced_params, seeds)
