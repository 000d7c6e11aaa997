"""Test statistics and their exact expectations.

All statistics are symmetric: they depend on a batch only through its
frequency vector, so any relabeling of the domain leaves them unchanged.

The TV statistic is accumulated in exact integer arithmetic,
``sum_i |n*X_i - m| / (2*m*n)``, so no precision is lost even when the
sublinear signal scale ``eps^2 m^2 / n^2`` is tiny; the rational value is
exposed for identity checks.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import stats as sps

from .distributions import SampleBatch

__all__ = [
    "tv_statistic",
    "tv_statistic_fraction",
    "empty_bucket_count",
    "collision_statistic",
    "chi2_statistic",
    "exact_uniform_mean",
    "GapRegime",
    "expectation_gap",
]


def _tv_numerator(batch: SampleBatch) -> int:
    """Exact integer ``sum_i |n*X_i - m|`` (the TV statistic times 2*m*n)."""
    counts = batch.counts
    n = batch.n
    m = batch.m
    if 2 * n * m >= 2**63:
        # wide-integer path: each term is at most n*m and the sum at most 2*n*m,
        # so below this bound int64 cannot wrap
        return sum(abs(n * c - m) for c in counts.tolist())
    return int(np.abs(n * counts - m).sum())


def tv_statistic(batch: SampleBatch) -> float:
    """TV distance between the empirical distribution and uniform.

    Returns ``(1/2) sum_i |X_i/m - 1/n|`` with a single rounding at the end.
    """
    m = batch.m
    if m < 1:
        raise ValueError("tv statistic needs at least one sample")
    return _tv_numerator(batch) / (2 * m * batch.n)


def tv_statistic_fraction(batch: SampleBatch) -> Fraction:
    """The TV statistic as an exact rational (denominator divides 2*m*n)."""
    m = batch.m
    if m < 1:
        raise ValueError("tv statistic needs at least one sample")
    return Fraction(_tv_numerator(batch), 2 * m * batch.n)


def empty_bucket_count(batch: SampleBatch) -> int:
    """Number of domain elements with zero occurrences."""
    return int(np.count_nonzero(batch.counts == 0))


def collision_statistic(batch: SampleBatch) -> int:
    """Number of colliding sample pairs, ``sum_i X_i (X_i - 1) / 2``, exact."""
    counts = batch.counts
    if batch.m >= 2**31:
        # wide-integer path: elementwise products would overflow int64
        return sum(int(c) * (int(c) - 1) for c in counts) // 2
    return int((counts * (counts - 1)).sum()) // 2


def chi2_statistic(batch: SampleBatch, m_rate: float) -> float:
    """Poissonized chi-square statistic.

    ``sum_i ((X_i - m_rate/n)^2 - X_i) / (m_rate/n)`` where ``m_rate`` is
    the Poisson sampling rate (which may differ from the realized total).
    """
    if m_rate <= 0:
        raise ValueError("chi2 rate must be > 0")
    expected = m_rate / batch.n
    c = batch.counts.astype(np.float64)
    terms = ((c - expected) ** 2 - c) / expected
    return math.fsum(terms.tolist())


@lru_cache(maxsize=4096)
def exact_uniform_mean(n: int, m: int) -> float:
    """Exact expectation of the TV statistic under the uniform distribution.

    By linearity this is ``(n/2) * E|K/m - 1/n|`` for ``K ~ Binomial(m, 1/n)``.
    The binomial pmf is evaluated in log space over a window around the mean
    wide enough that the excluded tail mass is below 1e-18 relative; the
    window is widened until the included mass certifies that bound.
    """
    if n < 2:
        raise ValueError("domain size must be >= 2")
    if m < 1:
        raise ValueError("sample count must be >= 1")
    p = 1.0 / n
    mean = m * p
    sd = math.sqrt(m * p * (1.0 - p))
    half_width = 40.0 * sd + 200.0
    while True:
        lo = max(0, int(math.floor(mean - half_width)))
        hi = min(m, int(math.ceil(mean + half_width)))
        k = np.arange(lo, hi + 1)
        pmf = np.exp(sps.binom.logpmf(k, m, p))
        mass = math.fsum(pmf.tolist())
        if mass >= 1.0 - 1e-15 or (lo == 0 and hi == m):
            break
        half_width *= 2.0
    terms = pmf * np.abs(k / m - p)
    return (n / 2.0) * math.fsum(terms.tolist())


class GapRegime(enum.Enum):
    """Which case of the expectation-gap schedule applies to (n, m, xi)."""

    SUBLINEAR = "sublinear"       # m <= n
    SUPERLINEAR = "superlinear"   # n < m <= n / xi^2
    SUPERLEARNING = "superlearning"  # m > n / xi^2


def expectation_gap(n: int, m: int, xi: float, C: float) -> tuple[GapRegime, float]:
    """Lower bound on E[S] - mu(U_n) for a distribution xi-far from uniform.

    Returns the regime tag and ``R``::

        R = C * xi^2 * m^2 / n^2     if m <= n
        R = C * xi^2 * sqrt(m / n)   if n < m <= n / xi^2
        R = C * xi                   if m > n / xi^2

    The schedule is continuous in m at both regime boundaries.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    if C <= 0:
        raise ValueError("gap constant must be > 0")
    if m < 6 or n < 2:
        raise ValueError("gap schedule requires m >= 6 and n >= 2")
    if m <= n:
        return GapRegime.SUBLINEAR, C * xi * xi * (m / n) * (m / n)
    if m <= n / (xi * xi):
        return GapRegime.SUPERLINEAR, C * xi * xi * math.sqrt(m / n)
    return GapRegime.SUPERLEARNING, C * xi
