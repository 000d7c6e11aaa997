"""Test statistics and their exact expectations.

All statistics are symmetric: they depend on a batch only through its
frequency vector, so any relabeling of the domain leaves them unchanged.

The TV statistic is accumulated in exact integer arithmetic,
``sum_i |n*X_i - m| / (2*m*n)``, so no precision is lost even when the
sublinear signal scale ``eps^2 m^2 / n^2`` is tiny; the rational value is
exposed for identity checks.  ``tv_statistics`` takes the numerators of
several batches, or of the rows of a stacked count array, in one numpy
pass; ``tv_statistic`` is its one-batch case.  The chi-square statistic
sums its float terms as one exact integer over their common power-of-two
denominator, so it is rounded once.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import stats as sps

from .distributions import SampleBatch

__all__ = [
    "tv_statistic",
    "tv_statistics",
    "tv_statistic_fraction",
    "empty_bucket_count",
    "collision_statistic",
    "chi2_statistic",
    "exact_uniform_mean",
    "GapRegime",
    "expectation_gap",
]


def _tv_numerators(counts: np.ndarray, totals: list[int]) -> list[int]:
    """Exact integer ``sum_i |n*X_i - m|`` of each row of a ``(k, n)`` count array.

    ``totals`` are the k row totals m; each result is that row's TV statistic
    times ``2*m*n``.
    """
    if min(totals) < 1:
        raise ValueError("tv statistic needs at least one sample")
    n = counts.shape[1]
    if 2 * n * max(totals) >= 2**63:
        # wide-integer path: each term is at most n*m and the sum at most 2*n*m,
        # so below this bound int64 cannot wrap
        return [sum(abs(n * c - m) for c in row) for row, m in zip(counts.tolist(), totals)]
    return np.abs(n * counts - np.array(totals)[:, None]).sum(axis=1).tolist()


def tv_statistics(batches: np.ndarray | Sequence[SampleBatch]) -> list[float]:
    """The TV statistic of each row of a ``(k, n)`` count array, or of each batch
    (all on one domain), in one stacked pass.

    Each value equals ``tv_statistic`` of its batch bit for bit.
    """
    if isinstance(batches, np.ndarray):
        counts = batches
        if counts.dtype != np.int64 or counts.ndim != 2 or counts.size == 0 or counts.min() < 0:
            raise ValueError("counts must be a nonempty (k, n) int64 array of nonnegative counts")
        if int(counts.max()) * counts.shape[1] < 2**63:
            totals = counts.sum(axis=1).tolist()
        else:  # wide-integer path: a row sum could wrap
            totals = [sum(row) for row in counts.tolist()]
    else:
        totals = [b.m for b in batches]
        counts = np.array([b.counts for b in batches])  # raises unless one domain
    n = counts.shape[1]
    return [num / (2 * m * n) for num, m in zip(_tv_numerators(counts, totals), totals)]


def tv_statistic(batch: SampleBatch) -> float:
    """TV distance between the empirical distribution and uniform.

    Returns ``(1/2) sum_i |X_i/m - 1/n|`` with a single rounding at the end.
    """
    m = batch.m
    return _tv_numerators(batch.counts[None, :], [m])[0] / (2 * m * batch.n)


def tv_statistic_fraction(batch: SampleBatch) -> Fraction:
    """The TV statistic as an exact rational (denominator divides 2*m*n)."""
    m = batch.m
    return Fraction(_tv_numerators(batch.counts[None, :], [m])[0], 2 * m * batch.n)


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
    Each distinct count's term is a float a/d with d a power of two, so
    the terms times their multiplicities sum to one exact integer over the
    largest d, rounded once: the float ``math.fsum`` of all n terms gives.
    """
    if not (m_rate > 0 and math.isfinite(m_rate)):
        raise ValueError(f"chi2 rate must be finite and > 0, got {m_rate!r}")
    expected = m_rate / batch.n
    values, mult = np.unique(batch.counts, return_counts=True)
    c = values.astype(np.float64)
    terms = ((c - expected) ** 2 - c) / expected
    if not np.all(np.isfinite(terms)):
        # an inf or nan term: fsum of every term keeps its semantics
        return math.fsum(np.repeat(terms, mult).tolist())
    ratios = [t.as_integer_ratio() for t in terms.tolist()]
    den = max(d for _, d in ratios)
    return sum(k * a * (den // d) for k, (a, d) in zip(mult.tolist(), ratios)) / den


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
