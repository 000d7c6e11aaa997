"""Test statistics and their exact expectations.

All statistics are symmetric: they depend on a batch only through its
frequency vector, so any relabeling of the domain leaves them unchanged.

The TV statistic is accumulated in exact integer arithmetic,
``sum_i |n*X_i - m| / (2*m*n)``, so no precision is lost even when the
sublinear signal scale ``eps^2 m^2 / n^2`` is tiny; the rational value is
exposed for identity checks.  One kernel, ``_tv_numerators``, takes these
numerators for every caller: one batch, or the m0 rows of a tester run in
one numpy pass.  At ``m <= n`` a numerator is ``2*m*Z`` with Z the empty
cells (the identity ``S = Z/n``), and the collision count is
``(sum X_i^2 - m) / 2``: one pass each, the same integers.  The
chi-square statistic depends on a batch only through its fingerprint (the
cells holding each distinct count), which ``_chi2_from_fingerprint`` sums:
its float terms times their multiplicities make one exact integer over their
common power-of-two denominator, so it is rounded once.  ``chi2_statistic``
takes the fingerprint of a frequency vector; the barrier study passes the
fingerprints it draws.  ``mu(U_n)``, the uniform-case mean of TV, is one
binomial pmf term by de Moivre's mean-absolute-deviation identity.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

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


def _tv_numerators(rows: np.ndarray, m: int, n: int) -> list[int]:
    """Exact integer ``sum_i |n*X_i - m|`` of each row of a ``(k, g)`` int64 array.

    Each row totals m, on a domain of n >= g cells whose other ``n - g`` cells
    count 0; TV is symmetric, so the columns may come in any order.  Each
    result is that row's TV statistic times ``2*m*n``.  ``rows`` is only read.
    """
    if m < 1:
        raise ValueError("tv statistic needs at least one sample")
    absent = n - rows.shape[1]
    if m <= n:
        # S = Z/n: at m <= n only an empty cell's term is negative, and the
        # terms sum to 0, so the sum of their absolute values is 2*m*Z
        empty = np.count_nonzero(rows == 0, axis=1).tolist()
        return [2 * m * (z + absent) for z in empty]
    if 2 * n * m >= 2**63:
        # wide-integer path: each term is at most n*m and the sum at most 2*n*m,
        # so below this bound int64 cannot wrap
        return [sum(abs(n * c - m) for c in row) + m * absent for row in rows.tolist()]
    terms = rows * n
    terms -= m
    np.abs(terms, out=terms)
    return [num + m * absent for num in terms.sum(axis=1).tolist()]


def tv_statistic(batch: SampleBatch) -> float:
    """TV distance between the empirical distribution and uniform.

    Returns ``(1/2) sum_i |X_i/m - 1/n|`` with a single rounding at the end.
    """
    m, n = batch.m, batch.n
    return _tv_numerators(batch.counts[None, :], m, n)[0] / (2 * m * n)


def tv_statistic_fraction(batch: SampleBatch) -> Fraction:
    """The TV statistic as an exact rational (denominator divides 2*m*n)."""
    m, n = batch.m, batch.n
    return Fraction(_tv_numerators(batch.counts[None, :], m, n)[0], 2 * m * n)


def empty_bucket_count(batch: SampleBatch) -> int:
    """Number of domain elements with zero occurrences."""
    return int(np.count_nonzero(batch.counts == 0))


def collision_statistic(batch: SampleBatch) -> int:
    """Number of colliding sample pairs, ``sum_i X_i (X_i - 1) / 2``, exact."""
    counts = batch.counts
    m = batch.m
    if m >= 2**31:
        # wide-integer path: the sum of squares could overflow int64
        return sum(int(c) * (int(c) - 1) for c in counts) // 2
    # sum X_i (X_i - 1) = sum X_i^2 - m, and sum X_i^2 <= m^2 < 2**62
    return (int(np.dot(counts, counts)) - m) // 2


def chi2_statistic(batch: SampleBatch, m_rate: float) -> float:
    """Poissonized chi-square statistic.

    ``sum_i ((X_i - m_rate/n)^2 - X_i) / (m_rate/n)`` where ``m_rate`` is
    the Poisson sampling rate (which may differ from the realized total).
    It depends on the batch only through its fingerprint, which
    ``_chi2_from_fingerprint`` sums.
    """
    values, mult = np.unique(batch.counts, return_counts=True)
    return _chi2_from_fingerprint(values, mult, batch.n, m_rate)


def _chi2_from_fingerprint(values: np.ndarray, mult: np.ndarray, n: int, m_rate: float) -> float:
    """The chi-square statistic of a batch on n cells, ``mult[j]`` of which count ``values[j]``.

    Each distinct count's term is a float a/d with d a power of two, so
    the terms times their multiplicities sum to one exact integer over the
    largest d, rounded once: the float ``math.fsum`` of all n terms gives.
    """
    if not (m_rate > 0 and math.isfinite(m_rate)):
        raise ValueError(f"chi2 rate must be finite and > 0, got {m_rate!r}")
    expected = m_rate / n
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

    By linearity this is ``(n/2) * E|K/m - 1/n|`` for ``K ~ Binomial(m, 1/n)``,
    and de Moivre's identity ``E|K - m/n| = 2*v*(1 - 1/n)*P(K = v)`` with
    ``v = m//n + 1`` (Diaconis and Zabell, Statistical Science 6(3), 1991)
    makes it ``(n - 1)*v*P(K = v)/m``: at ``m < n`` that is ``(1 - 1/n)^m``.
    With scipy's binomial pmf the result was within 28 ulps (3.5e-15
    relative) of the exact rational over n <= 12, m <= 60, and within
    1.6e-15 relative at points from (2, 103255248) to (10^9, 11955705).
    """
    if n < 2:
        raise ValueError("domain size must be >= 2")
    if m < 1:
        raise ValueError("sample count must be >= 1")
    from scipy import stats as sps

    v = m // n + 1
    return (n - 1) * v * float(sps.binom.pmf(v, m, 1.0 / n)) / m


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
