"""Test statistics and their exact expectations.

All statistics are symmetric: they depend on a batch only through its
frequency vector, so any relabeling of the domain leaves them unchanged.

The TV statistic is accumulated in exact integer arithmetic,
``sum_i |n*X_i - m| / (2*m*n)``, so no precision is lost even when the
sublinear signal scale ``eps^2 m^2 / n^2`` is tiny; the rational value is
exposed for identity checks.  One kernel, ``_tv_numerators``, takes these
numerators for every count vector: one batch, or the m0 rows of a tester
run in one numpy pass.  At ``m <= n`` a numerator is ``2*m*Z`` with Z the
empty cells (the identity ``S = Z/n``): one pass, the same integers.

Every statistic here depends on a batch only through its fingerprint (the
cells holding each distinct count), and the barrier study scores the
fingerprints of all runs of a grid point at once, to the same bits as the
one-batch functions: collision counts and TV numerators are integer sums
per row, and ``_chi2_sums`` turns each distinct count's float term into a
multiple of the terms' common power-of-two denominator, so a row's sum is
one exact integer, rounded once.  ``collision_statistic`` and
``chi2_statistic`` are those sums on the fingerprint of one frequency
vector.  ``mu(U_n)``, the uniform-case mean of
TV, is one binomial pmf term by de Moivre's mean-absolute-deviation
identity.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import SampleBatch, _fingerprints_of_rows

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


def _tv_wide(m: int, n: int) -> bool:
    """Whether TV numerators need Python integers: each term ``|n*X_i - m|``
    is at most ``n*m`` and a batch's sum at most ``2*n*m``, so below ``2**63``
    int64 cannot wrap."""
    return 2 * n * m >= 2**63


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
    if _tv_wide(m, n):
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
    """Number of colliding sample pairs, ``sum_i X_i (X_i - 1) / 2``, exact.

    It depends on the batch only through its fingerprint, which
    ``_collision_counts`` sums.
    """
    return _collision_counts(*_fingerprints_of_rows([batch.counts]), batch.m)[0]


def _collision_counts(values: np.ndarray, mult: np.ndarray, starts: np.ndarray, m: int) -> list[int]:
    """Exact collision count of each of k batches of m samples, from their fingerprints.

    Row r holds ``mult[j]`` cells of count ``values[j]`` for j from
    ``starts[r]`` to the next row's start, as the barrier's samplers return
    them; its collision count is the sum of ``mult[j] * v (v - 1) / 2``.
    """
    if m >= 2**31:
        # wide-integer path: v (v - 1) or the sum could overflow int64
        pairs = [c * (v * (v - 1) // 2) for v, c in zip(values.tolist(), mult.tolist())]
        return np.add.reduceat(np.array(pairs, dtype=object), starts).tolist()
    # each row's sum is at most m (m - 1) / 2 < 2**61
    return np.add.reduceat(mult * (values * (values - 1) // 2), starts).tolist()


def _tv_from_fingerprints(values: np.ndarray, mult: np.ndarray, starts: np.ndarray, m: int, n: int) -> list[float]:
    """The TV statistic of each of k batches of m samples on n cells, from their fingerprints.

    With the rows of ``_collision_counts``, a row's numerator
    ``sum_i |n*X_i - m|`` is the sum of ``mult[j] * |n*v - m|``: the
    integer ``_tv_numerators`` gives for the batch, so each value equals
    ``tv_statistic`` of the batch bit for bit.
    """
    if m < 1:
        raise ValueError("tv statistic needs at least one sample")
    if _tv_wide(m, n):
        terms = np.array([c * abs(n * v - m) for v, c in zip(values.tolist(), mult.tolist())], dtype=object)
    else:
        terms = mult * np.abs(n * values - m)
    return [num / (2 * m * n) for num in np.add.reduceat(terms, starts).tolist()]


def chi2_statistic(batch: SampleBatch, m_rate: float) -> float:
    """Poissonized chi-square statistic.

    ``sum_i ((X_i - m_rate/n)^2 - X_i) / (m_rate/n)`` where ``m_rate`` is
    the Poisson sampling rate (which may differ from the realized total).
    It depends on the batch only through its fingerprint, which
    ``_chi2_sums`` sums.
    """
    return _chi2_sums(*_fingerprints_of_rows([batch.counts]), batch.n, m_rate)[0]


def _chi2_sums(values: np.ndarray, mult: np.ndarray, starts: np.ndarray, n: int, m_rate: float) -> list[float]:
    """The chi-square statistic of each of k batches on n cells, from their fingerprints.

    The rows are those of ``_collision_counts``.  Each count's term is a
    float a/d with d a power of two, so a row's terms times their
    multiplicities sum to one exact integer over the largest d of all rows,
    rounded once: the float ``math.fsum`` of all n terms gives.  A row with
    an inf or nan term takes that ``math.fsum`` instead, and keeps its
    semantics.
    """
    if not (m_rate > 0 and math.isfinite(m_rate)):
        raise ValueError(f"chi2 rate must be finite and > 0, got {m_rate!r}")
    expected = m_rate / n
    distinct, which = np.unique(values, return_inverse=True)
    c = distinct.astype(np.float64)
    terms = ((c - expected) ** 2 - c) / expected
    finite = np.isfinite(terms)
    ratios = [t.as_integer_ratio() if ok else (0, 1) for t, ok in zip(terms.tolist(), finite.tolist())]
    den = max((d for _, d in ratios), default=1)
    scaled = np.array([a * (den // d) for a, d in ratios], dtype=object)
    sums = np.add.reduceat(scaled[which] * mult, starts).tolist()
    nonfinite = np.logical_or.reduceat(~finite[which], starts).tolist()
    ends = [*starts[1:].tolist(), values.size]
    return [math.fsum(np.repeat(terms[which[a:b]], mult[a:b]).tolist()) if bad else s / den
            for s, bad, a, b in zip(sums, nonfinite, starts.tolist(), ends)]


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
