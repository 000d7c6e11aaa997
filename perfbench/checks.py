"""Correctness checks for the benchmark's workloads.

Every reference here is computed independently of the package: the size
formula and gap schedule are re-implemented from their documentation, the
uniform-case mean and the barrier closed forms come straight from scipy's
binomial, and the rational pmf family is enumerated with ``fractions``.
Each checker takes plain numbers and returns a :class:`Check`, so a test can
feed it a wrong input and see it fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats as sps


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def size_formula(n: int, eps: float, rho: float, c: dict) -> tuple[int, int]:
    """Batch size m and odd repetition count m0, as the tester documents them."""
    raw = (c["c_m1"] * math.sqrt(n) / (rho * eps * eps) * math.sqrt(math.log(n / rho))
           + c["c_m2"] / (rho * rho * eps * eps))
    m = max(6, math.ceil(raw))
    k = max(1, math.ceil(c["c_m0"] * math.log(4.0 / rho)))
    return m, (k if k % 2 else k + 1)


def gap_schedule(n: int, m: int, xi: float, c_gap: float) -> float:
    """The three-regime expectation gap R of the package README."""
    if m <= n:
        return c_gap * xi * xi * (m / n) ** 2
    if m <= n / (xi * xi):
        return c_gap * xi * xi * math.sqrt(m / n)
    return c_gap * xi


def _mean_abs_dev(n: int, m: int, p: float) -> float:
    """E|K/m - 1/n| for K ~ Binomial(m, p), summed over every k."""
    k = np.arange(m + 1)
    pmf = sps.binom.pmf(k, m, p)
    return math.fsum((pmf * np.abs(k / m - 1.0 / n)).tolist())


def uniform_tv_mean(n: int, m: int) -> float:
    """mu(U_n): the expected TV statistic of m uniform samples."""
    return n / 2.0 * _mean_abs_dev(n, m, 1.0 / n)


def heavy_masses(n: int) -> tuple[float, float]:
    """Heavy and light mass of the barrier instance (heavy mass n^-1/2)."""
    heavy = n ** -0.5
    return heavy, (1.0 - heavy) / (n - 1)


def barrier_means(n: int, m: int) -> dict[str, float]:
    """Closed-form expectations of the three barrier statistics."""
    heavy, light = heavy_masses(n)
    sum_sq = heavy * heavy + (n - 1) * light * light
    dev_sq = (heavy - 1.0 / n) ** 2 + (n - 1) * (light - 1.0 / n) ** 2
    return {
        "collision": m * (m - 1) / 2.0 * sum_sq,
        "chi2": m * n * dev_sq,
        "tvstat": 0.5 * (_mean_abs_dev(n, m, heavy) + (n - 1) * _mean_abs_dev(n, m, light)),
    }


def loglog_slope(ms, sds) -> float:
    """Least-squares slope of log(sd) against log(m)."""
    x = np.log(np.asarray(ms, dtype=np.float64))
    y = np.log(np.asarray(sds, dtype=np.float64))
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def count_rational_pmfs(n: int, max_denominator: int) -> int:
    """Distinct vectors (c_1/d, ..., c_n/d) with d <= D and sum c_i = d."""
    seen = set()
    for d in range(1, max_denominator + 1):
        for head in itertools.product(range(d + 1), repeat=n - 1):
            rest = d - sum(head)
            if rest >= 0:
                seen.add(tuple(Fraction(c, d) for c in (*head, rest)))
    return len(seen)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def check_rate(name: str, successes: int, trials: int, floor: float) -> Check:
    rate = successes / trials if trials else 0.0
    return Check(name, trials > 0 and rate >= floor,
                 f"{successes}/{trials} = {rate:.4f} (needs >= {floor})")


def check_thresholds(thresholds, mu: float, gap: float) -> Check:
    """Every threshold lies in [mu + R/4, mu + 3R/4]."""
    values = np.asarray(thresholds, dtype=np.float64)
    lo, hi = mu + gap / 4.0, mu + 3.0 * gap / 4.0
    tol = 1e-12 * max(1.0, abs(hi))
    ok = values.size > 0 and bool(np.all((values >= lo - tol) & (values <= hi + tol)))
    span = f"[{values.min():.6g}, {values.max():.6g}]" if values.size else "none"
    return Check("thresholds in [mu+R/4, mu+3R/4]", ok,
                 f"{values.size} thresholds in {span}, band [{lo:.6g}, {hi:.6g}]")


def check_sizes(name: str, observed, expected) -> Check:
    """Every observed (n, m, m0) tuple equals the expected one."""
    observed = set(observed)
    return Check(name, observed == {tuple(expected)},
                 f"seen {sorted(observed)}, expected {tuple(expected)}")


def check_identical(name: str, first: dict[str, bytes], second: dict[str, bytes]) -> Check:
    same = bool(first) and first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    return Check(name, same, f"{len(first)} files compared, byte-identical={same}")


def check_slope(kind: str, slope: float, target: float, tol: float) -> Check:
    return Check(f"{kind} log-log slope", abs(slope - target) <= tol,
                 f"{slope:.4f} (needs {target} +- {tol})")


def check_sd_over_gap(tv_ratios, collision_ratios) -> Check:
    ok = len(tv_ratios) == len(collision_ratios) > 0 and all(
        t < c for t, c in zip(tv_ratios, collision_ratios))
    worst = max((t / c for t, c in zip(tv_ratios, collision_ratios)), default=math.inf)
    return Check("tvstat sd/gap below collision at every m", ok,
                 f"largest tv/collision ratio {worst:.3f}")


def check_means(kind: str, means, sds, runs: int, expected, z: float = 6.0) -> Check:
    """Each point's mean lies within z standard errors of its closed form."""
    worst = 0.0
    for mean, sd, ref in zip(means, sds, expected):
        se = sd / math.sqrt(runs)
        worst = max(worst, abs(mean - ref) / se if se > 0 else math.inf)
    ok = len(means) > 0 and worst <= z
    return Check(f"{kind} means match closed form", ok,
                 f"largest |mean - closed form| = {worst:.2f} standard errors (needs <= {z})")


def check_reduction(passed: bool, num_pmfs: int, num_pairs: int, family_sizes) -> Check:
    want_pmfs = sum(family_sizes)
    want_pairs = sum(k * (k - 1) for k in family_sizes)
    ok = passed and num_pmfs == want_pmfs and num_pairs == want_pairs
    return Check("reduction scan", ok,
                 f"passed={passed}, num_pmfs={num_pmfs} (enumerated {want_pmfs}), "
                 f"num_pairs={num_pairs} (expected {want_pairs})")


def check_close(name: str, errors, tol: float) -> Check:
    worst = max(errors, default=math.inf)
    return Check(name, worst <= tol, f"largest error {worst:.2e} over {len(errors)} points (needs <= {tol})")


def check_ratio_band(name: str, ratios, lo: float, hi: float) -> Check:
    ok = len(ratios) > 0 and all(lo <= r <= hi for r in ratios)
    span = f"[{min(ratios):.3f}, {max(ratios):.3f}]" if ratios else "none"
    return Check(name, ok, f"{len(ratios)} ratios in {span} (needs within [{lo}, {hi}])")
