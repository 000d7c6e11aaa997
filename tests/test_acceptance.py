"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration
at test time (the calibrated constants ship with the package).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from repunif.constants import default_constants
from repunif.distributions import (
    InstanceSpec,
    Pmf,
    SampleBatch,
    make_instance,
    tv_distance,
)
from repunif.exact import (
    brute_force_mean_statistic,
    mutual_info_pair,
    pair_joint,
    reduction_check,
)
from repunif.harness import (
    CSV_COLUMNS,
    PairedBiasPrior,
    barrier_experiment,
    correctness_experiment,
    replicability_experiment,
    write_rows_csv,
)
from repunif.rng import stream
from repunif.stats import (
    chi2_statistic,
    collision_statistic,
    empty_bucket_count,
    exact_uniform_mean,
    tv_statistic,
    tv_statistic_fraction,
)
from repunif.tester import TesterParams, run_identity_tester

CONSTANTS = default_constants()
HEADLINE = TesterParams.from_constants(1000, 0.25, 0.2, CONSTANTS)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_correctness_uniform():
    t0 = time.time()
    rep = correctness_experiment(InstanceSpec.uniform(), HEADLINE, 400, master_seed=101)
    elapsed = time.time() - t0
    ok = rep.rate >= 0.9 and rep.wilson_hi >= 0.8 and elapsed < 300
    check(
        "criterion 1 (uniform accept rate)",
        ok,
        f"rate={rep.rate:.4f} wilson=[{rep.wilson_lo:.4f},{rep.wilson_hi:.4f}] "
        f"(needs rate>=0.9, interval consistent with >=0.8) elapsed={elapsed:.1f}s",
    )


def test_criterion_2_correctness_far():
    rep = correctness_experiment(
        InstanceSpec.paired_bias(0.5), HEADLINE, 400, master_seed=102, expect="reject"
    )
    ok = rep.rate >= 0.9
    check(
        "criterion 2 (far reject rate)",
        ok,
        f"rate={rep.rate:.4f} wilson=[{rep.wilson_lo:.4f},{rep.wilson_hi:.4f}] (needs >=0.9)",
    )


def test_criterion_3_replicability():
    rep = replicability_experiment(
        PairedBiasPrior(xi_max=0.5), HEADLINE, 1000, master_seed=103
    )
    ok = rep.rate >= 0.8
    check(
        "criterion 3 (two-run agreement)",
        ok,
        f"rate={rep.rate:.4f} wilson=[{rep.wilson_lo:.4f},{rep.wilson_hi:.4f}] (needs >=0.8)",
    )


def _mc_uniform_tv_mean(n: int, m: int, trials: int, seed: int):
    """Monte Carlo E[S] under uniform sampling, independent of draw_batch."""
    rng = stream(seed, n, m)
    total = 0.0
    total_sq = 0.0
    rows_per_chunk = max(1, 2_000_000 // m)
    done = 0
    while done < trials:
        rows = min(rows_per_chunk, trials - done)
        idx = rng.integers(0, n, size=(rows, m))
        if m < n:
            # at most m of a row's n cells are occupied: sum |n*c - m| over the
            # runs of its sorted samples, and m for each of the n - occupied
            # empty cells, without writing out rows * n counts
            keys = (np.sort(idx, axis=1) + np.arange(rows)[:, None] * n).ravel()
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            runs = np.diff(np.append(starts, keys.size))
            row = keys[starts] // n
            occupied = np.bincount(row, minlength=rows)
            numer = np.bincount(row, weights=np.abs(n * runs - m), minlength=rows)
            s = (numer + (n - occupied) * m) / (2 * m * n)
        else:
            offsets = np.arange(rows)[:, None] * n
            counts = np.bincount((idx + offsets).ravel(), minlength=rows * n).reshape(rows, n)
            s = 0.5 * np.abs(counts / m - 1.0 / n).sum(axis=1)
        total += float(s.sum())
        total_sq += float((s * s).sum())
        done += rows
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    return mean, math.sqrt(var / trials)


def test_criterion_4_exact_mean_oracle():
    worst = 0.0
    for n in range(2, 6):
        for m in range(1, 8):
            exact = exact_uniform_mean(n, m)
            brute = brute_force_mean_statistic(
                make_instance(InstanceSpec.uniform(), n), m, tv_statistic
            )
            worst = max(worst, abs(exact - brute))
    ok_exhaustive = worst <= 1e-12

    details = [f"exhaustive n<=5,m<=7 max err={worst:.2e}"]
    ok_mc = True
    for n, m in [(100, 50), (100, 500), (1000, 200)]:
        mc_mean, mc_se = _mc_uniform_tv_mean(n, m, trials=10**6, seed=104)
        exact = exact_uniform_mean(n, m)
        dev = abs(mc_mean - exact)
        ok_mc &= dev <= 4 * mc_se
        details.append(f"(n={n},m={m}) |mc-exact|={dev:.2e} 4sigma={4 * mc_se:.2e}")
    check("criterion 4 (exact-mean oracle)", ok_exhaustive and ok_mc, "; ".join(details))


def test_criterion_5_statistic_identities():
    rng = stream(105, 0)
    batches = 10**4

    # (a) S = Z/n as exact rationals whenever m <= n
    for _ in range(batches):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, n + 1))
        raw = rng.random(n) + 1e-9
        counts = rng.multinomial(m, raw / raw.sum())
        b = SampleBatch(counts.astype(np.int64))
        assert tv_statistic_fraction(b) == Fraction(empty_bucket_count(b), n)

    # (b) m - (later-sample collisions) = n - Z on ordered sequences
    for _ in range(batches):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 40))
        seq = rng.integers(0, n, size=m)
        seen: set[int] = set()
        collisions = 0
        for t in seq:
            t = int(t)
            if t in seen:
                collisions += 1
            seen.add(t)
        counts = np.bincount(seq, minlength=n).astype(np.int64)
        z = empty_bucket_count(SampleBatch(counts))
        assert m - collisions == n - z

    # (c) permutation invariance of all three statistics
    for _ in range(batches):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 80))
        raw = rng.random(n) + 1e-9
        counts = rng.multinomial(m, raw / raw.sum()).astype(np.int64)
        b = SampleBatch(counts)
        perm_b = SampleBatch(counts[rng.permutation(n)])
        assert tv_statistic_fraction(perm_b) == tv_statistic_fraction(b)
        assert collision_statistic(perm_b) == collision_statistic(b)
        assert chi2_statistic(perm_b, 11.0) == pytest.approx(
            chi2_statistic(b, 11.0), abs=1e-9
        )
    check(
        "criterion 5 (statistic identities)",
        True,
        f"{batches} batches per identity: Z/n rational, distinct-count, permutation",
    )


def test_criterion_6_reduction_exactness():
    t0 = time.time()
    scan = reduction_check(4, 8)
    elapsed = time.time() - t0
    ok = scan.passed and elapsed < 60
    check(
        "criterion 6 (reduction exactness)",
        ok,
        f"{scan.num_pmfs} pmfs, {scan.num_pairs} pairs, uniform err={scan.max_uniform_error:.2e}, "
        f"margin={scan.min_margin:.2e}, elapsed={elapsed:.1f}s (needs <60s)",
    )


def test_criterion_7_identity_tester_end_to_end():
    n, eps, rho, trials = 200, 0.3, 0.2, 200
    params = TesterParams.from_constants(n, eps, rho, CONSTANTS)
    q = make_instance(InstanceSpec.paired_bias(0.4), n)
    far = np.array(q.probs)
    far[0::2] -= eps / n
    far[1::2] += eps / n
    # each of the n masses moves by eps/n, so TV(p_far, q) = eps/2: a far p
    # closer to q than the eps the tester promises to reject
    p_far = Pmf(far)
    assert tv_distance(p_far, q) == pytest.approx(eps / 2, abs=1e-12)

    from repunif.rng import ROLE_INTERNAL, ROLE_SAMPLE, SeedSplit

    def run_side(p, tag):
        good = 0
        for t in range(trials):
            seeds = SeedSplit(
                internal=stream(107, tag, t, ROLE_INTERNAL),
                sample=stream(107, tag, t, ROLE_SAMPLE),
            )
            v = run_identity_tester(p, q, params, seeds)
            good += v.accept if tag == 0 else (not v.accept)
        return good / trials

    accept_rate = run_side(q, 0)
    reject_rate = run_side(p_far, 1)
    ok = accept_rate >= 0.9 and reject_rate >= 0.9
    check(
        "criterion 7 (identity tester)",
        ok,
        f"p=q accept rate={accept_rate:.3f}, far reject rate={reject_rate:.3f} (needs >=0.9 each)",
    )


def test_criterion_8_barrier_slopes():
    n = 10**4
    base = int(4 * math.sqrt(n))
    m_grid = [base * 2**k for k in range(5)]  # 400 .. 6400 = [4 sqrt n, 64 sqrt n]
    runs = 2000
    results = {
        kind: barrier_experiment(kind, n, m_grid, runs, master_seed=108)
        for kind in ("collision", "chi2", "tvstat")
    }
    coll_slope = results["collision"].slope
    chi2_slope = results["chi2"].slope
    ok_slopes = abs(coll_slope - 1.5) <= 0.15 and abs(chi2_slope - 0.5) <= 0.15
    tv_vs_coll = all(
        tv_row.sd_over_gap < coll_row.sd_over_gap
        for tv_row, coll_row in zip(results["tvstat"].rows, results["collision"].rows)
    )
    check(
        "criterion 8 (barrier slopes)",
        ok_slopes and tv_vs_coll,
        f"collision slope={coll_slope:.3f} (1.5±0.15), chi2 slope={chi2_slope:.3f} (0.5±0.15), "
        f"tv sd/gap below collision at all {len(m_grid)} grid points={tv_vs_coll}",
    )


def test_criterion_9_mutual_information_scaling():
    details = []
    ok = True
    for lam, eps, delta in itertools.product((0.1, 0.5, 1.0), (0.1, 0.2), (0.01, 0.02)):
        full = mutual_info_pair(pair_joint(lam, eps - delta, eps)).value
        half_delta = mutual_info_pair(pair_joint(lam, eps - delta / 2, eps)).value
        half_lam = mutual_info_pair(pair_joint(lam / 2, eps - delta, eps)).value
        r_delta = full / half_delta
        r_lam = full / half_lam
        if not (2.5 <= r_delta <= 6 and 2.5 <= r_lam <= 6):
            ok = False
            details.append(f"(lam={lam},eps={eps},delta={delta}): {r_delta:.2f}/{r_lam:.2f}")
    zero = mutual_info_pair(pair_joint(0.5, 0.2, 0.2))
    ok_zero = zero.value <= zero.error_budget <= 1e-12
    check(
        "criterion 9 (mutual-information scaling)",
        ok and ok_zero,
        "all 12 grid points in [2.5, 6] for both halvings; "
        f"delta=0 gives I={zero.value:.1e} budget={zero.error_budget:.1e}"
        + ("" if ok else "; out: " + ", ".join(details)),
    )


def test_criterion_10_worker_determinism(tmp_path):
    params = TesterParams.from_constants(500, 0.3, 0.2, CONSTANTS)
    bodies = {}
    for workers in (1, 4, 8):
        rep = correctness_experiment(
            InstanceSpec.paired_bias(0.3), params, 48, master_seed=110, workers=workers
        )
        path = tmp_path / f"workers{workers}.csv"
        write_rows_csv(str(path), CSV_COLUMNS, rep.per_trial, rep.config_echo)
        bodies[workers] = path.read_bytes()
    rep_again = correctness_experiment(
        InstanceSpec.paired_bias(0.3), params, 48, master_seed=110, workers=1
    )
    path = tmp_path / "rerun.csv"
    write_rows_csv(str(path), CSV_COLUMNS, rep_again.per_trial, rep_again.config_echo)
    identical = bodies[1] == bodies[4] == bodies[8] == path.read_bytes()
    check(
        "criterion 10 (worker determinism)",
        identical,
        f"CSV bodies byte-identical across workers in (1, 4, 8) and rerun: {identical}",
    )
