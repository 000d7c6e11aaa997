"""Experiment engine: seed purity, intervals, priors, calibration, output."""

import json
import math

import numpy as np
import pytest

from repunif import distributions, harness, stats
from repunif.constants import default_constants, load_constants, parse_constants, save_constants
from repunif.distributions import (
    InstanceSpec,
    SampleBatch,
    draw_batches,
    make_instance,
)
from repunif.harness import (
    CSV_COLUMNS,
    EXP_BARRIER,
    EXP_CALIBRATE,
    EXP_CORRECTNESS,
    EXP_REPLICABILITY,
    EXP_SWEEP,
    CalibrationError,
    FixedPrior,
    PairedBiasPrior,
    acceptance_sweep,
    barrier_experiment,
    calibrate,
    correctness_experiment,
    replicability_experiment,
    wilson_interval,
    write_rows_csv,
)
from repunif.rng import ROLE_INSTANCE, ROLE_INTERNAL, ROLE_SAMPLE, SeedSplit, stream
from repunif.stats import (
    exact_uniform_mean,
    expectation_gap,
    tv_statistic,
)
from repunif.tester import TesterParams, derive_sizes, run_tester

CAL = dict(c_gap=0.21346146882247882, c_m1=1.0, c_m2=1.0, c_m0=3.0)
FAST = TesterParams.from_constants(300, 0.3, 0.2, CAL)


class TestWilson:
    def test_bounds_and_order(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.0 <= lo <= 0.8 <= hi <= 1.0

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0 and lo < 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_coverage_on_synthetic_bernoulli(self):
        # exact Wilson coverage at trials=60 is >= 0.948 for all three p
        rng = stream(606, 0)
        experiments = 10**4
        trials = 60
        for true_p in (0.05, 0.5, 0.95):
            hits = 0
            successes = rng.binomial(trials, true_p, size=experiments)
            for s in successes:
                lo, hi = wilson_interval(int(s), trials)
                hits += lo <= true_p <= hi
            assert hits / experiments >= 0.93


class TestCorrectnessExperiment:
    def test_reports_are_reproducible(self):
        a = correctness_experiment(InstanceSpec.uniform(), FAST, 12, master_seed=5)
        b = correctness_experiment(InstanceSpec.uniform(), FAST, 12, master_seed=5)
        assert a.rate == b.rate
        assert a.per_trial == b.per_trial

    def test_different_seeds_differ(self):
        a = correctness_experiment(InstanceSpec.paired_bias(0.35), FAST, 24, master_seed=5)
        b = correctness_experiment(InstanceSpec.paired_bias(0.35), FAST, 24, master_seed=6)
        assert a.per_trial != b.per_trial

    def test_single_trial_rate_binary(self):
        rep = correctness_experiment(InstanceSpec.uniform(), FAST, 1, master_seed=9)
        assert rep.rate in (0.0, 1.0)

    def test_expect_reject_counts_rejections(self):
        rep = correctness_experiment(
            InstanceSpec.heavy(1.0), FAST, 10, master_seed=11, expect="reject"
        )
        assert rep.rate == 1.0

    def test_interval_brackets_rate(self):
        rep = correctness_experiment(InstanceSpec.uniform(), FAST, 40, master_seed=13)
        assert rep.wilson_lo <= rep.rate <= rep.wilson_hi

    def test_workers_do_not_change_report(self):
        kwargs = dict(trials=16, master_seed=15)
        a = correctness_experiment(InstanceSpec.uniform(), FAST, **kwargs, workers=1)
        b = correctness_experiment(InstanceSpec.uniform(), FAST, **kwargs, workers=4)
        assert a == b

    def test_validates_args(self):
        with pytest.raises(ValueError):
            correctness_experiment(InstanceSpec.uniform(), FAST, 0, master_seed=1)
        with pytest.raises(ValueError):
            correctness_experiment(InstanceSpec.uniform(), FAST, 5, master_seed=1, expect="maybe")
        with pytest.raises(ValueError):
            correctness_experiment(InstanceSpec.uniform(), FAST, 5, master_seed=1, workers=0)

    def test_pool_never_larger_than_job_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        for workers in (2, 64):
            correctness_experiment(InstanceSpec.uniform(), FAST, 3, master_seed=1, workers=workers)
        correctness_experiment(InstanceSpec.uniform(), FAST, 1, master_seed=1, workers=64)
        assert sizes == [2, 3]
        # never more processes than the CPUs this process may run on
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        correctness_experiment(InstanceSpec.uniform(), FAST, 3, master_seed=1, workers=64)
        assert sizes == [2, 3, 2]
        # without sched_getaffinity the CPU count caps the pool; one CPU runs in-process
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
        correctness_experiment(InstanceSpec.uniform(), FAST, 3, master_seed=1, workers=64)
        assert sizes == [2, 3, 2]


class TestReplicabilityExperiment:
    def test_shared_sample_seeds_agree_exactly(self):
        rep = replicability_experiment(
            FixedPrior(InstanceSpec.paired_bias(0.3)), FAST, 20, master_seed=21,
            shared_sample_seeds=True,
        )
        assert rep.rate == 1.0

    def test_uniform_prior_agreement_high(self):
        rep = replicability_experiment(
            FixedPrior(InstanceSpec.uniform()), FAST, 60, master_seed=23
        )
        assert rep.rate >= 1 - 2 * FAST.rho

    def test_rows_paired_and_agree_flag_consistent(self):
        rep = replicability_experiment(None, FAST, 10, master_seed=25)
        assert len(rep.per_trial) == 20
        by_pair = {}
        for row in rep.per_trial:
            by_pair.setdefault(row["trial"], []).append(row)
        for pair_rows in by_pair.values():
            decisions = {r["decision"] for r in pair_rows}
            expected = 1 if len(decisions) == 1 else 0
            assert all(r["agree"] == expected for r in pair_rows)
        assert rep.successes == sum(
            rows[0]["agree"] for rows in by_pair.values()
        )

    def test_default_prior_spans_bias_range(self):
        rng = stream(27, 0)
        prior = PairedBiasPrior(xi_max=0.6)
        draws = [prior(rng).xi for _ in range(200)]
        assert 0.0 <= min(draws) <= 0.1
        assert 0.5 <= max(draws) <= 0.6

    @pytest.mark.parametrize("prior, echo", [
        (PairedBiasPrior(xi_max=0.5), "PairedBiasPrior(xi_max=0.5)"),
        (FixedPrior(InstanceSpec.paired_bias(0.3)), "FixedPrior(paired_bias(xi=0.3))"),
        (FixedPrior(InstanceSpec.uniform()), "FixedPrior(uniform)"),
    ])
    def test_config_echoes_the_prior_description(self, prior, echo):
        # the echo is the prior's describe(), not its dataclass repr, so
        # editing a dataclass field does not move report bytes
        assert prior.describe() == echo
        rep = replicability_experiment(prior, FAST, 1, master_seed=31)
        assert rep.config_echo["prior"] == echo


class TestSublinearRegime:
    def test_accepts_uniform_rejects_far_below_n(self):
        # m < n: the tester scores the share of empty cells, and the gap schedule
        # takes its sublinear branch, which the packaged constants never saw
        params = TesterParams.from_constants(10**5, 0.25, 0.2, default_constants())
        m, _ = derive_sizes(params)
        assert m == 92_043 < params.n
        uniform = correctness_experiment(InstanceSpec.uniform(), params, 20, master_seed=71)
        far = correctness_experiment(InstanceSpec.paired_bias(0.5), params, 20, master_seed=71,
                                     expect="reject")
        assert uniform.successes >= 18 and far.successes >= 18


class TestAcceptanceSweep:
    def test_fixed_internal_brackets_half(self):
        curve = acceptance_sweep(FAST, [0.0, 0.6], 30, master_seed=29, fixed_internal=True)
        assert curve.acc_estimates[0] > 0.5 > curve.acc_estimates[-1]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            acceptance_sweep(FAST, [0.2, 0.1], 5, master_seed=1)
        with pytest.raises(ValueError):
            acceptance_sweep(FAST, [0.1, 1.2], 5, master_seed=1)
        with pytest.raises(ValueError):
            acceptance_sweep(FAST, [0.1, 0.2], 0, master_seed=1)
        with pytest.raises(ValueError):
            acceptance_sweep(FAST, [], 5, master_seed=1)

    def test_estimates_within_unit_interval(self):
        curve = acceptance_sweep(FAST, [0.0, 0.3, 0.6], 10, master_seed=31)
        assert all(0.0 <= a <= 1.0 for a in curve.acc_estimates)
        assert curve.trials_per_point == 10

    def test_monotone_up_to_noise(self):
        trials = 60
        grid = [0.0, 0.12, 0.24, 0.36, 0.48, 0.6]
        curve = acceptance_sweep(FAST, grid, trials, master_seed=32)
        # one-sided statistic: the curve may only rise by sampling noise
        noise = 3 * math.sqrt(2 * 0.25 / trials)
        for a, b in zip(curve.acc_estimates, curve.acc_estimates[1:]):
            assert b <= a + noise


class TestBarrierExperiment:
    def test_rows_and_gap_formulas(self):
        n = 400
        res = barrier_experiment("collision", n, [80, 160], 60, master_seed=33)
        assert [r.m for r in res.rows] == [80, 160]
        assert res.rows[0].gap == pytest.approx(80**2 * 0.25 / n)
        assert all(r.sd > 0 for r in res.rows)
        assert math.isfinite(res.slope)

    def test_tvstat_gap_formula(self):
        # the tester's schedule at eps = 0.5: eps^2 m^2/n^2 up to m = n, then
        # eps^2 sqrt(m/n) up to m = n/eps^2 = 1600, then eps
        res = barrier_experiment("tvstat", 400, [80, 160, 800, 3200], 30, master_seed=35)
        assert res.rows[1].gap == pytest.approx(0.25 * 160**2 / 400**2)
        assert res.rows[2].gap == pytest.approx(0.25 * math.sqrt(2.0))
        assert res.rows[3].gap == 0.5

    def test_chi2_gap_formula(self):
        res = barrier_experiment("chi2", 400, [80, 160], 30, master_seed=37)
        assert res.rows[0].gap == pytest.approx(80 * 0.25)

    @pytest.mark.parametrize("kind", ["collision", "chi2", "tvstat"])
    def test_workers_do_not_change_report(self, kind, monkeypatch):
        # the grid straddles both sampler cutoffs at n = 2000: the alias path
        # (200), the level path below n (1024, 1500) and from n (3000)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        runs = [barrier_experiment(kind, 2000, [200, 1024, 1500, 3000], 20, master_seed=63,
                                   workers=workers).to_dict() for workers in (1, 2)]
        assert runs[0] == runs[1]

    def test_zero_spread_raises(self, recwarn):
        # at n = 100 every collision count over 3 runs at m = 4 is 0: no log-log slope
        with pytest.raises(ValueError, match=r"sd 0 over 3 runs at m = 4\b"):
            barrier_experiment("collision", 100, [4, 8, 16], 3, master_seed=1)
        assert len(recwarn) == 0

    def test_unknown_kind_and_bad_grid(self):
        with pytest.raises(ValueError):
            barrier_experiment("median", 400, [80, 160], 30, master_seed=1)
        with pytest.raises(ValueError):
            barrier_experiment("collision", 400, [160, 80], 30, master_seed=1)
        with pytest.raises(ValueError):
            barrier_experiment("collision", 400, [80, 160], 1, master_seed=1)
        for grid in ([], [80], [0, 80], [1, 80]):
            with pytest.raises(ValueError):
                barrier_experiment("collision", 400, grid, 30, master_seed=1)
        for eps in (-3.0, 0.0, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                barrier_experiment("collision", 400, [80, 160], 30, master_seed=1, eps=eps)
        for n in (0, 1):
            with pytest.raises(ValueError):
                barrier_experiment("collision", n, [80, 160], 30, master_seed=1)


class TestCalibrate:
    def test_feasible_on_small_pilot(self):
        constants, provenance = calibrate([(300, 0.3)], rho=0.2, trials=60, master_seed=39)
        assert constants["c_gap"] > 0
        assert constants["c_m0"] == 3.0
        assert any("c_range" in line for line in provenance)

    def test_round_trip_through_file(self, tmp_path):
        constants, provenance = calibrate([(300, 0.3)], rho=0.2, trials=60, master_seed=39)
        path = tmp_path / "constants.txt"
        save_constants(str(path), constants, provenance)
        assert load_constants(str(path)) == constants

    def test_infeasible_when_m_floored(self):
        # with m forced to the floor of 6, uniform and far medians coincide
        with pytest.raises(CalibrationError):
            calibrate([(1000, 0.25)], rho=0.2, trials=60, master_seed=41,
                      c_m1=1e-12, c_m2=1e-12)

    def test_validates_args(self):
        with pytest.raises(ValueError):
            calibrate([], rho=0.2, trials=60, master_seed=1)
        with pytest.raises(ValueError):
            calibrate([(300, 0.3)], rho=0.2, trials=2, master_seed=1)


class TestConstantsFile:
    def test_parse_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            parse_constants("c_gap=0.5\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_constants("c_gap 0.5")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_parse_rejects_non_finite(self, raw):
        with pytest.raises(ValueError, match="line 2: c_m1 must be finite"):
            parse_constants(f"c_gap=0.5\nc_m1={raw}\nc_m2=2\nc_m0=3\n")

    def test_comments_and_blanks_ignored(self):
        text = "# hi\n\nc_gap=0.5\nc_m1=1\nc_m2=2\nc_m0=3\n"
        assert parse_constants(text) == {"c_gap": 0.5, "c_m1": 1.0, "c_m2": 2.0, "c_m0": 3.0}


class TestCsvOutput:
    def test_header_and_determinism(self, tmp_path):
        rep = correctness_experiment(InstanceSpec.uniform(), FAST, 6, master_seed=43)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            write_rows_csv(str(p), CSV_COLUMNS, rep.per_trial, rep.config_echo)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        text = b1.decode()
        assert text.startswith("# config: ")
        config = json.loads(text.splitlines()[0][len("# config: "):])
        assert config["params"]["c_gap"] == CAL["c_gap"]
        assert text.splitlines()[1] == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == 2 + 6


def _keyed_verdict(pmf, master_seed, internal_key, sample_key):
    seeds = SeedSplit(internal=stream(master_seed, *internal_key),
                      sample=stream(master_seed, *sample_key))
    return run_tester(pmf, FAST, seeds)


def _row_fields(v):
    return {"n": v.n, "m": v.m, "m0": v.m0, "statistic": repr(v.statistic),
            "threshold": repr(v.threshold), "r0": repr(v.r0), "decision": v.decision}


class TestStreamKeyContract:
    """Each experiment's trials replay from the documented stream keys.

    Every row is recomputed straight from ``run_tester`` or the samplers with
    ``stream(master_seed, EXP_*, indices..., ROLE_*)``, so the comparison
    holds under any numpy release.
    """

    def test_correctness(self):
        spec = InstanceSpec.paired_bias(0.3)
        rep = correctness_experiment(spec, FAST, 3, master_seed=51)
        pmf = make_instance(spec, FAST.n)
        for t, row in enumerate(rep.per_trial):
            v = _keyed_verdict(pmf, 51, (EXP_CORRECTNESS, t, ROLE_INTERNAL),
                               (EXP_CORRECTNESS, t, ROLE_SAMPLE))
            assert {k: row[k] for k in _row_fields(v)} == _row_fields(v)

    def test_replicability(self):
        rep = replicability_experiment(None, FAST, 3, master_seed=53)
        prior = PairedBiasPrior(xi_max=2.0 * FAST.eps)
        assert [(row["trial"], row["run"]) for row in rep.per_trial] == [
            (k, run) for k in range(3) for run in (0, 1)]
        for row in rep.per_trial:
            k, run = row["trial"], row["run"]
            spec = prior(stream(53, EXP_REPLICABILITY, k, ROLE_INSTANCE))
            assert row["xi"] == repr(spec.xi)
            v = _keyed_verdict(make_instance(spec, FAST.n), 53,
                               (EXP_REPLICABILITY, k, ROLE_INTERNAL),
                               (EXP_REPLICABILITY, k, run, ROLE_SAMPLE))
            assert {key: row[key] for key in _row_fields(v)} == _row_fields(v)

    def test_replicability_shared_sample_seeds(self):
        # both runs of a pair replay the run-0 sample stream
        spec = InstanceSpec.paired_bias(0.3)
        rep = replicability_experiment(FixedPrior(spec), FAST, 2, master_seed=55,
                                       shared_sample_seeds=True)
        pmf = make_instance(spec, FAST.n)
        for row in rep.per_trial:
            k = row["trial"]
            v = _keyed_verdict(pmf, 55, (EXP_REPLICABILITY, k, ROLE_INTERNAL),
                               (EXP_REPLICABILITY, k, 0, ROLE_SAMPLE))
            assert {key: row[key] for key in _row_fields(v)} == _row_fields(v)

    @pytest.mark.parametrize("fixed_internal", [False, True])
    def test_sweep(self, fixed_internal):
        grid, trials = [0.2, 0.25], 6  # both curves pass strictly between 0 and 1 here
        curve = acceptance_sweep(FAST, grid, trials, master_seed=57,
                                 fixed_internal=fixed_internal)
        for g, xi in enumerate(grid):
            pmf = make_instance(InstanceSpec.paired_bias(xi), FAST.n)
            accepts = 0
            for t in range(trials):
                internal = ((EXP_SWEEP, ROLE_INTERNAL) if fixed_internal
                            else (EXP_SWEEP, g, t, ROLE_INTERNAL))
                accepts += _keyed_verdict(pmf, 57, internal, (EXP_SWEEP, g, t, ROLE_SAMPLE)).accept
            assert curve.acc_estimates[g] == accepts / trials

    @pytest.mark.parametrize("kind", ["collision", "chi2", "tvstat"])
    def test_barrier(self, kind):
        # a grid point's runs are one fingerprint matrix drawn from the point's stream
        n, runs = 400, 3
        res = barrier_experiment(kind, n, [40, 80], runs, master_seed=61)
        pmf = make_instance(InstanceSpec.heavy(n ** -0.5), n)
        for g, row in enumerate(res.rows):
            rng = stream(61, EXP_BARRIER, g, ROLE_SAMPLE)
            if kind == "chi2":
                fingerprints = distributions._poissonized_fingerprints(pmf, row.m, runs, rng)
                values = stats._chi2_sums(*fingerprints, n, row.m)
            else:
                fingerprints = distributions._multinomial_fingerprints(pmf, row.m, runs, rng)
                values = (stats._collision_counts(*fingerprints, row.m) if kind == "collision"
                          else stats._tv_from_fingerprints(*fingerprints, row.m, n))
            values = [float(v) for v in values]
            assert (row.mean, row.sd) == (float(np.mean(values)), float(np.std(values, ddof=1)))

    def test_calibrate_sample_draws(self):
        # each trial's m0 batches are one draw_batches call on its sample stream
        n, eps, rho, trials = 300, 0.3, 0.2, 8
        constants, _ = calibrate([(n, eps)], rho=rho, trials=trials, master_seed=59)
        m, m0 = derive_sizes(TesterParams(n=n, eps=eps, rho=rho))
        medians = []
        for side, spec in enumerate((InstanceSpec.uniform(), InstanceSpec.paired_bias(2 * eps))):
            pmf = make_instance(spec, n)
            draws = []
            for t in range(trials):
                rng = stream(59, EXP_CALIBRATE, 0, side, t, ROLE_SAMPLE)
                draws.append(sorted(tv_statistic(SampleBatch(r)) for r in draw_batches(pmf, m, m0, rng))[m0 // 2])
            medians.append(np.array(draws))
        mu = exact_uniform_mean(n, m)
        _, base = expectation_gap(n, m, eps, 1.0)
        c_lo = max(0.0, 4.0 * (float(np.quantile(medians[0], 1.0 - rho / 4.0)) - mu) / base)
        c_hi = (float(np.quantile(medians[1], rho / 4.0)) - mu) / base
        assert constants["c_gap"] == math.sqrt(max(c_lo, c_hi / 9.0, 1e-6) * c_hi)
