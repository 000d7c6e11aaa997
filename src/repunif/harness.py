"""Monte Carlo experiment engine.

Estimates the probabilities in the correctness and replicability protocols,
sweeps acceptance probability over the paired-bias family, runs the
heavy-element barrier studies, and calibrates the tester constants.  The
barrier study is the one home of the baseline statistics: one table,
``BARRIER_STATISTICS``, gives each (collision, Poissonized chi-square, TV)
its fingerprint sampler, exact fingerprint scorer and gap, and its keys are
the CLI's ``--stat`` choices.  The runs of a grid point are drawn together
as their fingerprints (how many cells of each batch hold each count),
multinomial for collision and TV, Poissonized for chi-square, and each
statistic scores all runs at once, exactly.  No n-length vector is made
while every cell rate is within the Poisson table bound: the
single-heavy-element pmf has 2 levels, so for m up to about 4096 n^1/2.

Determinism contract: every trial's randomness is a pure function of
``(master_seed, key)``, reports are assembled in trial order, and the
worker count never changes any output byte.  Each stream is
``stream(master_seed, *key)`` with these keys (t = trial, k = pair,
g = grid index, r = run):

* correctness: internal ``(EXP_CORRECTNESS, t, ROLE_INTERNAL)``, sample
  ``(EXP_CORRECTNESS, t, ROLE_SAMPLE)``;
* replicability: instance ``(EXP_REPLICABILITY, k, ROLE_INSTANCE)``;
  internal ``(EXP_REPLICABILITY, k, ROLE_INTERNAL)``, shared by both runs;
  sample ``(EXP_REPLICABILITY, k, r, ROLE_SAMPLE)`` for r in 0, 1 (r = 0
  for both runs with ``shared_sample_seeds``);
* sweep: internal ``(EXP_SWEEP, g, t, ROLE_INTERNAL)``, or
  ``(EXP_SWEEP, ROLE_INTERNAL)`` for every trial with ``fixed_internal``;
  sample ``(EXP_SWEEP, g, t, ROLE_SAMPLE)``;
* barrier: sample ``(EXP_BARRIER, g, ROLE_SAMPLE)``, one stream for all runs
  of grid point g, no internal coin;
* calibrate, pilot p, side s (0 uniform, 1 far): internal
  ``(EXP_CALIBRATE, p, s, t, ROLE_INTERNAL)``, sample
  ``(EXP_CALIBRATE, p, s, t, ROLE_SAMPLE)``.

Each experiment derives the Philox keys of all its streams in one
:func:`~repunif.rng.stream_keys` pass, and each worker builds its
generators from those keys with :func:`~repunif.rng.keyed`.

Every tester trial runs through one worker, :func:`_trial`; each report
type states its CSV columns and rows, its JSON summary is its dataclass's
fields, and :func:`write_report` writes both.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .distributions import InstanceSpec, _multinomial_fingerprints, _poissonized_fingerprints, make_instance
# these stay bound here too: perfbench's tests look up stream and draw_batch on
# this module, and its barrier clock wraps the draws and statistics here
from .distributions import draw_batch, draw_poissonized_batch  # noqa: F401
from .rng import ROLE_INSTANCE, ROLE_INTERNAL, ROLE_SAMPLE, SeedSplit, keyed, stream_keys
from .rng import stream  # noqa: F401
from .stats import _chi2_sums, _collision_counts, _tv_sums, expectation_gap
from .stats import chi2_statistic, collision_statistic, tv_statistic  # noqa: F401
from .tester import R0_LOW, TesterParams, Verdict, _schedule, derive_sizes, run_tester

# Experiment tags keep the derived streams of different experiments disjoint.
EXP_CORRECTNESS = 1
EXP_REPLICABILITY = 2
EXP_SWEEP = 3
EXP_BARRIER = 4
EXP_CALIBRATE = 5

CSV_COLUMNS = [
    "experiment_id", "trial", "run", "instance_kind", "xi", "n", "m", "m0",
    "statistic", "threshold", "r0", "decision", "agree",
]

__all__ = [
    "ExperimentReport",
    "SweepCurve",
    "BarrierRow",
    "BarrierResult",
    "BarrierStatistic",
    "BARRIER_STATISTICS",
    "CalibrationError",
    "wilson_interval",
    "PairedBiasPrior",
    "FixedPrior",
    "correctness_experiment",
    "replicability_experiment",
    "acceptance_sweep",
    "barrier_experiment",
    "calibrate",
    "write_rows_csv",
    "write_report_json",
    "write_report",
]


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a Bernoulli rate."""
    if trials < 1:
        raise ValueError("need at least one trial")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, (center - half) / denom), min(1.0, (center + half) / denom))


@dataclass
class ExperimentReport:
    """Trial tally with a Wilson interval and the full config echo."""

    trials: int
    successes: int
    rate: float
    wilson_lo: float
    wilson_hi: float
    config_echo: dict
    per_trial: list[dict] | None = None

    csv_columns = CSV_COLUMNS

    @classmethod
    def from_counts(cls, successes, trials, config, per_trial=None):
        lo, hi = wilson_interval(successes, trials)
        return cls(trials=trials, successes=successes, rate=successes / trials,
                   wilson_lo=lo, wilson_hi=hi, config_echo=config, per_trial=per_trial)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_trial"}

    def csv_rows(self) -> list[dict]:
        return self.per_trial or []


@dataclass
class SweepCurve:
    """Acceptance-probability estimates over a bias grid."""

    xi_grid: list[float]
    acc_estimates: list[float]
    trials_per_point: int
    intervals: list[tuple[float, float]]
    config_echo: dict

    csv_columns = ["experiment_id", "grid_index", "xi", "trials", "rate", "wilson_lo", "wilson_hi"]

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[dict]:
        return [
            {"experiment_id": "sweep", "grid_index": g, "xi": xi, "trials": self.trials_per_point,
             "rate": acc, "wilson_lo": lo, "wilson_hi": hi}
            for g, (xi, acc, (lo, hi)) in enumerate(zip(self.xi_grid, self.acc_estimates, self.intervals))
        ]


# ---------------------------------------------------------------------------
# Priors over instances (picklable callables for the replicability protocol)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairedBiasPrior:
    """Draw paired-bias instances with xi uniform on [0, xi_max].

    With ``xi_max = 2 eps`` the TV distance from uniform spans exactly
    [0, eps], the gap region of the testing definition.
    """

    xi_max: float

    def __call__(self, rng: np.random.Generator) -> InstanceSpec:
        return InstanceSpec.paired_bias(float(rng.uniform(0.0, self.xi_max)))

    def describe(self) -> str:
        return f"PairedBiasPrior(xi_max={self.xi_max!r})"


@dataclass(frozen=True)
class FixedPrior:
    """Every pair gets the same instance."""

    spec: InstanceSpec

    def __call__(self, rng: np.random.Generator) -> InstanceSpec:
        return self.spec

    def describe(self) -> str:
        return f"FixedPrior({self.spec.describe()})"


# ---------------------------------------------------------------------------
# Worker functions (module level so process pools can pickle them)
# ---------------------------------------------------------------------------


def _verdict_row(experiment_id: str, trial: int, run, spec: InstanceSpec, v: Verdict, agree="") -> dict:
    return {
        "experiment_id": experiment_id,
        "trial": trial,
        "run": "" if run is None else run,
        "instance_kind": spec.kind,
        "xi": "" if spec.xi is None else repr(spec.xi),
        "n": v.n,
        "m": v.m,
        "m0": v.m0,
        "statistic": repr(v.statistic),
        "threshold": repr(v.threshold),
        "r0": repr(v.r0),
        "decision": v.decision,
        "agree": agree,
    }


def _trial(args) -> Verdict:
    """One tester run with its coin and data streams built from their Philox keys."""
    pmf, params, internal_key, sample_key = args
    return run_tester(pmf, params, SeedSplit(internal=keyed(internal_key), sample=keyed(sample_key)))


class BarrierStatistic(NamedTuple):
    """How the barrier study samples, scores and scales one statistic."""

    sample: Callable  # (pmf, m, runs, rng) -> the runs' fingerprints
    score: Callable   # (fingerprints, n, m) -> each run's exact value
    gap: Callable     # (n, m, eps) -> the uniform-vs-far expectation gap scale


BARRIER_STATISTICS = {
    "collision": BarrierStatistic(_multinomial_fingerprints,
                                  lambda f, n, m: [float(c) for c in _collision_counts(*f, m)],
                                  lambda n, m, eps: m * m * eps * eps / n),
    "chi2": BarrierStatistic(_poissonized_fingerprints, lambda f, n, m: _chi2_sums(*f, n, m),
                             lambda n, m, eps: m * eps * eps),
    "tvstat": BarrierStatistic(_multinomial_fingerprints,
                               lambda f, n, m: [num / (2 * m * n) for num in _tv_sums(*f, m, n)],
                               lambda n, m, eps: expectation_gap(n, m, eps, 1.0)[1]),
}


def _barrier_point(args) -> list[float]:
    """All runs of one (statistic, m) grid point, drawn as fingerprints from the point's stream."""
    pmf, kind, m, runs, key = args
    stat = BARRIER_STATISTICS[kind]
    return stat.score(stat.sample(pmf, m, runs, keyed(key)), pmf.n, m)


def _map_jobs(fn, jobs, workers: int):
    if workers < 1:
        raise ValueError("need workers >= 1")
    # the pool starts all of its processes at the first submit: start no idle
    # ones, and none beyond the CPUs this process may run on
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(sched_getaffinity(0)) if sched_getaffinity else (os.cpu_count() or 1)
    workers = min(workers, len(jobs), cpus)
    if workers <= 1:
        return [fn(job) for job in jobs]
    chunk = max(1, len(jobs) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _params_echo(params: TesterParams) -> dict:
    m, m0 = derive_sizes(params)
    return {**asdict(params), "m": m, "m0": m0}


def correctness_experiment(
    instance: InstanceSpec,
    params: TesterParams,
    trials: int,
    master_seed: int,
    expect: str = "accept",
    workers: int = 1,
) -> ExperimentReport:
    """Estimate the probability the tester gives the declared answer.

    ``expect`` is the caller-declared correct decision for the instance
    ("accept" for uniform-family instances, "reject" for far ones).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if expect not in ("accept", "reject"):
        raise ValueError("expect must be 'accept' or 'reject'")
    pmf = make_instance(instance, params.n)
    keys = stream_keys(master_seed, EXP_CORRECTNESS, np.arange(trials)[:, None], (ROLE_INTERNAL, ROLE_SAMPLE))
    jobs = [(pmf, params, internal, sample) for internal, sample in keys]
    verdicts = _map_jobs(_trial, jobs, workers)
    rows = [_verdict_row("correctness", t, None, instance, v) for t, v in enumerate(verdicts)]
    successes = sum(v.decision == expect for v in verdicts)
    config = {
        "experiment": "correctness", "instance": instance.describe(),
        "expect": expect, "trials": trials, "master_seed": master_seed,
        "params": _params_echo(params),
    }
    return ExperimentReport.from_counts(successes, trials, config, per_trial=rows)


def replicability_experiment(
    prior,
    params: TesterParams,
    pairs: int,
    master_seed: int,
    workers: int = 1,
    shared_sample_seeds: bool = False,
) -> ExperimentReport:
    """Two-run agreement rate with a shared internal coin stream.

    Per pair: an instance is drawn from ``prior`` (a ``PairedBiasPrior``,
    a ``FixedPrior`` or any callable ``rng -> InstanceSpec`` with a
    ``describe()`` for the config echo), the internal stream is
    derived once and replayed in both runs, and the sample streams are
    independent (unless ``shared_sample_seeds`` asks for the degenerate
    control where both runs see identical samples).  Success is identical
    decisions.
    """
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    if prior is None:
        prior = PairedBiasPrior(xi_max=2.0 * params.eps)
    pair = np.arange(pairs)[:, None]
    pair_keys = stream_keys(master_seed, EXP_REPLICABILITY, pair, (ROLE_INSTANCE, ROLE_INTERNAL))
    runs = (0, 0) if shared_sample_seeds else (0, 1)
    sample_keys = stream_keys(master_seed, EXP_REPLICABILITY, pair, runs, ROLE_SAMPLE)
    specs = [prior(keyed(instance)) for instance, _ in pair_keys]
    jobs = []
    for spec, (_, internal), samples in zip(specs, pair_keys, sample_keys):
        pmf = make_instance(spec, params.n)
        jobs += [(pmf, params, internal, sample) for sample in samples]
    verdicts = _map_jobs(_trial, jobs, workers)
    rows, successes = [], 0
    for k, spec in enumerate(specs):
        pair = verdicts[2 * k:2 * k + 2]
        agree = int(pair[0].decision == pair[1].decision)
        successes += agree
        rows += [_verdict_row("replicability", k, run, spec, v, agree) for run, v in enumerate(pair)]
    config = {
        "experiment": "replicability", "prior": prior.describe(), "pairs": pairs,
        "shared_sample_seeds": shared_sample_seeds, "master_seed": master_seed,
        "params": _params_echo(params),
    }
    return ExperimentReport.from_counts(successes, pairs, config, per_trial=rows)


def acceptance_sweep(
    params: TesterParams,
    xi_grid,
    trials_per_point: int,
    master_seed: int,
    fixed_internal: bool = False,
    workers: int = 1,
) -> SweepCurve:
    """Estimate Acc(xi) on paired-bias instances over a bias grid.

    With ``fixed_internal`` the internal stream state is frozen across the
    whole sweep (every trial replays the same coin, so the tester is the
    deterministic fixed-seed algorithm of the lower-bound argument).
    """
    xi_grid = [float(x) for x in xi_grid]
    if not xi_grid:
        raise ValueError("xi grid must be non-empty")
    if any(not 0.0 <= x <= 1.0 for x in xi_grid):
        raise ValueError("xi grid must lie within [0, 1]")
    if any(b <= a for a, b in zip(xi_grid, xi_grid[1:])):
        raise ValueError("xi grid must be strictly increasing")
    if trials_per_point < 1:
        raise ValueError("need trials_per_point >= 1")
    g, t = np.arange(len(xi_grid))[:, None], np.arange(trials_per_point)
    sample_keys = stream_keys(master_seed, EXP_SWEEP, g, t, ROLE_SAMPLE)
    internal_keys = (np.broadcast_to(stream_keys(master_seed, EXP_SWEEP, ROLE_INTERNAL), sample_keys.shape)
                     if fixed_internal else stream_keys(master_seed, EXP_SWEEP, g, t, ROLE_INTERNAL))
    jobs = []
    for xi, internals, samples in zip(xi_grid, internal_keys, sample_keys):
        pmf = make_instance(InstanceSpec.paired_bias(xi), params.n)
        jobs += [(pmf, params, internal, sample) for internal, sample in zip(internals, samples)]
    verdicts = _map_jobs(_trial, jobs, workers)
    accepts = [sum(v.accept for v in verdicts[g * trials_per_point:(g + 1) * trials_per_point])
               for g in range(len(xi_grid))]
    estimates = [a / trials_per_point for a in accepts]
    intervals = [wilson_interval(a, trials_per_point) for a in accepts]
    config = {
        "experiment": "sweep", "trials_per_point": trials_per_point,
        "fixed_internal": fixed_internal, "master_seed": master_seed,
        "params": _params_echo(params),
    }
    return SweepCurve(xi_grid=xi_grid, acc_estimates=estimates,
                      trials_per_point=trials_per_point, intervals=intervals,
                      config_echo=config)


@dataclass
class BarrierRow:
    m: int
    runs: int
    mean: float
    sd: float
    gap: float

    @property
    def sd_over_gap(self) -> float:
        return self.sd / self.gap

    def to_dict(self) -> dict:
        return {**asdict(self), "sd_over_gap": self.sd_over_gap}


@dataclass
class BarrierResult:
    kind: str
    n: int
    rows: list[BarrierRow]
    slope: float
    config_echo: dict = field(default_factory=dict)

    csv_columns = ["experiment_id", "m", "runs", "mean", "sd", "gap", "sd_over_gap"]

    def to_dict(self) -> dict:
        return {**asdict(self), "rows": [r.to_dict() for r in self.rows]}

    def csv_rows(self) -> list[dict]:
        return [{"experiment_id": f"barrier-{self.kind}", **r.to_dict()} for r in self.rows]


def barrier_experiment(
    kind: str,
    n: int,
    m_grid,
    runs_per_m: int,
    master_seed: int,
    eps: float = 0.5,
    workers: int = 1,
) -> BarrierResult:
    """Inter-run deviation of a statistic on the single-heavy-element instance.

    The instance puts mass ``n**-0.5`` on one element.  For each m the
    statistic is recomputed on ``runs_per_m`` independent batches; the
    report carries the run-to-run standard deviation and the ratio to the
    statistic's uniform-vs-far expectation gap scale (for the TV statistic,
    the tester's gap schedule with ``C = 1``).  The log-log slope of sd
    against m is the quantity the barrier arguments predict (3/2 for
    collisions, 1/2 for chi-square).
    """
    m_grid = [int(m) for m in m_grid]
    if len(m_grid) < 2 or min(m_grid) < 2:
        raise ValueError("m grid needs at least two points, each m >= 2")
    if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError("m grid must be strictly increasing")
    if runs_per_m < 2:
        raise ValueError("need runs_per_m >= 2 for a standard deviation")
    if n < 2:
        raise ValueError("domain size must be >= 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if kind not in BARRIER_STATISTICS:
        raise ValueError(f"unknown barrier statistic {kind!r}")
    gaps = [BARRIER_STATISTICS[kind].gap(n, m, eps) for m in m_grid]
    heavy_mass = n ** -0.5
    pmf = make_instance(InstanceSpec.heavy(heavy_mass), n)
    keys = stream_keys(master_seed, EXP_BARRIER, np.arange(len(m_grid)), ROLE_SAMPLE)
    jobs = [(pmf, kind, m, runs_per_m, key) for m, key in zip(m_grid, keys)]
    per_point = _map_jobs(_barrier_point, jobs, workers)
    rows = []
    for m, gap, point_values in zip(m_grid, gaps, per_point):
        values = np.array(point_values)
        rows.append(BarrierRow(
            m=m, runs=runs_per_m, mean=float(values.mean()),
            sd=float(values.std(ddof=1)), gap=gap,
        ))
        if rows[-1].sd == 0.0:
            raise ValueError(f"{kind} statistic has sd 0 over {runs_per_m} runs at m = {m}: "
                             "the log-log slope needs a positive sd at every m")
    slope = float(np.polyfit(np.log([r.m for r in rows]), np.log([r.sd for r in rows]), 1)[0])
    config = {
        "experiment": f"barrier-{kind}", "n": n, "eps": eps,
        "heavy_mass": heavy_mass, "m_grid": m_grid, "runs_per_m": runs_per_m,
        "master_seed": master_seed,
    }
    return BarrierResult(kind=kind, n=n, rows=rows, slope=slope, config_echo=config)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


class CalibrationError(RuntimeError):
    """Raised when no gap constant satisfies every pilot instance."""


def calibrate(
    pilot_grid,
    rho: float,
    trials: int,
    master_seed: int,
    c_m1: float = 1.0,
    c_m2: float = 1.0,
    c_m0: float = 3.0,
    workers: int = 1,
) -> tuple[dict[str, float], list[str]]:
    """Pick the gap constant from pilot Monte Carlo quantiles.

    For each pilot ``(n, eps)`` the far instance is the paired-bias
    distribution at ``2 eps`` (TV distance exactly eps).  Feasibility per
    pilot: the far S_median must exceed ``mu + c_gap * base`` at its
    ``rho/4`` quantile (upper bound on ``c_gap``) while the uniform S_median
    stays below ``mu + c_gap * base / 4`` at its ``1 - rho/4`` quantile
    (lower bound).  The Monte Carlo draws do not depend on ``c_gap``, so the
    bisection over pass/fail collapses to direct quantile inversion; the
    returned constant is the log-midpoint of the intersected feasible
    interval across the grid — the most conservative choice that every
    pilot admits.

    Returns ``(constants, provenance_lines)`` or raises
    :class:`CalibrationError` with a per-pilot diagnostic.
    """
    pilot_grid = list(pilot_grid)
    if not pilot_grid:
        raise ValueError("pilot grid must be non-empty")
    if trials < 8:
        raise ValueError("need trials >= 8 for usable quantiles")
    lo_mult = 1.0 / R0_LOW  # the lowest threshold sits at R0_LOW * R
    provenance = [
        "calibrated constants for the TV-median uniformity tester",
        f"grid={pilot_grid!r} rho={rho!r} trials={trials} master_seed={master_seed}",
    ]
    c_lo_all, c_hi_all = 0.0, math.inf
    for pilot, (n, eps) in enumerate(pilot_grid):
        # c_gap = 1 makes the schedule's R the base gap that c_gap scales
        params = TesterParams(n=n, eps=eps, rho=rho, c_m1=c_m1, c_m2=c_m2, c_m0=c_m0, c_gap=1.0)
        m, m0, mu, _, base = _schedule(params)
        sides = (make_instance(InstanceSpec.uniform(), n), make_instance(InstanceSpec.paired_bias(2.0 * eps), n))
        keys = stream_keys(master_seed, EXP_CALIBRATE, pilot, np.arange(2)[:, None, None],
                           np.arange(trials)[:, None], (ROLE_INTERNAL, ROLE_SAMPLE))
        jobs = [(pmf, params, internal, sample)
                for pmf, side_keys in zip(sides, keys) for internal, sample in side_keys]
        s_median = np.array([v.statistic for v in _map_jobs(_trial, jobs, workers)])
        uni_hi = float(np.quantile(s_median[:trials], 1.0 - rho / 4.0))
        far_lo = float(np.quantile(s_median[trials:], rho / 4.0))
        c_lo = max(0.0, lo_mult * (uni_hi - mu) / base)
        c_hi = (far_lo - mu) / base
        provenance.append(
            f"pilot n={n} eps={eps}: m={m} m0={m0} mu={mu:.6g} base={base:.6g} "
            f"c_range=[{c_lo:.6g}, {c_hi:.6g}]"
        )
        if c_hi <= max(c_lo, 0.0):
            raise CalibrationError(
                f"pilot (n={n}, eps={eps}) admits no gap constant: "
                f"uniform needs c_gap > {c_lo:.6g} but far rejection needs c_gap < {c_hi:.6g}; "
                "increase c_m1/c_m2 or trials"
            )
        c_lo_all = max(c_lo_all, c_lo)
        c_hi_all = min(c_hi_all, c_hi)
    if c_hi_all <= c_lo_all:
        raise CalibrationError(
            f"pilot intervals are pairwise feasible but their intersection "
            f"[{c_lo_all:.6g}, {c_hi_all:.6g}] is empty across the grid"
        )
    lo_eff = max(c_lo_all, c_hi_all / 9.0, 1e-6)
    c_gap = math.sqrt(lo_eff * c_hi_all)
    provenance.append(
        f"intersection=[{c_lo_all:.6g}, {c_hi_all:.6g}] -> c_gap={c_gap!r} "
        "(log-midpoint with floor at one ninth of the ceiling)"
    )
    constants = {"c_gap": c_gap, "c_m1": c_m1, "c_m2": c_m2, "c_m0": c_m0}
    return constants, provenance


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def write_rows_csv(path: str, fieldnames: list[str], rows: list[dict], config: dict) -> None:
    """CSV with a config-echo comment header; bytes depend only on content."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_report_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_report(prefix: str, report) -> None:
    """``<prefix>.csv`` with the report's rows and ``<prefix>.json`` with its summary.

    ``report`` is an :class:`ExperimentReport`, :class:`SweepCurve` or
    :class:`BarrierResult`.
    """
    write_rows_csv(prefix + ".csv", report.csv_columns, report.csv_rows(), report.config_echo)
    write_report_json(prefix + ".json", report.to_dict())
