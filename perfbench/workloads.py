"""The four benchmark workloads.

A workload is built from the benchmark seed (its set-up: constants, tester
parameters, instances and the first exact mean), then runs whole rounds of
operations, each round starting when the previous one ends.  Every call into
the package goes through a module attribute (``tester.run_identity_tester``)
so that the wrappers of :mod:`spans` see it.  After the run, ``checks()``
compares what the package returned against the references in :mod:`checks`.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repunif import constants, distributions, exact, harness, rng, stats, tester

import checks as ref

def round_seed(seed: int, r: int) -> int:
    """Master seed of round r: a pure function of (benchmark seed, round)."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.constants, t = _timed(constants.resolve_constants)
        self.setup_times = {"resolve_constants_s": t, "exact_uniform_mean_cold_s": 0.0}
        self.outdir: str | None = None

    def install_clock(self, patches, clock, reference) -> None:
        """Wrap the package boundaries where an operation starts and ends."""

    def run_round(self, r: int, clock) -> int:
        """Run round r; return the number of operations it completed."""
        raise NotImplementedError

    def checks(self) -> list[ref.Check]:
        raise NotImplementedError


class Headline(Workload):
    """Correctness and paired replicability at the paper's headline point."""

    name = "headline"
    N, EPS, RHO = 1000, 0.25, 0.2
    TRIALS = 100      # correctness trials per instance per round
    PAIRS = 50        # replicability pairs per round
    COMPARE_ROUNDS = 2  # rounds re-run with workers=2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = tester.TesterParams.from_constants(self.N, self.EPS, self.RHO, self.constants)
        m, _ = tester.derive_sizes(self.params)
        _, t = _timed(stats.exact_uniform_mean, self.N, m)
        self.setup_times["exact_uniform_mean_cold_s"] = t
        self.far = distributions.InstanceSpec.paired_bias(2 * self.EPS)
        self.prior = harness.PairedBiasPrior(xi_max=2 * self.EPS)
        self.tally = {"uniform": [0, 0], "far": [0, 0], "agree": [0, 0]}
        self.thresholds: list[float] = []
        self.sizes: set[tuple[int, int, int]] = set()
        self.csv_w1: dict[str, bytes] = {}
        self.ops_per_s_2w: float | None = None
        self.csv_w2: dict[str, bytes] = {}

    def install_clock(self, patches, clock, reference) -> None:
        patches.wrap(harness, "run_tester", clock.whole)

    def _experiments(self, r: int, workers: int):
        seed = round_seed(self.seed, r)
        uni = harness.correctness_experiment(distributions.InstanceSpec.uniform(), self.params,
                                             self.TRIALS, seed, expect="accept", workers=workers)
        far = harness.correctness_experiment(self.far, self.params, self.TRIALS, seed,
                                             expect="reject", workers=workers)
        rep = harness.replicability_experiment(self.prior, self.params, self.PAIRS, seed,
                                               workers=workers)
        return {"correctness-uniform": uni, "correctness-far": far, "replicability": rep}

    def _write(self, reports, tag: str) -> dict[str, bytes]:
        """Write each report as ``repunif experiment --out-prefix`` does."""
        csv_bytes = {}
        for label, rep in reports.items():
            prefix = os.path.join(self.outdir, f"{tag}-{label}")
            harness.write_rows_csv(prefix + ".csv", harness.CSV_COLUMNS, rep.per_trial,
                                   rep.config_echo)
            harness.write_report_json(prefix + ".json", rep.to_dict())
            with open(prefix + ".csv", "rb") as fh:
                csv_bytes[label] = fh.read()
        return csv_bytes

    def run_round(self, r: int, clock) -> int:
        reports = self._experiments(r, workers=1)
        written = self._write(reports, "w1")
        if r < self.COMPARE_ROUNDS:
            self.csv_w1.update({f"{r}:{k}": v for k, v in written.items()})
        for key in ("uniform", "far"):
            rep = reports[f"correctness-{key}"]
            self.tally[key][0] += rep.successes
            self.tally[key][1] += rep.trials
        rep = reports["replicability"]
        self.tally["agree"][0] += rep.successes
        self.tally["agree"][1] += rep.trials
        for rep in reports.values():
            for row in rep.per_trial:
                self.thresholds.append(float(row["threshold"]))
                self.sizes.add((row["n"], row["m"], row["m0"]))
        return 2 * self.TRIALS + 2 * self.PAIRS

    def run_two_workers(self, workers: int) -> None:
        """Re-run the first rounds through the harness with a process pool."""
        ops = 0
        t0 = time.perf_counter()
        for r in range(self.COMPARE_ROUNDS):
            written = self._write(self._experiments(r, workers=workers), "w2")
            self.csv_w2.update({f"{r}:{k}": v for k, v in written.items()})
            ops += 2 * self.TRIALS + 2 * self.PAIRS
        self.ops_per_s_2w = ops / (time.perf_counter() - t0)

    def checks(self) -> list[ref.Check]:
        m, m0 = ref.size_formula(self.N, self.EPS, self.RHO, self.constants)
        mu = ref.uniform_tv_mean(self.N, m)
        gap = ref.gap_schedule(self.N, m, self.EPS, self.constants["c_gap"])
        out = [
            ref.check_rate("uniform accept rate", *self.tally["uniform"], 0.9),
            ref.check_rate("far reject rate", *self.tally["far"], 0.9),
            ref.check_rate("two-run agreement", *self.tally["agree"], 1.0 - self.RHO),
            ref.check_thresholds(self.thresholds, mu, gap),
            ref.check_sizes("verdict (n, m, m0)", self.sizes, (self.N, m, m0)),
        ]
        if self.ops_per_s_2w is not None:
            out.append(ref.check_identical("workers=2 rows equal workers=1 rows",
                                           self.csv_w1, self.csv_w2))
        return out


class Identity(Workload):
    """Identity testing by reduction to uniformity on a domain of 6n."""

    name = "identity"
    N, EPS, RHO, Q_BIAS = 200, 0.3, 0.2, 0.4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = tester.TesterParams.from_constants(self.N, self.EPS, self.RHO, self.constants)
        self.q = distributions.make_instance(distributions.InstanceSpec.paired_bias(self.Q_BIAS), self.N)
        far = np.array(self.q.probs)
        shift = 2.0 * self.EPS / self.N   # TV(p, q) = (1/2) * n * shift = eps
        far[0::2] -= shift
        far[1::2] += shift
        self.p_far = distributions.Pmf(far)
        reduced = tester.TesterParams(
            n=6 * self.N, eps=self.EPS / 3.0, rho=self.RHO, c_m1=self.params.c_m1,
            c_m2=self.params.c_m2, c_m0=self.params.c_m0, c_gap=self.params.c_gap)
        m, _ = tester.derive_sizes(reduced)
        _, t = _timed(stats.exact_uniform_mean, 6 * self.N, m)
        self.setup_times["exact_uniform_mean_cold_s"] = t
        self.tally = {"q": [0, 0], "far": [0, 0]}
        self.sizes: set[tuple[int, int, int]] = set()

    def run_round(self, r: int, clock) -> int:
        for side, (p, key) in enumerate(((self.q, "q"), (self.p_far, "far"))):
            seeds = rng.SeedSplit(internal=rng.stream(self.seed, r, side, rng.ROLE_INTERNAL),
                                  sample=rng.stream(self.seed, r, side, rng.ROLE_SAMPLE))
            if clock is not None:
                clock.start()
            v = tester.run_identity_tester(p, self.q, self.params, seeds)
            if clock is not None:
                clock.stop()
            self.tally[key][0] += v.accept if key == "q" else not v.accept
            self.tally[key][1] += 1
            self.sizes.add((v.n, v.m, v.m0))
        return 2

    def checks(self) -> list[ref.Check]:
        tv = 0.5 * math.fsum(np.abs(self.p_far.probs - self.q.probs).tolist())
        return [
            ref.check_rate("accept rate on q", *self.tally["q"], 0.9),
            ref.check_rate("reject rate on far p", *self.tally["far"], 0.9),
            ref.Check("far p at TV eps from q", abs(tv - self.EPS) <= 1e-12, f"TV = {tv!r}"),
            ref.check_sizes("verdict (n, m, m0) on the reduced domain", self.sizes,
                            (6 * self.N, *ref.size_formula(6 * self.N, self.EPS / 3.0,
                                                           self.RHO, self.constants))),
        ]


class Barrier(Workload):
    """Heavy-element barrier scaling of the collision, chi-square and TV statistics."""

    name = "barrier"
    N = 10**4
    M_GRID = (400, 800, 1600, 3200, 6400)
    RUNS = 200    # batches per (statistic, m) per round
    KINDS = ("collision", "chi2", "tvstat")

    def __init__(self, seed: int):
        super().__init__(seed)
        heavy = self.N ** -0.5
        self.instance = distributions.make_instance(distributions.InstanceSpec.heavy(heavy), self.N)
        self.rows = {kind: [] for kind in self.KINDS}   # per round: list of rows
        self.slope_errors: list[float] = []

    def install_clock(self, patches, clock, reference) -> None:
        for name in ("draw_batch", "draw_poissonized_batch"):
            patches.wrap(harness, name, clock.starting)
        for name in ("collision_statistic", "chi2_statistic", "tv_statistic"):
            patches.wrap(harness, name, clock.stopping)

    def run_round(self, r: int, clock) -> int:
        seed = round_seed(self.seed, r)
        for kind in self.KINDS:
            result = harness.barrier_experiment(kind, self.N, self.M_GRID, self.RUNS, seed)
            self.rows[kind].append(result.rows)
            own = ref.loglog_slope([row.m for row in result.rows], [row.sd for row in result.rows])
            self.slope_errors.append(abs(own - result.slope))
        return len(self.KINDS) * len(self.M_GRID) * self.RUNS

    def _pooled(self, kind: str):
        """Mean, sd and sd/gap per m over every round's runs."""
        means, sds, ratios = [], [], []
        for g, m in enumerate(self.M_GRID):
            rows = [round_rows[g] for round_rows in self.rows[kind]]
            k, runs = len(rows), self.RUNS
            grand = sum(row.mean for row in rows) / k
            ss = sum((runs - 1) * row.sd ** 2 + runs * (row.mean - grand) ** 2 for row in rows)
            sd = math.sqrt(ss / (runs * k - 1))
            means.append(grand)
            sds.append(sd)
            ratios.append(sd / rows[0].gap)
        return means, sds, ratios

    def checks(self) -> list[ref.Check]:
        pooled = {kind: self._pooled(kind) for kind in self.KINDS}
        rounds = len(self.rows["collision"])
        heavy, light = ref.heavy_masses(self.N)
        expected_probs = np.full(self.N, light)
        expected_probs[0] = heavy
        out = [
            ref.check_close("instance masses match the closed forms' masses",
                            np.abs(self.instance.probs - expected_probs).tolist(), 1e-15),
            ref.check_close("package slope equals own fit", self.slope_errors, 1e-9),
            ref.check_slope("collision", ref.loglog_slope(self.M_GRID, pooled["collision"][1]), 1.5, 0.15),
            ref.check_slope("chi2", ref.loglog_slope(self.M_GRID, pooled["chi2"][1]), 0.5, 0.15),
            ref.check_sd_over_gap(pooled["tvstat"][2], pooled["collision"][2]),
        ]
        expected = [ref.barrier_means(self.N, m) for m in self.M_GRID]
        for kind in self.KINDS:
            means, sds, _ = pooled[kind]
            out.append(ref.check_means(kind, means, sds, self.RUNS * rounds,
                                       [e[kind] for e in expected]))
        return out


class Oracles(Workload):
    """The exact oracles: reduction scan, brute-force means, mutual information."""

    name = "oracles"
    MAX_N, MAX_DENOMINATOR = 4, 8
    BRUTE_N, BRUTE_M = range(2, 6), range(1, 8)
    MI_GRID = [(lam, eps, delta) for lam in (0.1, 0.5, 1.0)
               for eps in (0.1, 0.2) for delta in (0.01, 0.02)]

    def __init__(self, seed: int):
        # Exact computation on fixed inputs: the seed changes nothing here.
        super().__init__(seed)
        self.uniforms = {n: distributions.make_instance(distributions.InstanceSpec.uniform(), n)
                         for n in self.BRUTE_N}
        _, t = _timed(stats.exact_uniform_mean, self.BRUTE_N[0], self.BRUTE_M[0])
        self.setup_times["exact_uniform_mean_cold_s"] = t
        self.scans = []
        self.brute_errors: list[float] = []
        self.delta_ratios: list[float] = []
        self.lam_ratios: list[float] = []
        self.zero = None

    def install_clock(self, patches, clock, reference) -> None:
        # A round is mostly one reduction_check call of several seconds, in
        # which the machine's speed moves: sample the reference inside it.
        patches.wrap(exact, "exact_pushforward", reference.sampling_before)

    def _mi(self, lam, eps0, eps1):
        return exact.mutual_info_pair(exact.pair_joint(lam, eps0, eps1))

    def run_round(self, r: int, clock) -> int:
        # The pairs are checked inside one call, so no per-operation latency.
        scan = exact.reduction_check(self.MAX_N, self.MAX_DENOMINATOR)
        self.scans.append(scan)
        ops = scan.num_pairs
        for n in self.BRUTE_N:
            for m in self.BRUTE_M:
                brute = exact.brute_force_mean_statistic(self.uniforms[n], m, stats.tv_statistic)
                self.brute_errors.append(abs(brute - stats.exact_uniform_mean(n, m)))
                ops += 1
        for lam, eps, delta in self.MI_GRID:
            full = self._mi(lam, eps - delta, eps).value
            self.delta_ratios.append(full / self._mi(lam, eps - delta / 2, eps).value)
            self.lam_ratios.append(full / self._mi(lam / 2, eps - delta, eps).value)
            ops += 3
        self.zero = self._mi(0.5, 0.2, 0.2)
        return ops + 1

    def checks(self) -> list[ref.Check]:
        sizes = [ref.count_rational_pmfs(n, self.MAX_DENOMINATOR) for n in range(1, self.MAX_N + 1)]
        scan = self.scans[0]
        return [
            ref.check_reduction(scan.passed, scan.num_pmfs, scan.num_pairs, sizes),
            ref.Check("every scan repeats the first", all(s == scan for s in self.scans),
                      f"{len(self.scans)} scans"),
            ref.check_close("brute force equals exact_uniform_mean", self.brute_errors, 1e-12),
            ref.check_ratio_band("halving delta divides MI by about 4", self.delta_ratios, 2.5, 6.0),
            ref.check_ratio_band("halving lambda divides MI by about 4", self.lam_ratios, 2.5, 6.0),
            ref.Check("MI is zero at delta = 0", self.zero.value <= self.zero.error_budget <= 1e-12,
                      f"I={self.zero.value:.1e} budget={self.zero.error_budget:.1e}"),
        ]


def make(name: str, seed: int) -> Workload:
    """Build a workload: its set-up, up to the first timed operation."""
    cls = {w.name: w for w in (Headline, Identity, Barrier, Oracles)}[name]
    return cls(seed)
