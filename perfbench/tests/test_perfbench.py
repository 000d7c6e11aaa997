"""Tests of the benchmark itself: its checkers, references and wrappers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks as ref  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import repunif  # noqa: E402
from repunif import distributions, exact, harness, stats, tester  # noqa: E402
from repunif.constants import default_constants  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- checkers fail on wrong inputs -------------------------------------------


def test_check_rate_fails_on_low_rate():
    assert ref.check_rate("r", 95, 100, 0.9).ok
    assert not ref.check_rate("r", 89, 100, 0.9).ok
    assert not ref.check_rate("r", 0, 0, 0.9).ok


def test_check_slope_fails_on_wrong_slope():
    assert ref.check_slope("collision", 1.45, 1.5, 0.15).ok
    assert not ref.check_slope("collision", 1.0, 1.5, 0.15).ok
    assert not ref.check_slope("chi2", 0.66, 0.5, 0.15).ok


def test_check_reduction_fails_on_miscounted_pmfs():
    sizes = [1, 8, 10]
    pairs = sum(k * (k - 1) for k in sizes)
    assert ref.check_reduction(True, 19, pairs, sizes).ok
    assert not ref.check_reduction(True, 20, pairs, sizes).ok
    assert not ref.check_reduction(True, 19, pairs + 1, sizes).ok
    assert not ref.check_reduction(False, 19, pairs, sizes).ok


def test_check_thresholds_fails_outside_band():
    assert ref.check_thresholds([0.3, 0.5, 0.7], mu=0.0, gap=1.0).ok
    assert not ref.check_thresholds([0.3, 0.8], mu=0.0, gap=1.0).ok
    assert not ref.check_thresholds([0.2], mu=0.0, gap=1.0).ok
    assert not ref.check_thresholds([], mu=0.0, gap=1.0).ok


def test_check_means_fails_far_from_closed_form():
    assert ref.check_means("k", [10.1], [1.0], 100, [10.0]).ok
    assert not ref.check_means("k", [11.0], [1.0], 100, [10.0]).ok


def test_other_checkers_fail_on_wrong_inputs():
    assert not ref.check_sd_over_gap([0.5, 1.2], [1.0, 1.0]).ok
    assert not ref.check_identical("x", {"a": b"1"}, {"a": b"2"}).ok
    assert not ref.check_identical("x", {}, {}).ok
    assert not ref.check_ratio_band("x", [4.0, 7.0], 2.5, 6.0).ok
    assert not ref.check_sizes("x", {(1000, 7785, 9)}, (1000, 7784, 9)).ok
    assert not ref.check_close("x", [1e-11], 1e-12).ok


# -- references agree with the package where they should ---------------------


def test_size_formula_matches_headline_point():
    c = default_constants()
    assert ref.size_formula(1000, 0.25, 0.2, c) == (7784, 9)
    params = tester.TesterParams.from_constants(1200, 0.1, 0.2, c)
    assert ref.size_formula(1200, 0.1, 0.2, c) == tester.derive_sizes(params)


def test_uniform_tv_mean_matches_exact_uniform_mean():
    for n, m in [(2, 1), (5, 7), (1000, 7784)]:
        assert ref.uniform_tv_mean(n, m) == pytest.approx(stats.exact_uniform_mean(n, m), abs=1e-12)


def test_barrier_closed_forms_match_brute_force():
    n = 4  # heavy mass n^-1/2 = 1/2
    pmf = distributions.make_instance(distributions.InstanceSpec.heavy(n ** -0.5), n)
    for m in (2, 5):
        want = ref.barrier_means(n, m)
        brute_coll = exact.brute_force_mean_statistic(pmf, m, stats.collision_statistic)
        brute_tv = exact.brute_force_mean_statistic(pmf, m, stats.tv_statistic)
        assert want["collision"] == pytest.approx(brute_coll, abs=1e-12)
        assert want["tvstat"] == pytest.approx(brute_tv, abs=1e-12)


def test_count_rational_pmfs_matches_family():
    for n in (1, 2, 3):
        assert ref.count_rational_pmfs(n, 8) == len(exact.rational_pmfs(n, 8))
    assert ref.count_rational_pmfs(2, 2) == 3  # (1, 0), (0, 1), (1/2, 1/2)


def test_loglog_slope_recovers_exponent():
    ms = [400, 800, 1600]
    assert ref.loglog_slope(ms, [m ** 1.5 for m in ms]) == pytest.approx(1.5)


# -- wrappers ----------------------------------------------------------------


def _package_bindings():
    out = {}
    for mod in spans._package_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    out[("IdentityReducer", "map_many")] = vars(tester.IdentityReducer)["map_many"]
    return out


def test_wrappers_restore_every_patched_name():
    before = _package_bindings()
    tracer = spans.Tracer()
    clock = spans.OpClock()
    with spans.Patches() as patches:
        layers.install(patches, tracer)
        assert harness.draw_batch is not before[("repunif.harness", "draw_batch")]
        assert tester.draw_batch is harness.draw_batch is distributions.draw_batch
        assert repunif.stream is harness.stream
        for name in ("headline", "barrier", "oracles"):
            workloads.make(name, 1).install_clock(patches, clock, reference.Reference(name))
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_records_parents_and_self_time():
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        layers.install(patches, tracer)
        pmf = distributions.make_instance(distributions.InstanceSpec.uniform(), 50)
        stats.tv_statistic(distributions.draw_batch(pmf, 10, np.random.default_rng(0)))
        params = tester.TesterParams.from_constants(50, 0.3, 0.2, default_constants())
        seeds = repunif.SeedSplit(internal=repunif.rng.stream(1, 0), sample=repunif.rng.stream(1, 1))
        tester.run_tester(pmf, params, seeds)
        tracer.end_first_round()
    m, m0 = tester.derive_sizes(params)
    summary = tracer.summary()
    run = summary["tester.run_tester"]
    assert run["calls"] == 1 and 0 < run["self_s"] < run["busy_s"]
    assert summary["distributions.draw_batch.alias"]["calls"] == 1
    assert summary["distributions.draw_batch.multinomial"]["calls"] == m0
    top = [i for i in range(len(tracer.start)) if tracer.parent[i] == -1]
    assert math.fsum(s["self_s"] for s in summary.values()) == pytest.approx(
        math.fsum(tracer.end[i] - tracer.start[i] for i in top))
    assert tracer.counters["samples_drawn"] == 10 + m * m0


def test_every_workload_has_a_reference_kernel_outside_the_package():
    names = {w["name"] for w in _bench_json()["workloads"]}
    assert set(reference.KERNELS) == names
    assert not any(name.startswith("repunif") for name in vars(reference))
    ref_samples = reference.Reference("oracles")
    ref_samples.maybe_sample()
    ref_samples.maybe_sample()  # within every_s of the first: skipped
    assert len(ref_samples.samples) == 1 and ref_samples.samples[0] > 0


def test_layer_metric_names_match_benchmark_json():
    names = [(name, unit) for name, _, unit in layers.metrics(
        {}, 1, {}, [{"import_s": 1.0, "resolve_constants_s": 1.0, "exact_uniform_mean_cold_s": 0.0}])]
    assert names == [(m["name"], m["unit"]) for m in _bench_json()["per_layer"]]


# -- the command -------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, key):
    proc = _run(ROOT, "--workload", "identity", "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    want = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "headline", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
