"""Which package functions the traced run wraps, and the per-layer metrics.

The layers are the package modules: ``rng``, ``distributions``, ``stats``,
``tester``, ``harness`` and ``exact``, plus ``constants``/``cli`` for
start-up, which the set-up probe times in a fresh interpreter.

Totals (``busy_s``, ``self_s``) are per round of the workload, times per
call are over the whole run, and counts are those of the first round, which
repeat exactly for a given seed.  A layer the workload does not reach reads 0.
"""

from __future__ import annotations

import os
import statistics

from repunif import distributions, exact, harness, rng, stats, tester


def _draw_path(p, m, *rest) -> str:
    return "multinomial" if m >= p.n else "alias"


def _samples(args, result) -> dict[str, int]:
    return {"samples_drawn": int(round(args[1]))}


def _csv_bytes(args, result) -> dict[str, int]:
    return {"csv_bytes": os.path.getsize(args[0])}


# (owner, attribute, span name, label, count)
TRACED = (
    (rng, "stream", "rng.stream", None, None),
    (distributions, "draw_batch", "distributions.draw_batch", _draw_path, _samples),
    (distributions, "draw_poissonized_batch", "distributions.draw_poissonized_batch", None, _samples),
    (distributions, "draw_samples", "distributions.draw_samples", None, _samples),
    (distributions, "make_instance", "distributions.make_instance", None, None),
    (distributions, "tv_distance", "distributions.tv_distance", None, None),
    (stats, "tv_statistic", "stats.tv_statistic", None, None),
    (stats, "collision_statistic", "stats.collision_statistic", None, None),
    (stats, "chi2_statistic", "stats.chi2_statistic", None, None),
    (stats, "exact_uniform_mean", "stats.exact_uniform_mean", None, None),
    (tester, "run_tester", "tester.run_tester", None, None),
    (tester, "run_identity_tester", "tester.run_identity_tester", None, None),
    (tester.IdentityReducer, "map_many", "tester.IdentityReducer.map_many", None, None),
    (harness, "correctness_experiment", "harness.correctness_experiment", None, None),
    (harness, "replicability_experiment", "harness.replicability_experiment", None, None),
    (harness, "barrier_experiment", "harness.barrier_experiment", None, None),
    (harness, "write_rows_csv", "harness.write_rows_csv", None, _csv_bytes),
    (exact, "exact_pushforward", "exact.exact_pushforward", None, None),
    (exact, "reduction_check", "exact.reduction_check", None, None),
    (exact, "brute_force_mean_statistic", "exact.brute_force_mean_statistic", None, None),
    (exact, "pair_joint", "exact.pair_joint", None, None),
    (exact, "mutual_info_pair", "exact.mutual_info_pair", None, None),
)


def install(patches, tracer) -> None:
    for owner, attr, name, label, count in TRACED:
        patches.wrap(owner, attr, tracer.spanning(name, label, count))


def metrics(summary: dict, rounds: int, counters: dict, probes: list[dict]) -> list[tuple[str, float, str]]:
    """Per-layer metrics as (name, value, unit)."""
    empty = {"calls": 0, "first_round_calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name):
        return summary.get(name, empty)

    def calls(*names):
        return sum(get(n)["first_round_calls"] for n in names)

    def per_call(name, key="busy_s", scale=1e6):
        s = get(name)
        return scale * s[key] / s["calls"] if s["calls"] else 0.0

    def per_round(name, key="busy_s"):
        return get(name)[key] / rounds

    def probe(key, scale=1.0):
        return scale * statistics.median(p[key] for p in probes)

    draws = ("distributions.draw_batch.multinomial", "distributions.draw_batch.alias")
    return [
        ("rng.stream.calls", calls("rng.stream"), "count"),
        ("rng.stream.us_per_call", per_call("rng.stream"), "us"),
        ("distributions.draw_batch.calls", calls(*draws), "count"),
        ("distributions.draw_batch.multinomial.us_per_call", per_call(draws[0]), "us"),
        ("distributions.draw_batch.alias.us_per_call", per_call(draws[1]), "us"),
        ("distributions.samples_drawn", counters.get("samples_drawn", 0), "count"),
        ("distributions.draw_poissonized_batch.us_per_call",
         per_call("distributions.draw_poissonized_batch"), "us"),
        ("distributions.draw_samples.busy_s", per_round("distributions.draw_samples"), "s"),
        ("distributions.make_instance.busy_s", per_round("distributions.make_instance"), "s"),
        ("distributions.tv_distance.us_per_call", per_call("distributions.tv_distance"), "us"),
        ("stats.tv_statistic.calls", calls("stats.tv_statistic"), "count"),
        ("stats.tv_statistic.us_per_call", per_call("stats.tv_statistic"), "us"),
        ("stats.collision_statistic.us_per_call", per_call("stats.collision_statistic"), "us"),
        ("stats.chi2_statistic.us_per_call", per_call("stats.chi2_statistic"), "us"),
        ("stats.exact_uniform_mean.calls", calls("stats.exact_uniform_mean"), "count"),
        ("stats.exact_uniform_mean.cold_ms", probe("exact_uniform_mean_cold_s", 1e3), "ms"),
        ("tester.run_tester.self_us", per_call("tester.run_tester", "self_s"), "us"),
        ("tester.run_identity_tester.self_ms",
         per_call("tester.run_identity_tester", "self_s", 1e3), "ms"),
        ("tester.IdentityReducer.map_many.calls", calls("tester.IdentityReducer.map_many"), "count"),
        ("tester.IdentityReducer.map_many.busy_s", per_round("tester.IdentityReducer.map_many"), "s"),
        ("harness.correctness_experiment.self_s",
         per_round("harness.correctness_experiment", "self_s"), "s"),
        ("harness.replicability_experiment.self_s",
         per_round("harness.replicability_experiment", "self_s"), "s"),
        ("harness.barrier_experiment.self_s", per_round("harness.barrier_experiment", "self_s"), "s"),
        ("harness.write_rows_csv.busy_s", per_round("harness.write_rows_csv"), "s"),
        ("harness.csv_bytes", counters.get("csv_bytes", 0), "bytes"),
        ("exact.exact_pushforward.calls", calls("exact.exact_pushforward"), "count"),
        ("exact.exact_pushforward.us_per_call", per_call("exact.exact_pushforward"), "us"),
        ("exact.reduction_check.self_s", per_round("exact.reduction_check", "self_s"), "s"),
        ("exact.brute_force_mean_statistic.busy_s", per_round("exact.brute_force_mean_statistic"), "s"),
        ("exact.pair_joint.busy_s", per_round("exact.pair_joint"), "s"),
        ("exact.mutual_info_pair.busy_s", per_round("exact.mutual_info_pair"), "s"),
        ("cli.import_s", probe("import_s"), "s"),
        ("constants.resolve_constants.us", probe("resolve_constants_s", 1e6), "us"),
    ]
