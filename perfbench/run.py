"""Benchmark of the repunif package: one workload per run.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations in a closed loop from one
process until ``--seconds`` have passed, checks the outputs, and prints one
line per check and metric, then one JSON object as the last line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run in which every layer's public functions are
wrapped in spans.  The package is imported from ``src/`` next to this
directory and is not modified.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
DEFAULT_SEED = 1
WORKERS_2W = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repunif benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("headline", "identity", "barrier", "oracles"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_probes(workload: str, seed: int) -> list[dict]:
    """Set up the workload in fresh interpreters, one after the other."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_rounds(wl, seconds: float, clock=None, tracer=None, reference=None):
    """Whole rounds until they have taken ``seconds``; returns (ops, rounds, wall).

    ``wall`` is the time spent in rounds: reference samples are not part of it.
    """
    ops = rounds = 0
    wall = 0.0
    while wall < seconds:
        spent = 0.0
        if reference is not None:
            reference.maybe_sample()
            spent = reference.spent
        t0 = time.perf_counter()
        ops += wl.run_round(rounds, clock)
        wall += time.perf_counter() - t0
        if reference is not None:
            wall -= reference.spent - spent
        rounds += 1
        if tracer is not None:
            tracer.end_first_round()
    if reference is not None:
        reference.sample()
    return ops, rounds, wall


def manifest(args, repunif, wl, nproc: int) -> dict:
    import numpy
    import scipy
    from repunif.constants import CONSTANTS_ENV_VAR
    return {
        "package": f"repunif {repunif.__version__}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        "constants_source": os.environ.get(CONSTANTS_ENV_VAR) or "packaged default_constants.txt",
        "constants": wl.constants,
        "workload": args.workload,
        "seed": args.seed,
        "round_seed": "SeedSequence([seed, round])",
        "workers": 1,
        "workers_2w": WORKERS_2W if args.workload == "headline" and not args.trace else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes": SETUP_PROBES,
    }


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    idx = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[idx]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repunif" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    probes = run_probes(args.workload, args.seed)

    import repunif
    if Path(repunif.__file__).resolve().parent != SRC / "repunif":
        print(f"perfbench: imported repunif from {repunif.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import layers
    import reference
    import spans
    import workloads

    nproc = len(os.sched_getaffinity(0))
    wl = workloads.make(args.workload, args.seed)
    print("manifest: " + json.dumps(manifest(args, repunif, wl, nproc), sort_keys=True))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        wl.outdir = outdir
        if args.trace:
            tracer = spans.Tracer()
            with spans.Patches() as patches:
                layers.install(patches, tracer)
                ops, rounds, wall = run_rounds(wl, args.seconds, tracer=tracer)
            summary = tracer.summary()
            self_total = sum(s["self_s"] for s in summary.values())
            results = wl.checks() + [checks.Check(
                "span self times sum to at most the traced wall time", self_total <= wall,
                f"{self_total:.4f} s of {wall:.4f} s")]
            metrics = layers.metrics(summary, rounds, tracer.first_round[1], probes)
            extra = [("traced_ops_per_s", ops / wall, "op/s")]
        else:
            clock = spans.OpClock()
            ref = reference.Reference(args.workload)
            with spans.Patches() as patches:
                wl.install_clock(patches, clock, ref)
                ops, rounds, wall = run_rounds(wl, args.seconds, clock=clock, reference=ref)
            ref_s = statistics.median(ref.samples)
            extra = [("ops_per_s", ops / wall, "op/s"), ("ref_ms", 1e3 * ref_s, "ms")]
            if args.workload == "headline" and nproc >= WORKERS_2W:
                wl.run_two_workers(WORKERS_2W)
                extra.append(("ops_per_s_2w", wl.ops_per_s_2w, "op/s"))
            results = wl.checks()
            metrics = [
                ("setup_s", statistics.median(p["setup_s"] for p in probes), "s"),
                ("ops_per_ref", ops / wall * ref_s, "op/ref"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            ]
            latencies = sorted(clock.latencies)
            if latencies:
                extra.append(("op_ms_p50", 1e3 * statistics.median(latencies), "ms"))
            if len(latencies) >= 1000:
                extra.append(("op_ms_p99", 1e3 * quantile(latencies, 0.99), "ms"))

    print(f"run: {ops} ops in {rounds} rounds, {wall:.3f} s")
    for check in results:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for name, value, unit in metrics + extra:
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(check.ok for check in results),
        "attempted": ops,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
