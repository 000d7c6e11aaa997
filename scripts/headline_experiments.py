#!/usr/bin/env python3
"""Correctness and replicability rates at the headline parameter point.

Runs the three protocol experiments (uniform accept, far reject, paired-run
agreement) at n=1000, eps=0.25, rho=0.2 with the packaged constants, and
writes one CSV + JSON summary per experiment under --out-dir.
"""

import argparse
import pathlib

from repunif.constants import default_constants
from repunif.distributions import InstanceSpec
from repunif.harness import (
    PairedBiasPrior,
    correctness_experiment,
    replicability_experiment,
    write_report,
)
from repunif.tester import TesterParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--eps", type=float, default=0.25)
    parser.add_argument("--rho", type=float, default=0.2)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--pairs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = TesterParams.from_constants(args.n, args.eps, args.rho, default_constants())

    runs = [
        ("uniform_accept", correctness_experiment(
            InstanceSpec.uniform(), params, args.trials, args.seed,
            workers=args.workers)),
        ("far_reject", correctness_experiment(
            InstanceSpec.paired_bias(2 * args.eps), params, args.trials,
            args.seed + 1, expect="reject", workers=args.workers)),
        ("replicability", replicability_experiment(
            PairedBiasPrior(xi_max=2 * args.eps), params, args.pairs,
            args.seed + 2, workers=args.workers)),
    ]
    for name, rep in runs:
        write_report(str(out / name), rep)
        print(f"{name}: rate={rep.rate:.4f} "
              f"wilson=[{rep.wilson_lo:.4f}, {rep.wilson_hi:.4f}] ({rep.trials} trials)")


if __name__ == "__main__":
    main()
