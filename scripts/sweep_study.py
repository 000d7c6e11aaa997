#!/usr/bin/env python3
"""Acceptance-probability curve over the paired-bias family.

With --fixed-internal the tester's coin is frozen across the sweep, so the
curve is the acceptance probability of one deterministic tester; it crosses
1/2 somewhere between bias 0 (accept region) and bias 2*eps (reject region).
"""

import argparse
import pathlib

import numpy as np

from repunif.constants import default_constants
from repunif.harness import acceptance_sweep, write_report
from repunif.tester import TesterParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--eps", type=float, default=0.25)
    parser.add_argument("--rho", type=float, default=0.2)
    parser.add_argument("--points", type=int, default=21)
    parser.add_argument("--trials-per-point", type=int, default=200)
    parser.add_argument("--fixed-internal", action="store_true")
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = TesterParams.from_constants(args.n, args.eps, args.rho, default_constants())
    grid = np.linspace(0.0, 2 * args.eps, args.points)
    curve = acceptance_sweep(params, grid, args.trials_per_point, args.seed,
                             fixed_internal=args.fixed_internal, workers=args.workers)
    write_report(str(out / "sweep"), curve)
    for xi, acc in zip(curve.xi_grid, curve.acc_estimates):
        print(f"xi={xi:.4f}  acc={acc:.3f}")


if __name__ == "__main__":
    main()
