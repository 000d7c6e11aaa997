#!/usr/bin/env python3
"""Heavy-element barrier study: deviation scaling of the three statistics.

On the single-heavy-element instance (mass n**-0.5) the run-to-run deviation
of the collision statistic grows like m^1.5 and the chi-square statistic
like m^0.5, while the TV statistic's deviation-to-gap ratio stays below the
collision statistic's everywhere.  Writes one CSV per statistic.
"""

import argparse
import math
import pathlib

from repunif.harness import barrier_experiment, write_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10**4)
    parser.add_argument("--runs-per-m", type=int, default=2000)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = int(4 * math.sqrt(args.n))
    m_grid = [base * 2**k for k in range(5)]

    for kind in ("collision", "chi2", "tvstat"):
        result = barrier_experiment(kind, args.n, m_grid, args.runs_per_m,
                                    args.seed, eps=args.eps, workers=args.workers)
        write_report(str(out / f"barrier_{kind}"), result)
        ratios = " ".join(f"{r.sd_over_gap:.3g}" for r in result.rows)
        print(f"{kind}: log-log sd slope = {result.slope:.3f}; sd/gap = {ratios}")


if __name__ == "__main__":
    main()
