"""Command-line interface.

Exit-code contract: 0 = accept / success, 1 = reject / failed assertion /
infeasible calibration, 2 = usage or configuration error, or a run too large
to allocate or with a sample size past the samplers' 2**63 limit.  Each
subcommand has its own handler, bound to it by ``set_defaults(func=...)``.
Identical command line + seed + constants file produces
byte-identical outputs, and every output file embeds its full resolved
configuration.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import exact
from .constants import CONSTANTS_ENV_VAR, resolve_constants, save_constants
from .distributions import InstanceSpec, Pmf, make_instance
from .harness import (
    BARRIER_STATISTICS,
    CalibrationError,
    acceptance_sweep,
    barrier_experiment,
    calibrate,
    correctness_experiment,
    replicability_experiment,
    write_report,
    write_rows_csv,
)
from .rng import DEFAULT_SEED, ROLE_INTERNAL, ROLE_SAMPLE, SeedSplit, stream
from .tester import TesterParams, run_tester

__all__ = ["main"]


def _parse_instance(text: str) -> InstanceSpec:
    kind, _, rest = text.partition(":")
    if kind == "uniform":
        return InstanceSpec.uniform()
    if kind == "point-mass":
        return InstanceSpec.heavy(1.0)
    if kind == "paired-bias":
        return InstanceSpec.paired_bias(float(rest))
    if kind == "heavy":
        return InstanceSpec.heavy(float(rest))
    raise ValueError(
        f"unknown instance {text!r} (use uniform, point-mass, "
        "paired-bias:XI, or heavy:PMASS)"
    )


def _load_pmf_file(path: str) -> Pmf:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return Pmf.from_json(text)
    return Pmf.from_text(text)


def _parse_grid(text: str) -> list[float]:
    lo, hi, count = text.split(":")
    return list(np.linspace(float(lo), float(hi), int(count)))


def _params(args) -> TesterParams:
    return TesterParams.from_constants(args.n, args.eps, args.rho,
                                       resolve_constants(args.constants))


def cmd_test(args) -> int:
    constants = resolve_constants(args.constants)
    if args.pmf_file:
        pmf = _load_pmf_file(args.pmf_file)
        if pmf.n != args.n:
            raise ValueError(f"--n {args.n} disagrees with pmf file domain {pmf.n}")
        instance_desc = args.pmf_file
    else:
        spec = _parse_instance("uniform" if args.instance is None else args.instance)
        pmf = make_instance(spec, args.n)
        instance_desc = spec.describe()
    params = TesterParams.from_constants(args.n, args.eps, args.rho, constants)
    seeds = SeedSplit(
        internal=stream(args.seed, ROLE_INTERNAL),
        sample=stream(args.seed, ROLE_SAMPLE),
    )
    verdict = run_tester(pmf, params, seeds)
    payload = verdict.to_dict()
    payload["config"] = {
        "instance": instance_desc, "seed": args.seed, "eps": args.eps,
        "rho": args.rho, "constants": constants,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if verdict.accept else 1


def _emit(report, args, label) -> None:
    if args.out_prefix:
        write_report(args.out_prefix, report)
    brief = {k: v for k, v in report.to_dict().items() if k != "config_echo"}
    print(f"{label}: {json.dumps(brief, sort_keys=True)}")


def _asserted_rate(args) -> float | None:
    """``--assert-rate``, checked before any trial runs."""
    rate = args.assert_rate
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ValueError(f"--assert-rate must lie in [0, 1], got {rate!r}")
    return rate


def cmd_correctness(args) -> int:
    rate = _asserted_rate(args)
    params = _params(args)
    spec = _parse_instance(args.instance)
    rep = correctness_experiment(spec, params, args.trials, args.seed,
                                 expect=args.expect, workers=args.workers)
    _emit(rep, args, "correctness")
    return 1 if rate is not None and rep.rate < rate else 0


def cmd_replicability(args) -> int:
    rate = _asserted_rate(args)
    rep = replicability_experiment(None, _params(args), args.pairs, args.seed, workers=args.workers)
    _emit(rep, args, "replicability")
    return 1 if rate is not None and rep.rate < rate else 0


def cmd_sweep(args) -> int:
    grid = args.grid if args.grid is not None else f"0:{2 * args.eps}:11"
    curve = acceptance_sweep(_params(args), _parse_grid(grid), args.trials, args.seed,
                             fixed_internal=args.fixed_internal, workers=args.workers)
    _emit(curve, args, "sweep")
    return 0


def cmd_barrier(args) -> int:
    m_grid = ([int(x) for x in args.m_grid.split(",")] if args.m_grid
              else [int(round(4 * math.sqrt(args.n) * 2**k)) for k in range(5)])
    result = barrier_experiment(args.stat, args.n, m_grid, args.runs_per_m,
                                args.seed, eps=args.eps, workers=args.workers)
    _emit(result, args, f"barrier-{args.stat} slope={result.slope:.4f}")
    return 0


def cmd_calibrate(args) -> int:
    if args.default_grid:
        grid = [(500, 0.3), (1000, 0.25), (2000, 0.2)]
    else:
        grid = []
        for part in args.grid.split(","):
            n_text, _, eps_text = part.partition(":")
            grid.append((int(n_text), float(eps_text)))
    constants, provenance = calibrate(grid, args.rho, args.trials, args.seed,
                                      c_m1=args.c_m1, c_m2=args.c_m2,
                                      c_m0=args.c_m0, workers=args.workers)
    if args.out:
        save_constants(args.out, constants, provenance)
    for line in provenance:
        print(f"# {line}")
    print(json.dumps(constants, sort_keys=True))
    return 0


def cmd_reduction_check(args) -> int:
    scan = exact.reduction_check(args.max_n, args.max_denominator)
    print(json.dumps({**asdict(scan), "passed": scan.passed}, sort_keys=True))
    return 0 if scan.passed else 1


def cmd_mi_grid(args) -> int:
    lambdas = [float(x) for x in args.lambdas.split(",")]
    epss = [float(x) for x in args.epss.split(",")]
    deltas = [float(x) for x in args.deltas.split(",")]
    rows = []
    for lam, eps, delta in itertools.product(lambdas, epss, deltas):
        d = exact.pair_joint(lam, eps - delta, eps)
        mi = exact.mutual_info_pair(d)
        rows.append({
            "lambda": repr(lam), "eps0": repr(eps - delta),
            "eps1": repr(eps), "K": d.truncation,
            "tail_mass": repr(d.tail_mass),
            "mi_nats": repr(mi.value),
            "error_budget": repr(mi.error_budget),
        })
    config = {"experiment": "mi-grid", "lambdas": lambdas, "epss": epss, "deltas": deltas}
    if args.out:
        write_rows_csv(args.out, list(rows[0]), rows, config)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repunif",
        description="Replicable uniformity testing: testers, experiments, and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_eps=True):
        p.add_argument("--n", type=int, required=True, help="domain size")
        if need_eps:
            p.add_argument("--eps", type=float, required=True, help="TV tolerance")
            p.add_argument("--rho", type=float, required=True, help="replicability parameter")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"master seed (default {DEFAULT_SEED})")
        p.add_argument("--constants", default=None,
                       help=f"constants file (default: ${CONSTANTS_ENV_VAR} or packaged)")

    def add_run(p, out="--out-prefix", assert_rate=False):
        p.add_argument("--workers", type=int, default=1)
        if assert_rate:
            p.add_argument("--assert-rate", type=float, default=None)
        p.add_argument(out, default=None)

    p_test = sub.add_parser("test", help="run the tester once")
    add_common(p_test)
    # argparse lets an option whose value is its default object past the
    # exclusion, so a "uniform" default would let "--instance uniform" through
    source = p_test.add_mutually_exclusive_group()
    source.add_argument("--instance", default=None)
    source.add_argument("--pmf-file", default=None)
    p_test.set_defaults(func=cmd_test)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiments")
    # no handler reads a subparser's dest: it names a missing subcommand in argparse's error
    exp_sub = p_exp.add_subparsers(dest="subkind", required=True)

    p_corr = exp_sub.add_parser("correctness")
    add_common(p_corr)
    p_corr.add_argument("--instance", default="uniform")
    p_corr.add_argument("--expect", choices=["accept", "reject"], default="accept")
    p_corr.add_argument("--trials", type=int, default=400)
    add_run(p_corr, assert_rate=True)
    p_corr.set_defaults(func=cmd_correctness)

    p_rep = exp_sub.add_parser("replicability")
    add_common(p_rep)
    p_rep.add_argument("--pairs", type=int, default=1000)
    add_run(p_rep, assert_rate=True)
    p_rep.set_defaults(func=cmd_replicability)

    p_sweep = exp_sub.add_parser("sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--grid", default=None, help="lo:hi:count (default 0:2*eps:11)")
    p_sweep.add_argument("--trials", type=int, default=200, dest="trials")
    p_sweep.add_argument("--fixed-internal", action="store_true")
    add_run(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bar = exp_sub.add_parser("barrier")
    p_bar.add_argument("--stat", choices=list(BARRIER_STATISTICS), required=True)
    p_bar.add_argument("--n", type=int, required=True)
    p_bar.add_argument("--eps", type=float, default=0.5)
    p_bar.add_argument("--m-grid", default=None, help="comma-separated (default 4*sqrt(n)*2^k, k<5)")
    p_bar.add_argument("--runs-per-m", type=int, default=2000)
    p_bar.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_run(p_bar)
    p_bar.set_defaults(func=cmd_barrier)

    p_cal = sub.add_parser("calibrate", help="derive constants from pilot runs")
    pilots = p_cal.add_mutually_exclusive_group(required=True)
    pilots.add_argument("--default-grid", action="store_true")
    pilots.add_argument("--grid", default=None, help="N:EPS[,N:EPS...]")
    p_cal.add_argument("--rho", type=float, required=True)
    p_cal.add_argument("--trials", type=int, default=200)
    p_cal.add_argument("--c-m1", type=float, default=1.0)
    p_cal.add_argument("--c-m2", type=float, default=1.0)
    p_cal.add_argument("--c-m0", type=float, default=3.0)
    p_cal.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_run(p_cal, out="--out")
    p_cal.set_defaults(func=cmd_calibrate)

    p_orc = sub.add_parser("oracle", help="exact small-instance oracles")
    orc_sub = p_orc.add_subparsers(dest="oracle_kind", required=True)
    p_red = orc_sub.add_parser("reduction-check")
    p_red.add_argument("--max-n", type=int, default=4)
    p_red.add_argument("--max-denominator", type=int, default=8)
    p_red.set_defaults(func=cmd_reduction_check)
    p_mi = orc_sub.add_parser("mi-grid")
    p_mi.add_argument("--lambdas", default="0.1,0.5,1")
    p_mi.add_argument("--epss", default="0.1,0.2")
    p_mi.add_argument("--deltas", default="0.01,0.02")
    p_mi.add_argument("--out", default=None)
    p_mi.set_defaults(func=cmd_mi_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as err:
        print(f"calibration infeasible: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
