"""CLI contract: exit codes, output files, and byte-level reproducibility."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repunif
from repunif import cli, harness
from repunif.cli import main
from repunif.harness import BARRIER_STATISTICS
from repunif.distributions import Pmf


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--n", "400", "--eps", "0.3", "--rho", "0.2", "--seed", "7"]


def test_import_leaves_scipy_stats_out():
    # scipy.stats adds most of a second to every command's start-up; only mu(U_n) needs it.
    # scipy.special is most of the rest; only the exact oracles need it
    env = dict(os.environ, PYTHONPATH=str(Path(repunif.__file__).parent.parent))
    code = "import sys, repunif.cli; print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


class TestTestCommand:
    def test_uniform_accepts_exit_zero(self, capsys):
        code, out, _ = run(["test", *BASE, "--instance", "uniform"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "accept"
        assert payload["config"]["constants"]["c_gap"] > 0

    def test_point_mass_rejects_exit_one(self, capsys):
        code, out, _ = run(["test", *BASE, "--instance", "point-mass"], capsys)
        assert code == 1
        assert json.loads(out)["decision"] == "reject"

    def test_missing_eps_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--n", "400", "--rho", "0.2"])
        assert exc.value.code == 2

    def test_unknown_instance_exit_two(self, capsys):
        code, _, err = run(["test", *BASE, "--instance", "zipf"], capsys)
        assert code == 2
        assert "unknown instance" in err

    def test_removed_local_swap_preset_exit_two(self, capsys):
        code, out, err = run(["test", *BASE, "--instance", "local-swap:0.2:10"], capsys)
        assert code == 2 and out == ""
        assert "unknown instance" in err
        assert "(use uniform, point-mass, paired-bias:XI, or heavy:PMASS)" in err

    def test_pmf_file_json_and_text(self, tmp_path, capsys):
        p = Pmf(np.full(4, 0.25))
        json_path = tmp_path / "p.json"
        json_path.write_text(p.to_json())
        code, out, _ = run(
            ["test", "--n", "4", "--eps", "0.3", "--rho", "0.2", "--seed", "3",
             "--pmf-file", str(json_path)], capsys)
        assert code in (0, 1)
        text_path = tmp_path / "p.txt"
        text_path.write_text(p.to_text())
        code2, out2, _ = run(
            ["test", "--n", "4", "--eps", "0.3", "--rho", "0.2", "--seed", "3",
             "--pmf-file", str(text_path)], capsys)
        assert code2 == code
        a, b = json.loads(out), json.loads(out2)
        a.pop("config"), b.pop("config")  # config echoes the differing paths
        assert a == b

    def test_pmf_file_domain_mismatch_exit_two(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(Pmf(np.full(4, 0.25)).to_text())
        code, _, err = run(
            ["test", "--n", "5", "--eps", "0.3", "--rho", "0.2", "--pmf-file", str(path)],
            capsys)
        assert code == 2 and "disagrees" in err

    @pytest.mark.parametrize("text", ['{"probs": [0.5, 0.5]}', '{"n": 2}', '{"n": 2, "probs": {"a": 1}}'],
                             ids=["no-n", "no-probs", "probs-object"])
    def test_malformed_pmf_json_exit_two(self, text, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(text)
        code, _, err = run(
            ["test", "--n", "2", "--eps", "0.25", "--rho", "0.2", "--pmf-file", str(path)],
            capsys)
        assert code == 2 and "pmf json" in err

    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 GiB"])
    def test_allocation_failure_exit_two(self, message, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_tester", fail)
        code, out, err = run(["test", *BASE], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message or 'MemoryError'}\n"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(["test", *BASE, "--instance", "paired-bias:0.4"], capsys)
        _, out2, _ = run(["test", *BASE, "--instance", "paired-bias:0.4"], capsys)
        assert out1 == out2


class TestExperimentCommand:
    def test_correctness_with_files_and_assert(self, tmp_path, capsys):
        prefix = str(tmp_path / "corr")
        code, out, _ = run(
            ["experiment", "correctness", *BASE, "--trials", "12",
             "--assert-rate", "0.5", "--out-prefix", prefix], capsys)
        assert code == 0
        csv_text = (tmp_path / "corr.csv").read_text()
        assert csv_text.startswith("# config: ")
        assert len(csv_text.splitlines()) == 2 + 12
        summary = json.loads((tmp_path / "corr.json").read_text())
        assert summary["trials"] == 12
        assert summary["config_echo"]["trials"] == 12

    def test_assert_rate_failure_exit_one(self, capsys):
        code, _, _ = run(
            ["experiment", "correctness", *BASE, "--trials", "8",
             "--expect", "reject", "--assert-rate", "0.5"], capsys)
        assert code == 1

    def test_replicability_summary(self, tmp_path, capsys):
        prefix = str(tmp_path / "rep")
        code, out, _ = run(
            ["experiment", "replicability", *BASE, "--pairs", "10",
             "--assert-rate", "0.5", "--out-prefix", prefix], capsys)
        assert code == 0
        assert "replicability" in out
        lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert len(lines) == 2 + 2 * 10  # one row per run, two runs per pair
        summary = json.loads((tmp_path / "rep.json").read_text())
        assert summary["trials"] == 10
        assert summary["config_echo"]["pairs"] == 10

    def test_sweep_row_count(self, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        code, _, _ = run(
            ["experiment", "sweep", *BASE, "--grid", "0:0.5:21", "--trials", "4",
             "--out-prefix", prefix], capsys)
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert len(lines) == 2 + 21
        assert "config_echo" in json.loads((tmp_path / "sweep.json").read_text())

    def test_barrier_slope_table(self, tmp_path, capsys):
        prefix = str(tmp_path / "bar")
        code, out, _ = run(
            ["experiment", "barrier", "--stat", "collision", "--n", "400",
             "--m-grid", "80,160", "--runs-per-m", "40", "--seed", "5",
             "--out-prefix", prefix], capsys)
        assert code == 0
        assert "slope=" in out
        lines = (tmp_path / "bar.csv").read_text().splitlines()
        assert len(lines) == 2 + 2
        assert "config_echo" in json.loads((tmp_path / "bar.json").read_text())

    def test_barrier_default_grid(self, tmp_path, capsys):
        prefix = str(tmp_path / "bar")
        code, _, _ = run(
            ["experiment", "barrier", "--stat", "collision", "--n", "1000",
             "--runs-per-m", "3", "--out-prefix", prefix], capsys)
        assert code == 0
        with open(tmp_path / "bar.csv", newline="") as fh:
            next(fh)  # config comment
            m_column = [int(row["m"]) for row in csv.DictReader(fh)]
        # round(4 * sqrt(1000) * 2**k) for k < 5
        assert m_column == [126, 253, 506, 1012, 2024]

    @pytest.mark.parametrize("argv", [
        ["experiment", "sweep", *BASE, "--grid", "0:0.5:0"],
        ["experiment", "barrier", "--stat", "collision", "--n", "400", "--m-grid", "80"],
        ["experiment", "barrier", "--stat", "collision", "--n", "400", "--m-grid", "0,80"],
        ["experiment", "correctness", *BASE, "--trials", "4", "--workers", "0"],
        ["experiment", "barrier", "--stat", "collision", "--n", "400", "--m-grid", "40,80",
         "--eps", "-3"],
        ["experiment", "barrier", "--stat", "collision", "--n", "0", "--m-grid", "40,80"],
        ["oracle", "reduction-check", "--max-n", "0"],
        ["oracle", "reduction-check", "--max-n", "-2"],
        ["oracle", "reduction-check", "--max-denominator", "0"],
        ["oracle", "reduction-check", "--max-denominator", "-1"],
    ])
    def test_out_of_range_input_exit_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_barrier_zero_spread_exit_two(self, capsys, recwarn):
        # every collision count at m = 4 is 0, so the slope would be nan
        code, out, err = run(["experiment", "barrier", "--stat", "collision", "--n", "100",
                              "--m-grid", "4,8,16", "--runs-per-m", "3", "--seed", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: collision statistic has sd 0 over 3 runs at m = 4:")
        assert len(recwarn) == 0

    def test_barrier_chi2_rate_bounds(self, capsys):
        # 3e18 is past the Poisson table bound but under numpy's rate limit
        code, out, _ = run(["experiment", "barrier", "--stat", "chi2", "--n", "100",
                            "--m-grid", "4,3000000000000000000"], capsys)
        assert code == 0
        report = json.loads(out.split(": ", 1)[1])
        assert all(np.isfinite([r["mean"], r["sd"], r["sd_over_gap"]]).all() for r in report["rows"])
        code, out, err = run(["experiment", "barrier", "--stat", "chi2", "--n", "100",
                              "--m-grid", "4,100000000000000000000"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: poisson rate m = 100000000000000000000 exceeds numpy's limit "
                       "9.223372006484771e+18\n")

    @pytest.mark.parametrize("kind, extra", [
        ("correctness", ["--trials", "2"]),
        ("replicability", ["--pairs", "2"]),
    ])
    @pytest.mark.parametrize("rate", ["nan", "inf", "-0.1", "1.5"])
    def test_assert_rate_outside_unit_interval_exit_two(self, kind, extra, rate, capsys):
        # a nan rate would turn the gate off: rate < nan is never true
        code, out, err = run(["experiment", kind, *BASE, *extra, "--assert-rate", rate], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: --assert-rate must lie in [0, 1]")

    @pytest.mark.parametrize("kind, extra", [
        ("correctness", ["--trials", "2"]),
        ("replicability", ["--pairs", "2"]),
    ])
    def test_assert_rate_checked_before_any_trial(self, kind, extra, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a trial ran")

        for name in ("correctness_experiment", "replicability_experiment"):
            monkeypatch.setattr(cli, name, fail)
        monkeypatch.setattr(harness, "_trial", fail)
        code, out, err = run(["experiment", kind, *BASE, *extra, "--assert-rate", "2"], capsys)
        assert (code, out, err) == (2, "", "error: --assert-rate must lie in [0, 1], got 2.0\n")

    def test_sweep_default_grid(self, tmp_path, capsys):
        # without --grid the sweep runs 0:2*eps:11 (eps = 0.3 in BASE)
        for name, grid in (("default", []), ("explicit", ["--grid", "0:0.6:11"])):
            code, _, _ = run(["experiment", "sweep", *BASE, *grid, "--trials", "2",
                              "--out-prefix", str(tmp_path / name)], capsys)
            assert code == 0
        for suffix in (".json", ".csv"):
            assert ((tmp_path / ("default" + suffix)).read_bytes()
                    == (tmp_path / ("explicit" + suffix)).read_bytes())

    def test_stat_choices_are_the_table(self):
        parser = cli.build_parser()
        for name in ("experiment", "barrier"):
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[name]
        stat = next(a for a in parser._actions if a.dest == "stat")
        assert list(stat.choices) == list(BARRIER_STATISTICS) == ["collision", "chi2", "tvstat"]

    @pytest.mark.parametrize("kind", list(BARRIER_STATISTICS))
    def test_every_statistic_runs(self, kind, tmp_path, capsys):
        prefix = tmp_path / "bar"
        code, out, err = run(["experiment", "barrier", "--stat", kind, "--n", "400",
                              "--m-grid", "80,160", "--runs-per-m", "5", "--seed", "5",
                              "--out-prefix", str(prefix)], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(f"barrier-{kind} slope=")
        assert json.loads((tmp_path / "bar.json").read_text())["kind"] == kind

    @pytest.mark.parametrize("argv", [
        ["test", "--n", "1000", "--eps", "1e-9", "--rho", "0.2"],
        *(["experiment", "barrier", "--stat", kind, "--n", "100", "--runs-per-m", "3",
           "--m-grid", "10000000000000000000,20000000000000000000"]
          for kind in ("collision", "chi2", "tvstat")),
    ])
    def test_sample_size_past_int64_exit_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["experiment", "correctness", *BASE, "--trials", "6"]
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        run([*args, "--out-prefix", p1], capsys)
        run([*args, "--out-prefix", p2], capsys)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCalibrateCommand:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out_path = tmp_path / "constants.txt"
        code, out, _ = run(
            ["calibrate", "--grid", "300:0.3", "--rho", "0.2", "--trials", "40",
             "--seed", "9", "--out", str(out_path)], capsys)
        assert code == 0
        from repunif.constants import load_constants

        constants = load_constants(str(out_path))
        assert json.loads(out.splitlines()[-1]) == constants

    def test_requires_grid(self, capsys):
        code, _, err = run(["calibrate", "--rho", "0.2"], capsys)
        assert code == 2 and "grid" in err

    def test_infeasible_exit_one(self, capsys):
        # m floors to 6 samples, so uniform and far medians coincide
        code, _, err = run(
            ["calibrate", "--grid", "1000:0.25", "--rho", "0.2", "--trials", "40",
             "--c-m1", "1e-12", "--c-m2", "1e-12", "--seed", "9"], capsys)
        assert code == 1
        assert "infeasible" in err


class TestConstantsResolution:
    def test_env_var_path_used(self, tmp_path, monkeypatch, capsys):
        from repunif.constants import CONSTANTS_ENV_VAR, save_constants

        path = tmp_path / "alt.txt"
        save_constants(str(path), {"c_gap": 0.4, "c_m1": 1.0, "c_m2": 1.0, "c_m0": 3.0}, [])
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(path))
        code, out, _ = run(["test", *BASE, "--instance", "uniform"], capsys)
        assert json.loads(out)["config"]["constants"]["c_gap"] == 0.4

    def test_barrier_needs_no_constants(self, tmp_path, monkeypatch, capsys):
        from repunif.constants import CONSTANTS_ENV_VAR

        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(tmp_path / "missing.txt"))
        argv = ["experiment", "barrier", "--stat", "collision", "--n", "400",
                "--m-grid", "40,80", "--runs-per-m", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and "slope=" in out
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--constants", str(tmp_path / "missing.txt")])
        assert exc.value.code == 2
        # the experiments that build a tester still read the constants
        code, _, err = run(["experiment", "correctness", *BASE, "--trials", "2"], capsys)
        assert code == 2 and "missing.txt" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_constant_exit_two(self, value, tmp_path, monkeypatch, capsys):
        # a nan c_gap printed "threshold": NaN (not JSON) and rejected the
        # uniform distribution; an infinite one accepted everything
        from repunif.constants import CONSTANTS_ENV_VAR

        path = tmp_path / "bad.txt"
        path.write_text(f"c_gap={value}\nc_m1=1.0\nc_m2=1.0\nc_m0=3.0\n")
        argv = ["test", "--n", "200", "--eps", "0.3", "--rho", "0.3"]
        for how in ("flag", "env"):
            if how == "env":
                monkeypatch.setenv(CONSTANTS_ENV_VAR, str(path))
            code, out, err = run([*argv, "--constants", str(path)] if how == "flag" else argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: constants line 1: c_gap must be finite")

    def test_non_finite_calibrate_constant_exit_two(self, capsys):
        code, out, err = run(["calibrate", "--grid", "300:0.3", "--rho", "0.2", "--trials", "8",
                              "--c-m1", "nan"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: c_m1 must be finite and > 0")

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        from repunif.constants import CONSTANTS_ENV_VAR, save_constants

        env_path = tmp_path / "env.txt"
        flag_path = tmp_path / "flag.txt"
        save_constants(str(env_path), {"c_gap": 0.4, "c_m1": 1.0, "c_m2": 1.0, "c_m0": 3.0}, [])
        save_constants(str(flag_path), {"c_gap": 0.3, "c_m1": 1.0, "c_m2": 1.0, "c_m0": 3.0}, [])
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(env_path))
        code, out, _ = run(["test", *BASE, "--instance", "uniform",
                            "--constants", str(flag_path)], capsys)
        assert json.loads(out)["config"]["constants"]["c_gap"] == 0.3


class TestOracleCommand:
    def test_reduction_check_passes(self, capsys):
        code, out, _ = run(["oracle", "reduction-check", "--max-n", "2",
                            "--max-denominator", "5"], capsys)
        assert code == 0
        line = json.loads(out)
        assert set(line) == {"num_pmfs", "num_pairs", "max_uniform_error", "min_margin", "passed"}
        assert line["passed"] is True

    def test_mi_grid_csv(self, tmp_path, capsys):
        out_path = tmp_path / "mi.csv"
        code, _, _ = run(
            ["oracle", "mi-grid", "--lambdas", "0.5", "--epss", "0.2",
             "--deltas", "0.01,0.02", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "lambda,eps0,eps1,K,tail_mass,mi_nats,error_budget"
        assert len(lines) == 2 + 2

    @pytest.mark.parametrize("lam, message", [
        ("inf", "need a finite lam > 0, got lam=inf"),
        ("nan", "need a finite lam > 0, got lam=nan"),
        ("1e300", "truncation would exceed 10000 at lam=1e+300"),
    ])
    def test_mi_grid_bad_lambda_exit_two(self, lam, message, capsys):
        code, out, err = run(["oracle", "mi-grid", "--lambdas", lam], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
