"""Smoke test of the experiment scripts: tiny sizes, every output file written.

``calibrate_defaults.py`` is left out: by default it rewrites the packaged
constants file.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SMALL = ["--n", "300", "--eps", "0.3", "--rho", "0.2"]


def run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def assert_report(prefix: Path, rows: int):
    lines = prefix.with_suffix(".csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert len(lines) == 2 + rows
    assert "config_echo" in json.loads(prefix.with_suffix(".json").read_text())


@pytest.mark.parametrize("name,argv,reports", [
    ("headline_experiments", [*SMALL, "--trials", "4", "--pairs", "3"],
     {"uniform_accept": 4, "far_reject": 4, "replicability": 6}),
    ("sweep_study", [*SMALL, "--points", "3", "--trials-per-point", "2"], {"sweep": 3}),
    ("barrier_study", ["--n", "400", "--runs-per-m", "3"],
     {"barrier_collision": 5, "barrier_chi2": 5, "barrier_tvstat": 5}),
])
def test_script_writes_csv_and_json(name, argv, reports, tmp_path, monkeypatch):
    run_script(name, [*argv, "--out-dir", str(tmp_path)], monkeypatch)
    for stem, rows in reports.items():
        assert_report(tmp_path / stem, rows)


def test_mi_grid_writes_csv(tmp_path, monkeypatch):
    out = tmp_path / "sub" / "mi.csv"
    run_script("mi_grid", ["--lambdas", "0.5", "--epss", "0.2", "--deltas", "0.01,0.02",
                           "--out", str(out)], monkeypatch)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "lambda,eps0,eps1,K,tail_mass,mi_nats,error_budget"
    assert len(lines) == 2 + 2
