"""Every name a module exports through ``__all__``, the benchmark wraps, or a layer bench calls, exists."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repunif
from repunif import distributions, exact, harness, tester


def test_all_entries_resolve():
    names = [info.name for info in pkgutil.iter_modules(repunif.__path__, "repunif.")]
    assert "repunif.tester" in names
    missing = []
    for name in ["repunif", *names]:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                    if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_names_resolve():
    # perfbench wraps these package names; a rename would pass here and fail every benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("_perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    wrapped = [(owner, attr) for owner, attr, *_ in layers.TRACED]
    assert wrapped
    # the workloads' clocks wrap these
    wrapped += [(harness, attr) for attr in ("run_tester", "draw_batch", "draw_poissonized_batch",
                                             "collision_statistic", "chi2_statistic", "tv_statistic")]
    wrapped.append((exact, "exact_pushforward"))
    assert [f"{owner.__name__}.{attr}" for owner, attr in wrapped if not hasattr(owner, attr)] == []
    # perfbench's tests rely on these being one object
    assert tester.draw_batch is harness.draw_batch is distributions.draw_batch
    assert repunif.stream is harness.stream


def test_layer_benches_run():
    # the test suite does not collect the bench_*.py files, and they call private
    # sampler names: run each case once so that a rename fails here
    pytest.importorskip("pytest_benchmark")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(Path(repunif.__file__).parent.parent))
    benches = [str(tests / name) for name in ("bench_fingerprints.py", "bench_stats.py", "bench_tester.py")]
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
                          *benches], cwd=tests.parent, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
