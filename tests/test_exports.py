"""Every name a module exports through ``__all__``, or the benchmark wraps, exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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
