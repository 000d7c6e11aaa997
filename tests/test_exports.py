"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import repunif


def test_all_entries_resolve():
    names = [info.name for info in pkgutil.iter_modules(repunif.__path__, "repunif.")]
    assert "repunif.tester" in names
    missing = []
    for name in ["repunif", *names]:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                    if not hasattr(module, attr)]
    assert missing == []
