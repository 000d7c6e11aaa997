"""Timing taken from outside the package, by wrapping its public functions.

A function is wrapped at every module attribute through which a caller looks
it up (``repunif.tester.draw_batch`` as well as
``repunif.distributions.draw_batch``), so calls made inside the package are
seen too.  :class:`Patches` restores every name it replaced, leaving the
package as imported.

:class:`Tracer` records one span per wrapped call (name, start, end, parent)
in flat arrays and aggregates them when the run ends.  :class:`OpClock` is
the lightweight alternative used with tracing off: it records only the
latency of each benchmark operation.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from types import ModuleType

import numpy as np

PACKAGE = "repunif"


def _package_modules():
    for name, mod in list(sys.modules.items()):
        if isinstance(mod, ModuleType) and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield mod


class Patches:
    """Replace package attributes and put the originals back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        For a module-level function every loaded package module that binds
        the same object is patched; for a class attribute only the class.
        """
        if isinstance(owner, ModuleType):
            original = getattr(owner, attr)
            sites = [(mod, name) for mod in _package_modules()
                     for name, value in vars(mod).items() if value is original]
        else:
            original = vars(owner)[attr]
            sites = [(owner, attr)]
        wrapper = functools.wraps(original)(make_wrapper(original))
        for site, name in sites:
            self._saved.append((site, name, original))
            setattr(site, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            site, name, original = self._saved.pop()
            setattr(site, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class OpClock:
    """Per-operation latencies, for runs with tracing off."""

    def __init__(self):
        self.latencies = array("d")
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.latencies.append(time.perf_counter() - self._t0)

    def starting(self, fn):
        """Wrapper that marks the start of an operation, then calls ``fn``."""
        def wrapper(*args, **kwargs):
            self._t0 = time.perf_counter()
            return fn(*args, **kwargs)
        return wrapper

    def stopping(self, fn):
        """Wrapper that calls ``fn``, then marks the end of the operation."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.latencies.append(time.perf_counter() - self._t0)
            return result
        return wrapper

    def whole(self, fn):
        """Wrapper for an operation that is exactly one call of ``fn``."""
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.latencies.append(time.perf_counter() - t0)
            return result
        return wrapper


class Tracer:
    """Spans in memory: name, start, end and parent of each wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.first_round: tuple[int, Counter] | None = None

    def name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_idx: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def spanning(self, name: str, label=None, count=None):
        """Wrapper factory: one span per call.

        ``label(args)`` may return a sub-name appended to ``name`` for this
        call; ``count(args, result)`` may return ``{counter: amount}``.
        """
        base = self.name_index(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = base if label is None else self.name_index(f"{name}.{label(*args)}")
                span = self.open(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if count is not None:
                    self.counters.update(count(args, result))
                return result
            return wrapper
        return make

    def end_first_round(self) -> None:
        """Freeze the counts of the first round, which repeat exactly per seed."""
        if self.first_round is None:
            self.first_round = (len(self.start), Counter(self.counters))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, ``first_round_calls``, ``busy_s`` and ``self_s``.

        A span's self time is its duration minus the durations of its direct
        children; children of one span never overlap.
        """
        n = len(self.start)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        first = self.first_round[0] if self.first_round is not None else n
        calls = np.bincount(ids, minlength=k)
        first_calls = np.bincount(ids[:first], minlength=k)
        busy = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "first_round_calls": int(first_calls[i]),
                   "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
