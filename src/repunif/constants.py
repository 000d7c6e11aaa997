"""Calibration constants: load/save and packaged defaults.

The tester's size formula and gap schedule hide four constants
(``c_m1``, ``c_m2``, ``c_m0``, ``c_gap``).  They are never magic numbers in
code: defaults ship as a flat key=value file produced by
``repunif calibrate --default-grid --rho 0.2 --trials 200 --seed 31415 --out
src/repunif/default_constants.txt`` (see the provenance comments inside the
file), and any tester run can substitute its own file via ``--constants`` or
the ``REPUNIF_CONSTANTS`` environment variable.
"""

from __future__ import annotations

import importlib.resources
import os

CONSTANTS_ENV_VAR = "REPUNIF_CONSTANTS"
CONSTANT_KEYS = ("c_gap", "c_m1", "c_m2", "c_m0")

__all__ = [
    "CONSTANTS_ENV_VAR",
    "CONSTANT_KEYS",
    "parse_constants",
    "load_constants",
    "save_constants",
    "default_constants",
    "resolve_constants",
]


def parse_constants(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"constants line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip()] = float(raw.strip())
    missing = [k for k in CONSTANT_KEYS if k not in values]
    if missing:
        raise ValueError(f"constants file missing keys: {', '.join(missing)}")
    return {k: values[k] for k in CONSTANT_KEYS}


def load_constants(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constants(fh.read())


def save_constants(path: str, constants: dict[str, float], provenance: list[str]) -> None:
    lines = [f"# {line}" for line in provenance]
    lines += [f"{k}={constants[k]!r}" for k in CONSTANT_KEYS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def default_constants() -> dict[str, float]:
    """The packaged defaults (produced by ``repunif calibrate --default-grid``)."""
    text = (
        importlib.resources.files("repunif")
        .joinpath("default_constants.txt")
        .read_text(encoding="utf-8")
    )
    return parse_constants(text)


def resolve_constants(path: str | None = None) -> dict[str, float]:
    """Pick constants from an explicit path, the env var, or the defaults."""
    if path is None:
        path = os.environ.get(CONSTANTS_ENV_VAR)
    if path:
        return load_constants(path)
    return default_constants()
