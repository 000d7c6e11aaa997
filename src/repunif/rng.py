"""Deterministic random-stream construction.

Every random draw in this package flows through a ``numpy`` ``Generator``
backed by the counter-based Philox bit generator.  Streams are derived from
a master seed plus a tuple of integer indices, so a trial's randomness is a
pure function of ``(master_seed, indices)`` and is independent of execution
order or worker count.

A tester consumes two separately seeded streams (see :class:`SeedSplit`):
the *internal* stream is the algorithm's own coin and is shared across the
two runs of a paired-replicability experiment, while the *sample* stream
drives data draws and is fresh per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Role tags appended to spawn keys so internal/sample/instance streams never
# collide even when the remaining indices coincide.
ROLE_INTERNAL = 0
ROLE_SAMPLE = 1
ROLE_INSTANCE = 2

# Default master seed for CLI runs; any value works, this one is merely the
# documented reproducibility anchor.
DEFAULT_SEED = 20240

__all__ = [
    "ROLE_INTERNAL",
    "ROLE_SAMPLE",
    "ROLE_INSTANCE",
    "DEFAULT_SEED",
    "stream",
    "SeedSplit",
]


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed and index key.

    The same ``(master_seed, *key)`` always yields a generator in the same
    state; distinct keys yield statistically independent streams.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class SeedSplit:
    """The two random streams a tester consumes.

    ``internal`` is the algorithm's coin (its first draw is the random
    threshold coordinate), ``sample`` drives all data draws.  Replaying the
    same internal stream against fresh sample streams realizes the two-run
    replicability protocol.
    """

    internal: np.random.Generator
    sample: np.random.Generator
