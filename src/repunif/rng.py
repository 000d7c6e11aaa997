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

import operator
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

# numpy's SeedSequence pool size, in 32-bit words
_POOL_SIZE = 4

__all__ = [
    "ROLE_INTERNAL",
    "ROLE_SAMPLE",
    "ROLE_INSTANCE",
    "DEFAULT_SEED",
    "stream",
    "SeedSplit",
]


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative int (one word for 0)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed and key entries must be >= 0, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed and index key.

    The same ``(master_seed, *key)`` always yields a generator in the same
    state; distinct keys yield statistically independent streams.  The
    generator is that of ``SeedSequence(master_seed, spawn_key=key)``: its
    entropy words are assembled here as numpy assembles them (the seed's
    words, zero-padded to the pool size when there is a key, then each key
    entry's words), which skips numpy's slower per-int conversion.
    """
    words = _words(master_seed)
    if key:
        words += [0] * (_POOL_SIZE - len(words))
        for k in key:
            words += _words(k)
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
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
