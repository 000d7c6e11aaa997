"""Deterministic random-stream construction.

Every random draw in this package flows through a ``numpy`` ``Generator``
backed by the counter-based Philox bit generator.  Streams are derived from
a master seed plus a tuple of integer indices, so a trial's randomness is a
pure function of ``(master_seed, indices)`` and is independent of execution
order or worker count.

:func:`stream` derives one generator through numpy's ``SeedSequence``.
:func:`stream_keys` derives the Philox keys of many such streams in one
vectorized pass over the varying indices, and :func:`keyed` builds the
generator from its key: ``keyed(stream_keys(s, *key))`` is ``stream(s, *key)``
in the same state.  The batched form is for experiments that derive many
streams at once; for one stream its fixed cost loses to :func:`stream`.

A tester consumes two separately seeded streams (see :class:`SeedSplit`):
the *internal* stream is the algorithm's own coin and is shared across the
two runs of a paired-replicability experiment, while the *sample* stream
drives data draws and is fresh per run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Role tags appended to spawn keys so internal/sample/instance streams never
# collide even when the remaining indices coincide.
ROLE_INTERNAL = 0
ROLE_SAMPLE = 1
ROLE_INSTANCE = 2

# Default master seed for CLI runs; any value works, this one is merely the
# documented reproducibility anchor.
DEFAULT_SEED = 20240

# numpy's SeedSequence pool size, in 32-bit words, and the hash constants of
# its entropy mixing (A), its generate_state (B) and its mix step
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF

__all__ = [
    "ROLE_INTERNAL",
    "ROLE_SAMPLE",
    "ROLE_INSTANCE",
    "DEFAULT_SEED",
    "stream",
    "stream_keys",
    "keyed",
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


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """Constants ``start .. start+count-1`` of the sequence ``init * mult**j`` mod 2**32."""
    return np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(start, start + count)],
                    dtype=np.uint32)


# generate_state(2, uint64) hashes the 4 pool words with B constants 0..4
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 0, _POOL_SIZE + 1)


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> 16)


def _word_array(values) -> np.ndarray:
    """An array key entry as uint32 words; each entry must fit in one word."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biu":
        # Python ints that share no integer dtype, or not ints: check each as stream does
        entries = np.asarray(values, dtype=object)
        arr = np.array([operator.index(v) for v in entries.flat], dtype=object).reshape(entries.shape)
    if arr.size and (arr.min() < 0 or arr.max() > _MASK32):
        raise ValueError("array key entries must lie in [0, 2**32)")
    return arr.astype(np.uint32)


def stream_keys(master_seed: int, *key) -> np.ndarray:
    """The Philox keys of ``stream(master_seed, *key)`` for many keys at once.

    Each entry of ``key`` is an int, shared by every stream, or an integer
    array of entries below 2**32; the arrays broadcast to one shape S, and
    the streams are indexed by S.  Returns an ``S + (2,)`` uint64 array whose
    ``[i]`` is the key of ``stream(master_seed, *key_i)``, where ``key_i``
    takes the element ``i`` of every array entry; :func:`keyed` builds the
    generator.  Negative entries raise ``ValueError`` and non-integers
    ``TypeError``, as in :func:`stream`.

    This is numpy's ``SeedSequence`` on uint32 columns.  Its hash constants
    do not depend on the data, so the pool after the seed and the leading
    int entries is one numpy ``SeedSequence`` of those words, computed once.
    Each later word is mixed into the 4 pool words as numpy mixes a word past
    the pool size (word i uses the mixing constants 4i .. 4i + 4), and the
    key is ``generate_state(2, uint64)`` of the pool.
    """
    prefix = _words(master_seed)
    if key:
        prefix += [0] * (_POOL_SIZE - len(prefix))
    columns = []  # words after the shared prefix: 0-d or broadcastable arrays
    for entry in key:
        if np.ndim(entry):
            columns.append(_word_array(entry))
        elif columns:
            columns += [np.array(w, dtype=np.uint32) for w in _words(entry)]
        else:
            prefix += _words(entry)
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    pool = np.random.SeedSequence(np.array(prefix, dtype=np.uint32)).pool
    for i, column in enumerate(columns, start=len(prefix)):
        a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * i, _POOL_SIZE + 1)
        hashed = _xorshift((column[..., None] ^ a[:-1]) * a[1:])
        pool = _xorshift(_MIX_L * pool - _MIX_R * hashed)
    pool = np.broadcast_to(pool, shape + (_POOL_SIZE,))
    state = _xorshift((pool ^ _STATE_HASH[:-1]) * _STATE_HASH[1:])
    # numpy reads the 32-bit words as little-endian pairs
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _FixedKey(ISeedSequence):
    """A seed sequence that hands Philox a key derived beforehand."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed Philox key is 2 uint64 words")
        return self.key


def keyed(key) -> np.random.Generator:
    """The Philox generator with this key and counter 0, as :func:`stream_keys` gives it.

    ``Philox(key=...)`` would also draw OS entropy for a ``SeedSequence`` it
    then ignores; this seeds it from the key alone.
    """
    return np.random.Generator(np.random.Philox(_FixedKey(key)))


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
