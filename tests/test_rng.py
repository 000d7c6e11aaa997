"""Stream derivation against numpy's own spawn-key seeding."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repunif.rng import stream


def _numpy_stream(master_seed, key):
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


class TestStream:
    @given(
        master_seed=st.integers(min_value=0, max_value=2**128),
        key=st.lists(st.integers(min_value=0, max_value=2**64), max_size=6),
    )
    @example(master_seed=0, key=[])
    @example(master_seed=0, key=[0])
    @example(master_seed=2**32 - 1, key=[2**32])   # one word, then two
    @example(master_seed=2**128, key=[0, 0])       # five seed words: no padding
    @settings(max_examples=300)
    def test_matches_numpy_spawn_key_seeding(self, master_seed, key):
        ours = stream(master_seed, *key).bit_generator.random_raw(8)
        theirs = _numpy_stream(master_seed, key).bit_generator.random_raw(8)
        assert np.array_equal(ours, theirs)

    def test_numpy_integer_arguments(self):
        ours = stream(np.int64(5), np.uint32(1), np.int8(2)).bit_generator.random_raw(8)
        assert np.array_equal(ours, _numpy_stream(5, (1, 2)).bit_generator.random_raw(8))

    @pytest.mark.parametrize("args", [(-1,), (1, -2), (1, 2, -2**70)])
    def test_rejects_negative_seed_or_key(self, args):
        with pytest.raises(ValueError):
            stream(*args)

    @pytest.mark.parametrize("args", [(1.5,), (1, 2.0)])
    def test_rejects_non_integer_seed_or_key(self, args):
        with pytest.raises(TypeError):
            stream(*args)
