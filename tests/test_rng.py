"""Stream derivation against numpy's own spawn-key seeding."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repunif.rng import keyed, stream, stream_keys


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


def _same_generator(ours, theirs):
    a, b = ours.bit_generator.state, theirs.bit_generator.state
    assert a["bit_generator"] == b["bit_generator"]
    for field in ("counter", "key"):
        assert np.array_equal(a["state"][field], b["state"][field])
    assert np.array_equal(a["buffer"], b["buffer"])
    assert [a[f] for f in ("buffer_pos", "has_uint32", "uinteger")] == [
        b[f] for f in ("buffer_pos", "has_uint32", "uinteger")]
    assert np.array_equal(ours.bit_generator.random_raw(8), theirs.bit_generator.random_raw(8))


# one key entry: an int every stream shares, or None for a column of K one-word entries
_ENTRY = st.one_of(st.integers(min_value=0, max_value=2**64), st.none())


class TestStreamKeys:
    @given(
        master_seed=st.integers(min_value=0, max_value=2**128),
        layout=st.lists(_ENTRY, max_size=6),
        k=st.sampled_from([0, 1, 2, 300]),
        data=st.data(),
    )
    @example(master_seed=0, layout=[], k=1, data=None)
    @example(master_seed=2**32, layout=[None, 2**32, None], k=2, data=None)
    @example(master_seed=2**128, layout=[7, None], k=300, data=None)
    @settings(max_examples=60, deadline=None)
    def test_keyed_generators_equal_stream(self, master_seed, layout, k, data):
        column = arrays(np.int64, k, elements=st.integers(min_value=0, max_value=2**32 - 1))
        key = [entry if entry is not None else
               (data.draw(column) if data is not None else np.arange(k) * 65537 % 2**32)
               for entry in layout]
        keys = stream_keys(master_seed, *key)
        if all(entry is not None for entry in layout):
            assert keys.shape == (2,)
            _same_generator(keyed(keys), stream(master_seed, *key))
            return
        assert keys.shape == (k, 2) and keys.dtype == np.uint64
        for j in range(k):
            row = [int(e[j]) if isinstance(e, np.ndarray) else e for e in key]
            _same_generator(keyed(keys[j]), stream(master_seed, *row))

    def test_arrays_broadcast(self):
        keys = stream_keys(5, 1, np.arange(3)[:, None], (0, 1), 2**40)
        assert keys.shape == (3, 2, 2)
        for t in range(3):
            for role in (0, 1):
                _same_generator(keyed(keys[t, role]), stream(5, 1, t, role, 2**40))

    def test_numpy_integer_arguments(self):
        keys = stream_keys(np.int64(5), np.uint32(1), np.array([2, 3], dtype=np.int8))
        for j, entry in enumerate((2, 3)):
            _same_generator(keyed(keys[j]), stream(5, 1, entry))

    @pytest.mark.parametrize("column", [[2**32], [0, 2**64 - 1], [1, 2**64], [2**70]])
    def test_rejects_array_entries_past_one_word(self, column):
        with pytest.raises(ValueError):
            stream_keys(1, 2, column)

    @pytest.mark.parametrize("args", [(-1, [0]), (1, -2, [0]), (1, [0], -2), (1, [3, -1]), (1, [-1, 2**63]),
                                      (1, np.array([-5], dtype=np.int64))])
    def test_rejects_negative_seed_or_key(self, args):
        with pytest.raises(ValueError):
            stream_keys(*args)

    @pytest.mark.parametrize("args", [(1.5, [0]), (1, 2.0, [0]), (1, [0.5, 1.0]),
                                      (1, np.array([2**70, 0.5], dtype=object))])
    def test_rejects_non_integer_seed_or_key(self, args):
        with pytest.raises(TypeError):
            stream_keys(*args)

    def test_rejects_arrays_that_do_not_broadcast(self):
        with pytest.raises(ValueError):
            stream_keys(1, [0, 1], [0, 1, 2])

    def test_keyed_seed_sequence_gives_only_the_philox_key(self):
        seed_seq = keyed(stream_keys(1, 2)).bit_generator.seed_seq
        assert np.array_equal(seed_seq.generate_state(2, np.uint64), stream_keys(1, 2))
        with pytest.raises(ValueError):
            seed_seq.generate_state(4)
