"""Instance construction, TV distance, and sampler tests."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repunif import distributions
from repunif.constants import default_constants
from repunif.distributions import (
    AliasTable,
    InstanceSpec,
    LevelTable,
    Pmf,
    PoissonTable,
    SampleBatch,
    draw_batch,
    draw_batches,
    draw_poissonized_batch,
    draw_samples,
    make_instance,
    tv_distance,
)
from repunif.rng import SeedSplit, stream
from repunif.tester import IdentityReducer, TesterParams, derive_sizes, run_identity_tester, run_tester


def uniform(n):
    return make_instance(InstanceSpec.uniform(), n)


def assert_compares_by_identity(x, copy):
    """``x`` equals only itself: comparing it with an equal-valued copy neither raises nor matches."""
    assert x == x
    assert (x == copy) is False and x != copy
    assert x not in [copy]
    assert x in {x} and len({x, copy}) == 2


def _stream_state(rng):
    """The bit generator's state, with its arrays as lists so that states compare."""
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


class TestPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]))

    def test_renormalizes_within_tolerance(self):
        p = Pmf(np.array([0.5, 0.5 + 1e-13]))
        assert math.fsum(p.probs.tolist()) == 1.0

    def test_immutable(self):
        p = uniform(4)
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    def test_json_round_trip_bit_exact(self):
        p = Pmf(np.array([1 / 3, 1 / 3, 1 / 3]))
        q = Pmf.from_json(p.to_json())
        assert q.probs.tobytes() == p.probs.tobytes()

    def test_text_round_trip_bit_exact(self):
        rng = stream(7, 99)
        raw = rng.random(17)
        p = Pmf(raw / raw.sum())
        q = Pmf.from_text(p.to_text())
        assert q.probs.tobytes() == p.probs.tobytes()

    def test_compares_by_identity(self):
        assert_compares_by_identity(make_instance(InstanceSpec.uniform(), 4), Pmf(np.full(4, 0.25)))


class TestMakeInstance:
    def test_paired_bias_zero_is_uniform(self):
        p = make_instance(InstanceSpec.paired_bias(0.0), 4)
        assert np.array_equal(p.probs, uniform(4).probs)

    def test_paired_bias_example(self):
        p = make_instance(InstanceSpec.paired_bias(0.2), 4)
        assert np.allclose(p.probs, [0.3, 0.2, 0.3, 0.2], atol=1e-15)

    def test_heavy_element(self):
        p = make_instance(InstanceSpec.heavy(0.5), 5)
        assert p.probs[0] == 0.5
        assert np.allclose(p.probs[1:], 0.125)

    def test_point_mass_via_heavy(self):
        p = make_instance(InstanceSpec.heavy(1.0), 4)
        assert p.probs[0] == 1.0 and np.all(p.probs[1:] == 0.0)

    def test_rejects_odd_n_for_paired(self):
        with pytest.raises(ValueError):
            make_instance(InstanceSpec.paired_bias(0.2), 5)

    def test_rejects_bad_heavy_mass(self):
        with pytest.raises(ValueError):
            make_instance(InstanceSpec.heavy(0.01), 10)  # below 1/n
        with pytest.raises(ValueError):
            make_instance(InstanceSpec.heavy(1.5), 10)

    @given(
        xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        half=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60)
    def test_paired_bias_is_valid_pmf(self, xi, half):
        p = make_instance(InstanceSpec.paired_bias(xi), 2 * half)
        assert np.all(p.probs >= 0)
        assert abs(math.fsum(p.probs.tolist()) - 1.0) <= 1e-12


def _family_raw(spec, n):
    """The family's masses as ``make_instance`` wrote them into an n-length vector, unnormalized."""
    probs = np.empty(n, dtype=np.float64)
    if spec.kind == "uniform":
        probs[:] = 1.0 / n
    elif spec.kind == "paired_bias":
        probs[0::2] = (1.0 + spec.xi) / n
        probs[1::2] = (1.0 - spec.xi) / n
    else:
        probs[0] = spec.pmass
        probs[1:] = (1.0 - spec.pmass) / (n - 1) if n > 1 else 0.0
    return probs


def _family_cases():
    rng = stream(53, 1)
    cases = [(InstanceSpec.uniform(), n) for n in (1, 2, 998, 10**4)]
    cases += [(InstanceSpec.paired_bias(xi), n) for xi in (0.0, 1.0, 5e-17, 1e-16) for n in (2, 998, 1000)]
    cases += [(InstanceSpec.paired_bias(float(xi)), 2 * int(half))
              for xi, half in zip(rng.random(200), rng.integers(1, 5000, 200))]
    for n in (1, 2, 7, 998, 1000, 10**4):
        cases += [(InstanceSpec.heavy(pmass), n) for pmass in (1.0 / n, 1.0)]
    cases += [(InstanceSpec.heavy(float(1.0 / n + (1.0 - 1.0 / n) * u)), int(n))
              for u, n in zip(rng.random(100), rng.integers(2, 5000, 100))]
    return cases


class TestFamilyInstances:
    """``make_instance`` builds each family from its levels: the same pmf and
    level table as ``Pmf`` of its masses and ``LevelTable.build``, bit for bit."""

    @pytest.mark.parametrize("spec, n", _family_cases())
    def test_matches_the_general_path(self, spec, n):
        p, general = make_instance(spec, n), Pmf(_family_raw(spec, n))
        assert p.probs.dtype == np.float64 and not p.probs.flags.writeable
        assert p.probs.tobytes() == general.probs.tobytes()
        table, expected = p.level_table(), LevelTable.build(general.probs)
        assert len(table.cells) == len(expected.cells)
        for cells, want in zip(table.cells, expected.cells):
            assert cells.dtype == want.dtype and np.array_equal(cells, want)
        assert table.mass.dtype == expected.mass.dtype and table.mass.tobytes() == expected.mass.tobytes()
        assert np.array_equal(table.order, expected.order)
        assert table.sizes == expected.sizes and table.zeros == expected.zeros
        assert all(type(value) is float for value in table.cell_mass + expected.cell_mass)
        assert np.array(table.cell_mass).tobytes() == np.array(expected.cell_mass).tobytes()

    def test_cases_reach_every_layout(self):
        # merged levels (xi = 0, and xi so small that both masses round to 1/n),
        # zero-mass cells (xi = 1, pmass = 1) and the renormalized uniform of 998
        tables = {(spec.describe(), n): make_instance(spec, n).level_table() for spec, n in _family_cases()}
        assert len(tables[("paired_bias(xi=5e-17)", 1000)].cells) == 1
        assert len(tables[("paired_bias(xi=0.0)", 998)].cells) == 1
        assert [c.size for c in tables[("paired_bias(xi=1.0)", 1000)].cells] == [500]
        assert [c.size for c in tables[("heavy(pmass=1.0)", 7)].cells] == [1]
        assert make_instance(InstanceSpec.uniform(), 998).probs[0] != 1.0 / 998

    @pytest.mark.parametrize("spec, n, message", [
        (InstanceSpec.paired_bias(0.2), 5, "paired bias requires an even domain size"),
        (InstanceSpec.paired_bias(1.5), 4, r"paired bias needs a bias xi in \[0, 1\]"),
        (InstanceSpec.paired_bias(math.nan), 4, r"paired bias needs a bias xi in \[0, 1\]"),
        (InstanceSpec.heavy(0.01), 10, r"heavy-element mass must lie in \[1/n, 1\]"),
        (InstanceSpec.heavy(math.nan), 10, r"heavy-element mass must lie in \[1/n, 1\]"),
        (InstanceSpec.uniform(), 0, "domain size must be >= 1"),
        (InstanceSpec("zipf"), 4, "unknown instance kind 'zipf'"),
    ])
    def test_rejects_as_before(self, spec, n, message):
        with pytest.raises(ValueError, match=message):
            make_instance(spec, n)

    @pytest.mark.parametrize("spec", [InstanceSpec.uniform(), InstanceSpec.paired_bias(0.3),
                                      InstanceSpec.heavy(0.01)])
    def test_no_cells_without_a_level_path(self, spec, monkeypatch):
        # the alias path below min(n, 1024) samples and the multinomial path
        # from 16n build no level table, so no cell array
        def forbidden(*args):
            raise AssertionError("level table built")

        monkeypatch.setattr(LevelTable, "build", forbidden)
        monkeypatch.setattr(LevelTable, "of_layout", forbidden)
        p = make_instance(spec, 2000)
        for m in (500, 16 * 2000):
            assert draw_batch(p, m, stream(9, m)).m == m
        assert draw_batches(p, 500, 2, stream(9, 1)).shape == (2, 2000)
        draw_samples(p, 100, stream(9, 2))
        assert "_levels" not in vars(p)


class TestTvDistance:
    def test_identical_is_zero(self):
        assert tv_distance(uniform(7), uniform(7)) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance(Pmf(np.array([1.0, 0.0])), Pmf(np.array([0.0, 1.0]))) == 1.0

    def test_paired_bias_dyadic_exact(self):
        # xi/n exactly representable: the direct summation is exact
        p = make_instance(InstanceSpec.paired_bias(0.25), 4)
        assert tv_distance(p, uniform(4)) == 0.125

    @given(
        xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        half=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60)
    def test_paired_bias_distance_is_half_xi(self, xi, half):
        p = make_instance(InstanceSpec.paired_bias(xi), 2 * half)
        assert abs(tv_distance(p, uniform(2 * half)) - xi / 2) <= 1e-14

    def test_mismatched_domains(self):
        with pytest.raises(ValueError):
            tv_distance(uniform(3), uniform(4))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40)
    def test_symmetry_and_triangle(self, seed):
        rng = stream(seed, 3)
        raw = rng.random((3, 6)) + 1e-9
        p, q, r = (Pmf(row / row.sum()) for row in raw)
        assert tv_distance(p, q) == tv_distance(q, p)
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-15
        assert 0.0 <= tv_distance(p, q) <= 1.0


class TestDrawBatch:
    def test_zero_samples(self):
        # size-0 draws consume no stream, so m = 0 needs no branch of its own
        for p in (uniform(5), make_instance(InstanceSpec.heavy(0.5), 40),
                  Pmf(np.array([0.1, 0.2, 0.3, 0.15, 0.25]))):
            rng = stream(1, 2)
            before = _stream_state(rng)
            batch = draw_batch(p, 0, rng)
            assert batch.m == 0 and np.array_equal(batch.counts, np.zeros(p.n, dtype=np.int64))
            samples = draw_samples(p, 0, rng)
            assert samples.dtype == np.int64 and samples.shape == (0,)
            assert _stream_state(rng) == before

    @pytest.mark.parametrize("draw", [
        lambda p, m, rng: draw_batch(p, m, rng),
        lambda p, m, rng: draw_batches(p, m, 2, rng),
        lambda p, m, rng: draw_samples(p, m, rng),
        lambda p, m, rng: distributions._multinomial_fingerprints(p, m, 2, rng),
        lambda p, m, rng: distributions._poissonized_fingerprints(p, float(m), 2, rng),
    ])
    def test_count_past_int64_raises(self, draw):
        # numpy's samplers count in int64: 2**63 would overflow, or wrap
        p = make_instance(InstanceSpec.heavy(0.1), 100)
        rng = stream(1, 2)
        before = _stream_state(rng)
        with pytest.raises(ValueError, match=r"2\*\*63|limit"):
            draw(p, 2**63, rng)
        assert _stream_state(rng) == before

    def test_point_mass(self):
        p = make_instance(InstanceSpec.heavy(1.0), 8)
        batch = draw_batch(p, 5, stream(1, 2))
        assert batch.counts[0] == 5 and batch.m == 5

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=30),
        m=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60)
    def test_counts_sum_to_m(self, seed, n, m):
        rng = stream(seed, 4)
        raw = rng.random(n) + 1e-9
        p = Pmf(raw / raw.sum())
        batch = draw_batch(p, m, stream(seed, 5))
        assert batch.m == m
        assert batch.n == n

    def test_bit_identical_given_stream_state(self):
        p = make_instance(InstanceSpec.paired_bias(0.3), 10)
        for m in (4, 50):  # alias path and multinomial path
            a = draw_batch(p, m, stream(42, 1))
            b = draw_batch(p, m, stream(42, 1))
            assert np.array_equal(a.counts, b.counts)

    def test_binomial_deviation_bound(self):
        m = 10**6
        batch = draw_batch(uniform(2), m, stream(2024, 8))
        assert abs(batch.counts[0] - m / 2) <= 4 * math.sqrt(m / 4)

    def test_ordered_samples_deterministic_and_in_range(self):
        p = make_instance(InstanceSpec.paired_bias(0.5), 6)
        a = draw_samples(p, 1000, stream(9, 9))
        b = draw_samples(p, 1000, stream(9, 9))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 6

    def test_alias_sampler_frequencies(self):
        # alias path (m < n) reproduces the pmf within 5 sigma per bucket
        rng = stream(77, 1)
        raw = rng.random(50) + 0.05
        p = Pmf(raw / raw.sum())
        total = np.zeros(50, dtype=np.int64)
        reps, m = 400, 30
        for t in range(reps):
            total += draw_batch(p, m, stream(77, 2, t)).counts
        draws = reps * m
        sd = np.sqrt(draws * p.probs * (1 - p.probs))
        assert np.all(np.abs(total - draws * p.probs) <= 5 * sd + 3)


def _assert_multinomial_moments(draws, m, probs, sigmas=5.0):
    """Per-cell means m p_i and variances m p_i (1 - p_i), cross-covariances
    -m p_i p_j, each within ``sigmas`` standard errors over the draws."""
    trials = draws.shape[0]
    mean = m * probs
    var = m * probs * (1 - probs)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= sigmas * np.sqrt(var / trials))
    # binomial fourth central moment m p q (1 + 3 (m - 2) p q)
    fourth = var * (1 + 3 * (m - 2) * probs * (1 - probs))
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= sigmas * np.sqrt((fourth - var**2) / trials) + 1e-12)
    cov = -m * np.outer(probs, probs)
    off = ~np.eye(probs.size, dtype=bool)
    cov_sd = np.sqrt((np.outer(var, var) + cov**2) / trials)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - cov)[off] <= sigmas * cov_sd[off] + 1e-12)


def _leveled(n, levels):
    """A pmf on [n] with ``levels`` equal-size levels of masses 1..levels (scaled)."""
    w = np.repeat(np.arange(1, levels + 1, dtype=np.float64), -(-n // levels))[:n]
    return Pmf(w / w.sum())


def _level_draw_with_single_cell_branch(table, m, rng):
    """``LevelTable.draw`` with its former shortcut for a one-cell level."""
    counts = np.zeros(table.n, dtype=np.int64)
    for cells, total in zip(table.cells, rng.multinomial(m, table.mass).tolist()):
        g = cells.shape[0]
        if g == 1:
            counts[cells[0]] = total
            continue
        counts[cells] = np.bincount(rng.integers(0, g, total), minlength=g)
    return counts


def _scatter_level_draw(table, m, rng):
    """The level draw's scatter form (its form from m = n), at any m."""
    counts = np.zeros(table.n, dtype=np.int64)
    for cells, total in zip(table.cells, rng.multinomial(m, table.mass).tolist()):
        counts[cells] = np.bincount(rng.integers(0, cells.size, total), minlength=cells.size)
    return counts


def _gather_level_draw(table, m, rng):
    """The level draw's gather form (its form below m = n), at any m."""
    totals = rng.multinomial(m, table.mass).tolist()
    drawn = [cells[rng.integers(0, cells.size, k)] for cells, k in zip(table.cells, totals)]
    return np.bincount(np.concatenate(drawn), minlength=table.n)


def _mixed_levels(n):
    """Three levels (one heavy cell, two halves of the rest) and a zero-mass last cell."""
    probs = np.zeros(n)
    half = (n - 2) // 2
    probs[0] = 0.1
    probs[1:1 + half] = 0.6 / half
    probs[1 + half:n - 1] = 0.3 / (n - 2 - half)
    return Pmf(probs)


class TestLevelPath:
    # two single-cell levels, a four-cell level and a zero-mass level
    MIXED = np.array([0.35, 0.15, 0.0, 0.15, 0.05, 0.15, 0.0, 0.15])

    def test_level_sets(self):
        table = Pmf(self.MIXED).level_table()
        assert [c.tolist() for c in table.cells] == [[0], [1, 3, 5, 7], [4]]
        assert table.mass == pytest.approx([0.35, 0.6, 0.05], abs=1e-15)

    def test_too_many_levels_gives_no_table(self):
        limit = distributions._LEVEL_MAX_COUNT
        assert _leveled(60, limit).level_table() is not None
        assert _leveled(60, limit + 1).level_table() is None

    @pytest.mark.parametrize("probs, m", [
        (MIXED, 30),
        (np.full(6, 1 / 6), 40),  # all equal: one level
        (make_instance(InstanceSpec.paired_bias(0.6), 10).probs, 25),
    ])
    def test_multinomial_law(self, probs, m):
        p = Pmf(probs)
        assert p.n <= m < distributions._LEVEL_MAX_RATIO * p.n
        assert p.level_table() is not None
        rng = stream(31, 7)
        draws = np.array([draw_batch(p, m, rng).counts for _ in range(20_000)], dtype=np.float64)
        assert np.all(draws.sum(axis=1) == m)
        _assert_multinomial_moments(draws, m, p.probs)

    def test_zero_mass_never_sampled(self):
        p = Pmf(self.MIXED)
        for t in range(200):
            batch = draw_batch(p, 60, stream(3, 4, t))
            assert np.all(batch.counts[self.MIXED == 0] == 0)

    def test_deterministic_given_stream(self):
        p = Pmf(self.MIXED)
        a = draw_batch(p, 50, stream(42, 2))
        b = draw_batch(p, 50, stream(42, 2))
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n, seed", [(7, 1), (1000, 2), (1000, 3)])
    def test_single_cell_level_matches_direct_assignment(self, n, seed):
        # heavy(0.5) has a one-cell level; spreading over it draws nothing
        p = make_instance(InstanceSpec.heavy(0.5), n)
        table = p.level_table()
        assert [c.size for c in table.cells] == [1, n - 1]
        rng, ref_rng = stream(seed, 8), stream(seed, 8)
        counts = draw_batch(p, 2 * n, rng).counts
        assert np.array_equal(counts, _level_draw_with_single_cell_branch(table, 2 * n, ref_rng))
        assert _stream_state(rng) == _stream_state(ref_rng)

    @pytest.mark.parametrize("p", [
        uniform(2000),
        make_instance(InstanceSpec.heavy(2000 ** -0.5), 2000),
        make_instance(InstanceSpec.paired_bias(0.5), 2000),
        _mixed_levels(2000),
    ], ids=["uniform", "heavy", "paired", "mixed"])
    def test_gather_form_equals_scatter_form(self, p):
        # same counts and same stream state at every m, so the m < n switch
        # between the two forms moves no bits
        table = p.level_table()
        assert table is not None
        for m in (0, 1, 1023, 1024, p.n - 1, p.n, 8 * p.n):
            rngs = [stream(23, m) for _ in range(3)]
            counts = [table.draw(m, rngs[0]), _scatter_level_draw(table, m, rngs[1]),
                      _gather_level_draw(table, m, rngs[2])]
            assert all(np.array_equal(counts[0], c) for c in counts[1:]), m
            assert counts[0].sum() == m
            assert len({_stream_state(r) for r in rngs}) == 1, m

    def test_multinomial_law_below_n(self):
        # the heavy barrier instance at n = 10^4, m = 2000: the level path's
        # gather form; moments on the heavy cell and a few light ones
        p = make_instance(InstanceSpec.heavy(0.01), 10**4)
        m = 2000
        assert distributions._LEVEL_MIN_SAMPLES <= m < p.n
        cells = [0, 1, 2, 4999, 9999]
        rng = stream(37, 1)
        draws = np.empty((20_000, len(cells)))
        for t in range(draws.shape[0]):
            batch = draw_batch(p, m, rng)
            assert batch.m == m
            draws[t] = batch.counts[cells]
        _assert_multinomial_moments(draws, m, p.probs[cells])

    def test_zero_mass_never_sampled_below_n(self):
        p = _mixed_levels(3000)
        probs = p.probs.copy()
        probs[1::5] = 0.0  # a sparser support, still three levels
        sparse = Pmf(probs / probs.sum())
        for q in (p, sparse):
            for t in range(100):
                batch = draw_batch(q, 2000, stream(3, 5, t))
                assert not batch.counts[q.probs == 0].any()
            assert q.level_table() is not None

    @pytest.mark.parametrize("spec", [InstanceSpec.uniform(), InstanceSpec.paired_bias(0.0)])
    def test_level_mass_rounding_past_one(self, spec):
        # renormalized, each 1/998 rounds up one ulp and 998 of them to 1 + 2**-52
        p = make_instance(spec, 998)
        assert p.probs[0] * p.n > 1.0
        assert draw_batch(p, 8 * p.n, stream(5, 998)).counts.sum() == 8 * p.n


class TestDrawDispatch:
    @pytest.mark.parametrize("p, m", [
        (_leveled(10**5, 200), 2000),
        # 2 levels, one sample short of the level path's lower cutoff
        (make_instance(InstanceSpec.heavy(0.01), 10**4), distributions._LEVEL_MIN_SAMPLES - 1),
        (make_instance(InstanceSpec.heavy(0.01), 1000), 999),  # m < n < the cutoff
    ])
    def test_below_n_draw_through_alias_table(self, p, m):
        batch = draw_batch(p, m, stream(8, 1))
        expected = np.bincount(p.alias_table().draw(m, stream(8, 1)), minlength=p.n)
        assert np.array_equal(batch.counts, expected)

    @pytest.mark.parametrize("p, m", [
        (make_instance(InstanceSpec.heavy(0.01), 10**4), 1600),
        (make_instance(InstanceSpec.heavy(0.01), 10**4), distributions._LEVEL_MIN_SAMPLES),
        (make_instance(InstanceSpec.paired_bias(0.5), 10**4), 5000),
        (make_instance(InstanceSpec.heavy(0.01), 1000), 1000),  # m = n < the cutoff
    ])
    def test_level_path_from_the_lower_cutoff(self, p, m):
        batch = draw_batch(p, m, stream(8, 3))
        assert np.array_equal(batch.counts, _gather_level_draw(p.level_table(), m, stream(8, 3)))

    @pytest.mark.parametrize("p, m", [
        (_leveled(1000, 200), 4000),  # too many levels
        (uniform(1000), distributions._LEVEL_MAX_RATIO * 1000),  # m/n at the cutoff
    ])
    def test_multinomial_outside_the_level_path(self, p, m):
        batch = draw_batch(p, m, stream(8, 2))
        assert np.array_equal(batch.counts, stream(8, 2).multinomial(m, p.probs))

    def test_identity_tester_takes_the_stacked_draw(self, monkeypatch):
        # the identity benchmark's setting: all m0 reduced batches in one
        # stacked draw over the pushforward's level table, no draw_batch
        params = TesterParams.from_constants(200, 0.3, 0.2, default_constants())
        q = make_instance(InstanceSpec.paired_bias(0.4), 200)

        def forbidden(*args):
            raise AssertionError("draw_batch called")

        monkeypatch.setattr(distributions, "draw_batch", forbidden)
        verdict = run_identity_tester(q, q, params, SeedSplit(stream(8, 7), stream(8, 8)))
        assert verdict.m >= verdict.n

    def test_identity_pushforward_never_builds_level_table(self, monkeypatch):
        # the identity benchmark's setting: n=200, eps=0.3, rho=0.2, q = paired-bias(0.4).
        # One draw_batch at m/n = 44.7 keeps the multinomial path and builds no
        # level table; the tester's m0 batches build it on purpose, through
        # draw_batches (test above)
        params = TesterParams.from_constants(200, 0.3, 0.2, default_constants())
        q = make_instance(InstanceSpec.paired_bias(0.4), 200)
        reducer = IdentityReducer(q)
        reduced = TesterParams(n=reducer.big, eps=0.1, rho=0.2, c_m1=params.c_m1,
                               c_m2=params.c_m2, c_m0=params.c_m0, c_gap=params.c_gap)
        m, _ = derive_sizes(reduced)

        def forbidden(*args):
            raise AssertionError("level table built")

        monkeypatch.setattr(LevelTable, "build", forbidden)
        for p in (q, make_instance(InstanceSpec.uniform(), 200)):
            pushed = reducer.pushforward(p)
            draw_batch(pushed, m, stream(8, 4))
            assert "_levels" not in vars(pushed)


def _identity_pushforward():
    """The identity benchmark's reduced pmf on 1200 cells: q = paired-bias(0.4) on 200."""
    q = make_instance(InstanceSpec.paired_bias(0.4), 200)
    return IdentityReducer(q).pushforward(q)


def _level_ends(p):
    """The first and last cell of each level, and every zero-mass cell."""
    ends = [int(c) for cells in p.level_table().cells for c in (cells[0], cells[-1])]
    return sorted(set(ends) | set(np.flatnonzero(p.probs == 0).tolist()))


class TestDrawBatches:
    @pytest.mark.parametrize("p, m", [
        (make_instance(InstanceSpec.paired_bias(0.5), 1000), 7784),  # the headline batch
        (_identity_pushforward(), 53587),
        (uniform(500), 8 * 500),
        (make_instance(InstanceSpec.heavy(1.0), 50), 10**4),  # point mass, rate past the table bound
        (_mixed_levels(300), 8 * 300),  # 3 levels and a zero-mass cell
        (uniform(200), 4200 * 200),  # a level past the table bound
        (make_instance(InstanceSpec.paired_bias(0.5), 1000), 1000),  # m = n, where the stacked draw starts
        (_mixed_levels(300), 2 * 300),
    ], ids=["paired", "identity", "uniform", "point-mass", "mixed", "high-rate", "paired-m=n", "mixed-m=2n"])
    def test_multinomial_law(self, p, m):
        assert p.n <= m and 3 * math.sqrt(m) <= 16 * p.n
        assert p.level_table() is not None
        cells = _level_ends(p)
        rng = stream(41, p.n)
        draws = []
        for _ in range(10):
            batches = draw_batches(p, m, 2000, rng)
            assert batches.shape == (2000, p.n) and batches.dtype == np.int64
            assert np.all(batches.sum(axis=1) == m)
            assert not batches[:, p.probs == 0].any()
            draws.append(batches[:, cells])
        _assert_multinomial_moments(np.concatenate(draws).astype(np.float64), m, p.probs[cells])

    def test_rows_independent_through_redraws(self, monkeypatch):
        # with no slack about half the Poisson rows overshoot m and are redrawn
        monkeypatch.setattr(distributions, "_POISSON_SLACK", 0.0)
        draws_made = []
        poisson_rows = distributions._poisson_rows
        monkeypatch.setattr(distributions, "_poisson_rows", lambda levels, plan, rows, rng:
                            draws_made.append(rows) or poisson_rows(levels, plan, rows, rng))
        p = _mixed_levels(20)
        m, k, calls = 8 * 20, 6, 5000
        rng = stream(43, 1)
        draws = np.array([draw_batches(p, m, k, rng) for _ in range(calls)], dtype=np.float64)
        assert len(draws_made) > 1.5 * calls and sum(draws_made) > 1.3 * k * calls
        assert np.all(draws.sum(axis=2) == m)
        cells = _level_ends(p)
        for row in range(k):
            _assert_multinomial_moments(draws[:, row, cells], m, p.probs[cells])
        # rows of one call are independent: zero covariance between any two
        var = m * p.probs * (1 - p.probs)
        centered = draws - draws.mean(axis=0)
        for a in range(k):
            for b in range(a + 1, k):
                cov = (centered[:, a] * centered[:, b]).mean(axis=0)
                assert np.all(np.abs(cov) <= 5 * np.sqrt(var * var / calls) + 1e-12)

    @pytest.mark.parametrize("p, m", [
        (make_instance(InstanceSpec.paired_bias(0.5), 1000), 1000 - 1),  # one sample short of m = n
        (make_instance(InstanceSpec.heavy(0.01), 10**4), 5000),  # level path below n
        (_leveled(1000, 200), 8000),  # too many levels
        (uniform(100), 0),
        (uniform(2), 10**12),  # a top-up of 3 sqrt(m) = 3e6 samples per row: too long
    ])
    def test_rows_of_draw_batch_otherwise(self, p, m):
        rng = stream(8, 5)
        expected = np.array([draw_batch(p, m, rng).counts for _ in range(5)])
        assert np.array_equal(draw_batches(p, m, 5, stream(8, 5)), expected)

    def test_stacked_draw_from_the_ratio(self, monkeypatch):
        # the stacked draw starts at m/n = 1; one sample short, the rows are draw_batch calls
        p = make_instance(InstanceSpec.paired_bias(0.5), 1000)

        def forbidden(*args):
            raise AssertionError("draw_batch called")

        monkeypatch.setattr(distributions, "draw_batch", forbidden)
        assert draw_batches(p, p.n, 3, stream(8, 6)).sum() == 3 * p.n
        with pytest.raises(AssertionError, match="draw_batch called"):
            draw_batches(p, p.n - 1, 3, stream(8, 6))

    def test_deterministic_given_stream(self):
        p = _identity_pushforward()
        a = draw_batches(p, 53587, 9, stream(42, 3))
        b = draw_batches(p, 53587, 9, stream(42, 3))
        assert np.array_equal(a, b)
        assert len({row.tobytes() for row in a}) == 9

    def test_no_rows(self):
        for m in (0, 10, 8000):
            assert draw_batches(uniform(1000), m, 0, stream(1, 1)).shape == (0, 1000)

    @pytest.mark.parametrize("m, k", [(-1, 3), (10, -1)])
    def test_rejects_negative_counts(self, m, k):
        with pytest.raises(ValueError):
            draw_batches(uniform(10), m, k, stream(1, 1))

    def test_small_domains(self):
        # the Poisson rate m - 3 sqrt(m) is 0 or below for m <= 9: every sample
        # comes from the top-up
        for p, m in ((Pmf(np.array([0.5, 0.5])), 8), (Pmf(np.array([1.0])), 4),
                     (Pmf(np.array([0.25, 0.75])), 12)):
            counts = draw_batches(p, m, 50, stream(3, m))
            assert np.all(counts.sum(axis=1) == m)


def _table_lookup(table, chunks, fresh):
    """Poisson variates of one table for random 16-bit chunks."""
    return distributions._JointTable([table]).lookup(chunks, [chunks.size], fresh)


def _reference_rows(p, m, k, rng):
    """The stacked draw's level-major rows, one table lookup per level and
    nothing kept between calls: the loop that ``_DrawPlan`` and
    ``_JointTable`` replace."""
    levels = p.level_table()
    sizes = [cells.size for cells in levels.cells]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    width = sum(sizes)
    rate = max(m - distributions._POISSON_SLACK * math.sqrt(m), 0.0)
    rates = [rate * float(p.probs[cells[0]]) for cells in levels.cells]
    tables = [None if lam > distributions._POISSON_TABLE_MAX_RATE else PoissonTable(lam) for lam in rates]

    def poisson_rows(rows):
        counts = np.empty((rows, width), dtype=np.int64)
        tabled = rows * sum(g for g, table in zip(sizes, tables) if table is not None)
        chunks = rng.bit_generator.random_raw(-(-tabled // 4)).view(np.uint16)
        start = 0
        for g, lam, table, off in zip(sizes, rates, tables, offsets):
            if table is None:
                counts[:, off:off + g] = rng.poisson(lam, (rows, g))
            else:
                block = chunks[start:start + rows * g]
                looked_up = _table_lookup(table, block, rng.bit_generator.random_raw)
                counts[:, off:off + g] = looked_up.reshape(rows, g)
                start += rows * g
        return counts

    counts = poisson_rows(k)
    totals = counts.sum(axis=1)
    over = np.flatnonzero(totals > m)
    while over.size:
        counts[over] = poisson_rows(over.size)
        totals[over] = counts[over].sum(axis=1)
        over = over[totals[over] > m]
    split = rng.multinomial(m - totals, levels.mass)
    starts = np.arange(k) * width
    flat = [np.repeat(starts + off, split[:, l]) + rng.integers(0, g, int(split[:, l].sum()))
            for l, (g, off) in enumerate(zip(sizes, offsets))]
    counts += np.bincount(np.concatenate(flat), minlength=k * width).reshape(k, width)
    return counts


def _untabled_middle_level(n):
    """Three levels whose middle one (a single cell of mass 0.3) passes the table bound at m = 20,000."""
    probs = np.full(n, 0.69 / (n - 2))
    probs[:2] = [0.01, 0.3]
    return Pmf(probs)


class TestDrawPlan:
    """The stacked draw from its cached plan: the same rows and stream use
    as the loop it replaced, whatever the pmf's levels and the draws before."""

    @pytest.mark.parametrize("p, m, k", [
        (make_instance(InstanceSpec.paired_bias(0.5), 1000), 7784, 9),  # headline: 2 levels of one bits
        (make_instance(InstanceSpec.paired_bias(0.137), 1000), 7784, 9),
        (uniform(1000), 7784, 9),
        (_identity_pushforward(), 53587, 9),  # 2 levels of one bits
        (_mixed_levels(300), 8 * 300, 40),  # 3 levels and a zero-mass cell
        (_untabled_middle_level(50), 20_000, 30),  # tabled, untabled, tabled
        (make_instance(InstanceSpec.heavy(1.0), 50), 10**4, 5),  # one untabled level
        (Pmf(np.array([0.5, 0.5])), 8, 50),  # rate 0: the top-up draws every sample
    ], ids=["headline", "headline-0.137", "uniform", "identity", "mixed", "untabled-middle",
            "point-mass", "rate-0"])
    def test_rows_equal_the_per_level_loop(self, p, m, k):
        rng, ref = stream(67, m), stream(67, m)
        for _ in range(3):
            rows, order = distributions._draw_rows(p, m, k, rng)
            assert np.array_equal(rows, _reference_rows(p, m, k, ref))
            assert _stream_state(rng) == _stream_state(ref)
        assert np.array_equal(order, np.concatenate(p.level_table().cells))

    def test_far_identity_levels_split_by_bits(self):
        # the identity benchmark's far p: 3 levels whose tables have 12, 13
        # and 13 bits, read as two joint tables
        q = make_instance(InstanceSpec.paired_bias(0.4), 200)
        far = np.array(q.probs)
        far[0::2] -= 0.003
        far[1::2] += 0.003
        p = IdentityReducer(q).pushforward(Pmf(far))
        plan = p.level_table().plan(53587)
        assert [(group, joint.bits) for group, joint in plan.groups] == [([0], 12), ([1, 2], 13)]
        rng, ref = stream(68, 1), stream(68, 1)
        assert np.array_equal(distributions._draw_rows(p, 53587, 9, rng)[0], _reference_rows(p, 53587, 9, ref))
        assert _stream_state(rng) == _stream_state(ref)

    def test_plan_cannot_go_stale(self):
        # one pmf drawn at m1, m2, m1 with k = 9 and 3 gives the rows of a
        # fresh pmf on the same streams
        def fresh():
            return make_instance(InstanceSpec.paired_bias(0.3), 1000)

        p = fresh()
        calls = [(7784, 9), (3639, 9), (7784, 3), (7784, 9), (3639, 3), (7784, 3)]
        for t, (m, k) in enumerate(calls):
            rows, _ = distributions._draw_rows(p, m, k, stream(69, t))
            assert p.level_table()._plan.m == m
            assert np.array_equal(rows, distributions._draw_rows(fresh(), m, k, stream(69, t))[0]), (m, k)

    def test_pickled_pmf_draws_the_same_rows(self):
        import pickle

        for p in (make_instance(InstanceSpec.paired_bias(0.3), 1000), _mixed_levels(300)):
            m = 7784 if p.n == 1000 else 2400
            before = pickle.loads(pickle.dumps(p))  # no plan yet
            first = distributions._draw_rows(p, m, 9, stream(70, 0))[0]
            after = pickle.loads(pickle.dumps(p))  # the plan travels with it
            for q in (before, after):
                assert np.array_equal(distributions._draw_rows(q, m, 9, stream(70, 0))[0], first)
                assert np.array_equal(draw_batches(q, m, 4, stream(70, 1)), draw_batches(p, m, 4, stream(70, 1)))

    def test_table_and_plan_go_with_their_pmf(self):
        # with no reference cycle through the cached plan, dropping the pmf frees
        # its level table and plan at once, not at the next full collection: the
        # replicability prior draws a fresh pmf for every pair
        import gc
        import weakref

        p = make_instance(InstanceSpec.paired_bias(0.3), 1000)
        distributions._draw_rows(p, 7784, 9, stream(70, 2))
        table, plan = weakref.ref(p.level_table()), weakref.ref(p.level_table().plan(7784))
        gc.disable()
        try:
            del p
            assert table() is None and plan() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("rates", [(7.5, 7.9), (7.5, 7.9, 6.8), (44.0771116817598, 44.077111681759796)])
    def test_joint_table_equals_one_lookup_per_table(self, rates):
        tables = [PoissonTable(lam) for lam in rates]
        assert len({table.bits for table in tables}) == 1
        sizes = [900, 1300, 7][:len(tables)]
        chunks = stream(71, len(rates)).bit_generator.random_raw(sum(sizes)).astype(np.uint16)
        ends = np.cumsum(sizes).tolist()
        rng, ref = stream(72, 0), stream(72, 0)
        out = distributions._JointTable(tables).lookup(chunks, ends, rng.bit_generator.random_raw)
        expected = [_table_lookup(table, block, ref.bit_generator.random_raw)
                    for table, block in zip(tables, np.split(chunks, ends[:-1]))]
        assert np.array_equal(out, np.concatenate(expected))
        assert _stream_state(rng) == _stream_state(ref)


class TestPoissonTable:
    RATES = [1e-3, 0.5, 7.5, 44.7, distributions._POISSON_TABLE_MAX_RATE]

    @pytest.mark.parametrize("lam", RATES)
    def test_cdf_matches_scipy(self, lam):
        from scipy.stats import poisson

        table = PoissonTable(lam)
        k = np.arange(table.lo, table.lo + table.cdf.size)
        assert np.all(np.abs(table.cdf - poisson.cdf(k, lam)) <= 1e-12)
        # the mass left out below and above the table
        assert poisson.cdf(table.lo - 1, lam) <= 1e-15 and poisson.sf(k[-1], lam) <= 1e-15
        assert table.cdf[-1] == 1.0 and np.all(np.diff(table.cdf) >= 0)

    @pytest.mark.parametrize("lam", [*RATES, 0.04, 0.63, 4.0, 64.0])
    def test_pmf_is_the_law_of_the_cdf(self, lam):
        # the cdf's steps, so a count drawn from pmf has the law of a lookup:
        # mean and variance lam up to the cdf's rounding
        table = PoissonTable(lam)
        pmf = table.pmf
        assert np.all(pmf >= 0) and pmf[0] == table.cdf[0]
        assert np.array_equal(np.cumsum(pmf), table.cdf)
        k = np.arange(table.lo, table.lo + pmf.size)
        mean = math.fsum((k * pmf).tolist())
        var = math.fsum(((k - mean) ** 2 * pmf).tolist())
        assert abs(mean - lam) <= 1e-13 * max(lam, 1.0) and abs(var - lam) <= 1e-13 * max(lam, 1.0)

    @staticmethod
    def _grid_edges(table):
        """Every bucket edge j/Q and every cdf entry, each with its two
        neighbours on the 53-bit grid, as integers x (u = x / 2**53)."""
        edges = np.arange(1 << table.bits, dtype=np.int64) << (53 - table.bits)
        scaled = table.cdf * 2.0**53  # exact; an entry below 1/2 can fall between grid points
        points = np.concatenate((edges, np.floor(scaled).astype(np.int64), np.ceil(scaled).astype(np.int64)))
        x = np.unique(np.concatenate((points - 1, points, points + 1)))
        return x[(x >= 0) & (x < 2**53)]

    @staticmethod
    def _lookup_grid(table, x, junk):
        """``_table_lookup`` of the 53-bit grid points x: each chunk carries x's
        bucket in its top ``bits`` and junk below, and each fresh word carries
        x's low ``53 - bits`` bits and junk above, so a lookup that used any
        other bit would miss u."""
        x = np.asarray(x, dtype=np.uint64)
        bits, low = table.bits, 53 - table.bits
        bucket = x >> np.uint64(low)
        chunks = (bucket << np.uint64(16 - bits)) | (junk.integers(0, 1 << (16 - bits), x.size, dtype=np.uint64))
        words = (x & np.uint64((1 << low) - 1)) | (junk.integers(0, 1 << (11 + bits), x.size, dtype=np.uint64) << np.uint64(low))
        ambiguous = table.guide[bucket.astype(np.intp)] < 0
        calls = []

        def fresh(count):
            calls.append(count)
            return words[ambiguous]

        out = _table_lookup(table, chunks.astype(np.uint16), fresh)
        # fresh words are drawn once, one per cell in an ambiguous bucket, in order
        assert calls == ([int(ambiguous.sum())] if ambiguous.any() else [])
        return out

    @staticmethod
    def _search(table, x):
        return table.lo + np.searchsorted(table.cdf, np.asarray(x, dtype=np.float64) * 2.0**-53, side="right")

    @pytest.mark.parametrize("lam", [*RATES, 0.0, 5e-324, 44.0771116817598])
    def test_lookup_equals_search_at_every_edge(self, lam):
        table = PoissonTable(lam)
        x = self._grid_edges(table)
        assert np.array_equal(self._lookup_grid(table, x, stream(5, 1)), self._search(table, x))

    @given(lam=st.floats(min_value=0.0, max_value=distributions._POISSON_TABLE_MAX_RATE),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lookup_equals_search(self, lam, data):
        table = PoissonTable(lam)
        edges = self._grid_edges(table)
        picks = data.draw(st.lists(st.integers(0, edges.size - 1), min_size=1, max_size=50))
        free = data.draw(st.lists(st.integers(0, 2**53 - 1), max_size=50))
        x = np.concatenate((edges[picks], np.array(free, dtype=np.int64)))
        junk = stream(5, data.draw(st.integers(0, 2**32)))
        assert np.array_equal(self._lookup_grid(table, x, junk), self._search(table, x))

    @given(lam=st.one_of(st.floats(min_value=0.0, max_value=distributions._POISSON_TABLE_MAX_RATE),
                         st.sampled_from([0.0, 5e-324, 1e-300])))
    @settings(max_examples=60, deadline=None)
    def test_guide_is_the_bucket_search(self, lam):
        # bucket j holds lo + searchsorted(cdf, j/Q, "right"), or -1 when a cdf
        # entry lies in (j/Q, (j+1)/Q]: searched here bucket by bucket
        table = PoissonTable(lam)
        edges = np.arange((1 << table.bits) + 1) * 2.0 ** -table.bits
        found = np.searchsorted(table.cdf, edges, side="right")
        expected = np.where(found[1:] > found[:-1], -1, table.lo + found[:-1])
        assert table.guide.dtype == np.int32 and np.array_equal(table.guide, expected)

    def test_lookup_without_ambiguous_cells_draws_no_word(self):
        table = PoissonTable(7.5)
        clear = np.flatnonzero(table.guide >= 0)
        chunks = (clear << (16 - table.bits)).astype(np.uint16)

        def fresh(count):
            raise AssertionError("fresh word drawn")

        assert np.array_equal(_table_lookup(table, chunks, fresh), table.guide[clear])

    def test_guide_size(self):
        # Q = 2**bits, at least 32 times the table, so about 1% of chunks are
        # ambiguous; a 16-bit chunk holds the bucket up to the rate bound
        top = distributions._POISSON_TABLE_MAX_RATE
        for lam in [*self.RATES, 0.0, 0.5 * top, 0.9 * top, np.nextafter(top, 0.0)]:
            table = PoissonTable(lam)
            q = 1 << table.bits
            assert table.bits <= 16 and 32 * table.cdf.size <= q < 64 * table.cdf.size
            assert table.guide.size == q
            if lam > 0:  # the one-entry table of rate 0 has 1 ambiguous bucket of 32
                assert (table.guide < 0).mean() < 0.02


class TestPoissonized:
    def test_zero_mass_never_sampled(self):
        p = Pmf(np.array([1.0, 0.0, 0.0]))
        for t in range(50):
            batch = draw_poissonized_batch(p, 7.0, stream(3, t))
            assert batch.counts[1] == 0 and batch.counts[2] == 0

    def test_mean_matches_rate(self):
        trials = 10**5
        p = Pmf(np.array([1.0]))
        rng = stream(13, 0)
        total = sum(int(draw_poissonized_batch(p, 3.0, rng).counts[0]) for _ in range(trials))
        assert abs(total / trials - 3.0) <= 4 * math.sqrt(3.0 / trials)

    def test_component_independence(self):
        # independent Poisson(m p_i) counts below and above m = n (a Poisson
        # total N then a batch of N, mostly alias at 4.5 and multinomial at 30): mean =
        # variance = m p_i, zero covariance, and a total of variance m (a
        # multinomial at fixed m would give covariance -m p_i p_j and 0)
        trials = 20_000
        p = Pmf(np.array([0.3, 0.25, 0.2, 0.1, 0.1, 0.05]))
        off = ~np.eye(p.n, dtype=bool)
        for m in (4.5, 30.0):
            rng = stream(17, 5)
            draws = np.array(
                [draw_poissonized_batch(p, m, rng).counts for _ in range(trials)],
                dtype=np.float64,
            )
            lam = m * p.probs
            assert np.all(np.abs(draws.mean(axis=0) - lam) <= 5 * np.sqrt(lam / trials))
            var_sd = np.sqrt((lam + 2 * lam**2) / trials)
            assert np.all(np.abs(draws.var(axis=0, ddof=1) - lam) <= 5 * var_sd)
            cov_sd = np.sqrt(np.outer(lam, lam) / trials)
            assert np.all(np.abs(np.cov(draws, rowvar=False)[off]) <= 5 * cov_sd[off])
            total_var = draws.sum(axis=1).var(ddof=1)
            assert abs(total_var - m) <= 5 * math.sqrt((m + 2 * m * m) / trials)

    @pytest.mark.parametrize("p, m", [
        (Pmf(TestLevelPath.MIXED), 8.0),  # rates 2.8, 1.2 and 0.4, two zero-mass cells
        (_mixed_levels(20), 80.0),
        (make_instance(InstanceSpec.heavy(0.5), 4), 10**4),  # the heavy level's rate passes the table bound
    ], ids=["mixed-8", "mixed-20", "high-rate"])
    def test_independent_poissons_from_n_on_few_levels(self, p, m):
        # m >= n on a pmf with at most 3 levels: a Poisson total N then a batch
        # of N on any of draw_batch's paths (mostly level at 8 and 80,
        # multinomial past 16n) gives independent Poisson(m p_i) counts
        trials = 20_000
        rng = stream(17, 6)
        draws = np.array([draw_poissonized_batch(p, m, rng).counts for _ in range(trials)],
                         dtype=np.float64)
        zero = p.probs == 0
        assert not draws[:, zero].any()
        draws, lam = draws[:, ~zero], m * p.probs[~zero]
        assert np.all(np.abs(draws.mean(axis=0) - lam) <= 5 * np.sqrt(lam / trials))
        var_sd = np.sqrt((lam + 2 * lam**2) / trials)
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - lam) <= 5 * var_sd)
        off = ~np.eye(lam.size, dtype=bool)
        cov_sd = np.sqrt(np.outer(lam, lam) / trials)
        assert np.all(np.abs(np.cov(draws, rowvar=False)[off]) <= 5 * cov_sd[off])
        total_var = draws.sum(axis=1).var(ddof=1)
        assert abs(total_var - m) <= 5 * math.sqrt((m + 2 * m * m) / trials)

    def test_zero_mass_never_sampled_below_n(self):
        probs = np.zeros(10)
        probs[[0, 3, 7]] = [0.5, 0.25, 0.25]
        p = Pmf(probs)
        for t in range(50):
            batch = draw_poissonized_batch(p, 6.0, stream(3, t))
            assert np.all(batch.counts[probs == 0] == 0)

    def test_m_field_is_realized_total(self):
        # a Poisson total then an adopted draw_batch: level path at rate 40
        # (m >= n), alias path at rate 3 and level path at 1500 (m < n)
        for p, rate in ((make_instance(InstanceSpec.paired_bias(0.2), 10), 40.0),
                        (make_instance(InstanceSpec.heavy(0.05), 2000), 3.0),
                        (make_instance(InstanceSpec.heavy(0.05), 2000), 1500.0)):
            batch = draw_poissonized_batch(p, rate, stream(19, 0))
            assert batch.counts.dtype == np.int64 and not batch.counts.flags.writeable
            assert type(batch.m) is int and batch.m == int(batch.counts.sum())

    @pytest.mark.parametrize("p", [
        make_instance(InstanceSpec.heavy(1000 ** -0.5), 1000),
        make_instance(InstanceSpec.paired_bias(0.5), 1000),
        _leveled(1000, 200),  # too many levels for a level table
    ], ids=["heavy", "paired", "many-levels"])
    @pytest.mark.parametrize("ratio", [0.5, 1, 8])
    def test_poisson_total_then_draw_batch(self, p, ratio):
        # one route at every m: the same bits and the same stream state as a
        # Poisson total followed by draw_batch
        m = ratio * p.n
        for seed in range(3):
            rng, ref_rng = stream(29, seed), stream(29, seed)
            batch = draw_poissonized_batch(p, m, rng)
            expected = draw_batch(p, int(ref_rng.poisson(m)), ref_rng)
            assert np.array_equal(batch.counts, expected.counts) and batch.m == expected.m
            assert _stream_state(rng) == _stream_state(ref_rng)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            draw_poissonized_batch(uniform(3), 0.0, stream(1, 1))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            draw_poissonized_batch(uniform(3), rate, stream(1, 1))

    def test_rejects_rate_above_numpy_limit(self):
        p = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"m = 3e\+19 exceeds"):
            draw_poissonized_batch(p, 3e19, stream(1, 1))


def _reference_fingerprint(p, m, rng):
    """One Poisson(m p_i) count per cell, reduced to its fingerprint by ``np.unique``."""
    return np.unique(rng.poisson(m * p.probs), return_counts=True)


def _zero_mass_pmf(n):
    """Uniform on the even cells, zero on the odd ones."""
    probs = np.zeros(n)
    probs[::2] = 2.0 / n
    return Pmf(probs)


def _rows_of(fingerprints):
    """A k-row sampler's ``(values, mult, starts)`` as one ``(values, mult)`` per row.

    Each row must be as ``np.unique(counts, return_counts=True)`` gives it:
    distinct counts, ascending, each held by at least one cell.
    """
    values, mult, starts = fingerprints
    assert values.shape == mult.shape and values.dtype == mult.dtype == np.int64
    assert np.all(np.diff(starts) > 0) and (starts.size == 0 or (starts[0] == 0 and starts[-1] < values.size))
    rows = [(values[a:b], mult[a:b]) for a, b in zip(starts.tolist(), [*starts[1:].tolist(), values.size])]
    for v, c in rows:
        assert np.all(np.diff(v) > 0) and v[0] >= 0 and np.all(c > 0)
    return rows


class TestPoissonizedFingerprint:
    TRIALS = 2000

    @staticmethod
    def _assert_law(fingerprints, p, m):
        """Each value's mean multiplicity is within 5 SE of sum_i P(Poisson(m p_i) = v).

        Values whose expected multiplicity is below 0.05 are pooled into one
        bin, so that each bin's mean over the draws is near normal.  The SE
        is exact: a multiplicity is a sum of independent cell indicators.
        """
        from scipy.stats import poisson

        trials = len(fingerprints)
        rates, cells = np.unique(m * p.probs, return_counts=True)
        top = max(max(int(v[-1]) for v, _ in fingerprints),
                  int(rates[-1] + 12 * math.sqrt(rates[-1]) + 30))
        law = poisson.pmf(np.arange(top + 1)[None, :], rates[:, None])  # (rates, values)
        observed = np.zeros(top + 1)
        for values, mult in fingerprints:
            assert np.all(np.diff(values) > 0) and np.all(mult > 0) and mult.sum() == p.n
            observed[values] += mult
        expected = cells @ law
        single, pooled = np.flatnonzero(expected >= 0.05), np.flatnonzero(expected < 0.05)
        hits = np.column_stack([law[:, single], law[:, pooled].sum(axis=1)])
        got = np.append(observed[single], observed[pooled].sum()) / trials
        mean, var = cells @ hits, cells @ (hits * (1 - hits))
        assert np.all(np.abs(got - mean) <= 5 * np.sqrt(np.maximum(var, 0.0) / trials) + 1e-9)

    @pytest.mark.parametrize("p, m", [
        (make_instance(InstanceSpec.heavy(1e4 ** -0.5), 10**4), 400),
        (make_instance(InstanceSpec.heavy(1e4 ** -0.5), 10**4), 6400),
        (_mixed_levels(2000), 3000),  # 3 levels and a zero-mass cell
        (_zero_mass_pmf(1000), 500),
        (_leveled(1000, 200), 2000),  # more than 3 levels: numpy's Poisson over all n
        # rates 3840 and 4160 on either side of the table bound: all n from numpy's Poisson
        (Pmf(np.repeat([0.0048, 0.0052], 100)), 800_000),
    ], ids=["heavy-400", "heavy-6400", "three-levels", "zero-mass", "many-levels", "table-bound"])
    def test_law_against_per_cell_poissons(self, p, m):
        # the k-row sampler and the per-cell reference both match the closed-form
        # fingerprint law, and both give the chi-square mean m n sum (p_i - 1/n)^2
        from repunif import stats

        rng, ref_rng = stream(71, 1), stream(71, 2)
        fingerprints = distributions._poissonized_fingerprints(p, m, self.TRIALS, rng)
        drawn = _rows_of(fingerprints)
        assert len(drawn) == self.TRIALS
        reference = [_reference_fingerprint(p, m, ref_rng) for _ in range(self.TRIALS)]
        closed_form = m * p.n * math.fsum(((p.probs - 1.0 / p.n) ** 2).tolist())
        for rows in (drawn, reference):
            self._assert_law(rows, p, m)
            chi2 = np.array([stats._chi2_sums(v, c, np.zeros(1, dtype=np.int64), p.n, m)[0] for v, c in rows])
            assert abs(chi2.mean() - closed_form) <= 6 * chi2.std(ddof=1) / math.sqrt(self.TRIALS)
        # the k rows score as the rows one at a time
        assert stats._chi2_sums(*fingerprints, p.n, m) == [
            stats._chi2_sums(v, c, np.zeros(1, dtype=np.int64), p.n, m)[0] for v, c in drawn]

    @pytest.mark.parametrize("rate, match", [
        (0.0, "finite and > 0"), (-1.0, "finite and > 0"), (math.nan, "finite"),
        (math.inf, "finite"), (3e19, r"m = 3e\+19 exceeds"),
    ])
    def test_rejects_bad_rates(self, rate, match):
        # the checks and messages of draw_poissonized_batch
        with pytest.raises(ValueError, match=match):
            distributions._poissonized_fingerprints(Pmf(np.array([0.5, 0.5])), rate, 3, stream(1, 1))

    def test_several_blocks(self, monkeypatch):
        # 300 matrix entries a block at rate 6400: 3 rows of a matrix as wide as
        # the heavy cell's largest count, about 95 (the light table has 18 values)
        monkeypatch.setattr(distributions, "_FINGERPRINT_BLOCK", 300)
        shapes = []
        matrix = distributions._histogram_matrix
        monkeypatch.setattr(distributions, "_histogram_matrix",
                            lambda *args: shapes.append(matrix(*args).shape) or matrix(*args))
        p, m = make_instance(InstanceSpec.heavy(1e4 ** -0.5), 10**4), 6400
        drawn = _rows_of(distributions._poissonized_fingerprints(p, m, self.TRIALS, stream(71, 3)))
        assert len(drawn) == self.TRIALS and sum(rows for rows, _ in shapes) == self.TRIALS
        assert all(rows * width <= 300 for rows, width in shapes)
        self._assert_law(drawn, p, m)

    def test_rows_and_determinism(self):
        p = make_instance(InstanceSpec.heavy(0.01), 10**4)
        a = distributions._poissonized_fingerprints(p, 6400.0, 50, stream(9, 1))
        b = distributions._poissonized_fingerprints(p, 6400.0, 50, stream(9, 1))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        rows = _rows_of(a)
        assert all(c.sum() == p.n for _, c in rows)
        assert len({(v.tobytes(), c.tobytes()) for v, c in rows}) > 40
        assert [x.size for x in distributions._poissonized_fingerprints(p, 6400.0, 0, stream(9, 1))] == [0, 0, 0]
        with pytest.raises(ValueError):
            distributions._poissonized_fingerprints(p, 6400.0, -1, stream(9, 1))


class TestLevelDraws:
    def test_mass_ordered_histograms_in_value_order(self):
        # the heavy cell (g = 1, 142 table values) and the 9,999-cell level at
        # m = 6400: every row places the level's g cells, and each column's mean
        # is within 5 SE of g times the table's mass of that column's value
        p, m, rows = make_instance(InstanceSpec.heavy(0.01), 10**4), 6400, 20_000
        tables = [distributions._poisson_table((m - math.sqrt(m)) * float(p.probs[cells[0]]))
                  for cells in p.level_table().cells]
        sizes = [cells.size for cells in p.level_table().cells]
        assert sizes == [1, 9999] and tables[0].cdf.size == 142
        draws = distributions._level_draws(tables, sizes, rows, stream(73, 7))
        for (lo, hist), table, g in zip(draws, tables, sizes):
            assert lo == table.lo and hist.shape == (rows, table.cdf.size) and hist.dtype == np.int64
            assert np.all(hist.sum(axis=1) == g)
            se = np.sqrt(g * table.pmf * (1.0 - table.pmf) / rows)
            assert np.all(np.abs(hist.mean(axis=0) - g * table.pmf) <= 5 * se)


def _collisions_and_empties(fingerprints):
    """Each row's collision count and empty-cell count."""
    rows = _rows_of(fingerprints)
    return (np.array([c @ (v * (v - 1) // 2) for v, c in rows]),
            np.array([c[v == 0].sum() for v, c in rows]))


class TestMultinomialFingerprints:
    TRIALS = 2000
    CASES = [
        (make_instance(InstanceSpec.heavy(1e4 ** -0.5), 10**4), 400),
        (make_instance(InstanceSpec.heavy(1e4 ** -0.5), 10**4), 6400),
        (make_instance(InstanceSpec.paired_bias(0.5), 1000), 7784),  # the headline batch
        (_mixed_levels(2000), 3000),  # 3 levels and a zero-mass cell
        (_mixed_levels(300), 40),  # small m: the one-cell level at rate 3.4
        (uniform(50), 3),  # rate 1.3: most samples from the top-up
        (make_instance(InstanceSpec.heavy(0.3), 20), 9),
        (make_instance(InstanceSpec.heavy(0.3), 20), 1),  # rate 0: the one sample from the top-up
        (_leveled(1000, 200), 2000),  # more than 3 levels: draw_batch rows
        # cell rate (800000 - sqrt(800000)) * 0.0052 = 4155 past the table bound: draw_batch rows
        (Pmf(np.repeat([0.0048, 0.0052], 100)), 800_000),
    ]
    IDS = ["heavy-400", "heavy-6400", "paired-7784", "three-levels", "few-cells", "uniform-3",
           "heavy-9", "heavy-1", "many-levels", "table-bound"]

    @staticmethod
    def _assert_rows(fingerprints, p, m, k):
        rows = _rows_of(fingerprints)
        assert len(rows) == k
        assert all(c.sum() == p.n and c @ v == m for v, c in rows)

    @pytest.mark.parametrize("p, m", CASES, ids=IDS)
    def test_law_against_draw_batch_rows(self, p, m):
        self._assert_law(p, m)

    @pytest.mark.parametrize("p, m", CASES[5:7], ids=IDS[5:7])
    def test_law_at_rate_zero(self, p, m, monkeypatch):
        # at a slack of 3 the Poisson rate max(E[R] - 3 sqrt(E[R]), 0) is 0 here,
        # so every sample of the levels of more than one cell comes from the top-up
        monkeypatch.setattr(distributions, "_FINGERPRINT_SLACK", 3.0)
        rates = []
        tables = distributions._fingerprint_tables
        monkeypatch.setattr(distributions, "_fingerprint_tables", lambda levels, lams: rates.append(
            [lam for lam, cells in zip(lams, levels.cells) if cells.size > 1]) or tables(levels, lams))
        self._assert_law(p, m)
        assert rates == [[0.0]]

    @classmethod
    def _assert_law(cls, p, m):
        """Two-sample KS of the collision and empty-cell counts against draw_batch
        rows, and both means within 5 SE of their closed forms."""
        from scipy.stats import ks_2samp

        fingerprints = distributions._multinomial_fingerprints(p, m, cls.TRIALS, stream(73, 1))
        cls._assert_rows(fingerprints, p, m, cls.TRIALS)
        rng = stream(73, 2)
        rows = np.array([draw_batch(p, m, rng).counts for _ in range(cls.TRIALS)])
        drawn = _collisions_and_empties(fingerprints)
        reference = ((rows * (rows - 1) // 2).sum(axis=1), (rows == 0).sum(axis=1))
        means = (math.comb(m, 2) * math.fsum((p.probs ** 2).tolist()),
                 math.fsum(((1.0 - p.probs) ** m).tolist()))
        for got, ref, mean in zip(drawn, reference, means):
            if np.ptp(got) or np.ptp(ref):
                assert ks_2samp(got, ref).pvalue > 1e-3
            for sample in (got, ref):
                assert abs(sample.mean() - mean) <= 5 * sample.std(ddof=1) / math.sqrt(cls.TRIALS) + 1e-9

    @pytest.mark.parametrize("p, m", CASES[8:], ids=IDS[8:])
    def test_fallback_reduces_draw_batch_rows(self, p, m):
        rng = stream(73, 3)
        expected = [np.unique(draw_batch(p, m, rng).counts, return_counts=True) for _ in range(5)]
        got = _rows_of(distributions._multinomial_fingerprints(p, m, 5, stream(73, 3)))
        assert len(got) == 5
        assert all(np.array_equal(v, u) and np.array_equal(c, n) for (v, c), (u, n) in zip(got, expected))

    def test_table_path_draws_no_vector(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("draw_batch called")

        monkeypatch.setattr(distributions, "draw_batch", forbidden)
        for p, m in self.CASES[:8]:
            self._assert_rows(distributions._multinomial_fingerprints(p, m, 7, stream(73, 4)), p, m, 7)

    def test_several_blocks(self, monkeypatch):
        # 30 items a block: one row per block at m = 400 (20 top-up keys a row, and
        # the light table's 9 matrix columns or the heavy cell's largest count)
        monkeypatch.setattr(distributions, "_FINGERPRINT_BLOCK", 30)
        blocks = []
        block = distributions._topped_up_block
        monkeypatch.setattr(distributions, "_topped_up_block",
                            lambda *args: blocks.append(args[4]) or block(*args))
        p, m = self.CASES[0]
        fingerprints = distributions._multinomial_fingerprints(p, m, self.TRIALS, stream(73, 5))
        assert len(blocks) == self.TRIALS and set(blocks) == {1}
        self._assert_rows(fingerprints, p, m, self.TRIALS)
        collisions, empties = _collisions_and_empties(fingerprints)
        for sample, mean in ((collisions, math.comb(m, 2) * math.fsum((p.probs ** 2).tolist())),
                             (empties, math.fsum(((1.0 - p.probs) ** m).tolist()))):
            assert abs(sample.mean() - mean) <= 5 * sample.std(ddof=1) / math.sqrt(self.TRIALS)

    def test_rows_independent_through_redraws(self, monkeypatch):
        # with no slack about half the Poisson rows overshoot m and are redrawn
        monkeypatch.setattr(distributions, "_FINGERPRINT_SLACK", 0.0)
        blocks, draws = [], []
        block, level_draws = distributions._topped_up_block, distributions._level_draws
        monkeypatch.setattr(distributions, "_topped_up_block", lambda *args: blocks.append(args[4]) or block(*args))
        monkeypatch.setattr(distributions, "_level_draws", lambda *args: draws.append(args[2]) or level_draws(*args))
        p, m = _mixed_levels(20), 8 * 20
        fingerprints = distributions._multinomial_fingerprints(p, m, 20_000, stream(73, 6))
        self._assert_rows(fingerprints, p, m, 20_000)
        # past each block's first draw, the redraws hold about 1.04 rows per row (0.18 at slack 1)
        assert sum(blocks) == 20_000 and len(draws) > 2 * len(blocks)
        assert sum(draws) - 20_000 > 0.8 * 20_000
        collisions, empties = _collisions_and_empties(fingerprints)
        mean = math.comb(m, 2) * math.fsum((p.probs ** 2).tolist())
        assert abs(collisions.mean() - mean) <= 5 * collisions.std(ddof=1) / math.sqrt(20_000)
        # neighbouring rows are uncorrelated
        assert abs(np.corrcoef(collisions[:-1], collisions[1:])[0, 1]) <= 5 / math.sqrt(20_000)

    def test_deterministic_given_stream(self):
        p, m = self.CASES[2]
        a = distributions._multinomial_fingerprints(p, m, 9, stream(42, 3))
        b = distributions._multinomial_fingerprints(p, m, 9, stream(42, 3))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert len({(v.tobytes(), c.tobytes()) for v, c in _rows_of(a)}) == 9

    def test_no_rows_and_bad_counts(self):
        assert [x.size for x in distributions._multinomial_fingerprints(uniform(100), 800, 0, stream(1, 1))] == [0, 0, 0]
        for m, k in ((-1, 3), (10, -1)):
            with pytest.raises(ValueError):
                distributions._multinomial_fingerprints(uniform(10), m, k, stream(1, 1))


def _digest(fingerprints):
    """The first 16 hex digits of the sha256 of a sampler's ``(values, mult, starts)``."""
    h = hashlib.sha256()
    for a in fingerprints:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _assert_counts_follow(counts, law):
    """A chi-square goodness-of-fit of ``counts`` against the scipy law ``law``,
    tails pooled so that every bin expects at least 5, and the mean within 5 SE."""
    from scipy.stats import chisquare

    top = max(int(counts.max()), int(law.mean() + 12 * law.std() + 30))
    expected = law.pmf(np.arange(top + 1)) * counts.size
    observed = np.bincount(counts, minlength=top + 1).astype(np.float64)
    # the law is unimodal, so the bins expecting at least 5 are one run
    a, b = np.flatnonzero(expected >= 5)[[0, -1]]

    def pooled(x):
        return np.concatenate([[x[:a + 1].sum()], x[a + 1:b], [x[b:].sum()]])

    expected, observed = pooled(expected), pooled(observed)
    assert chisquare(observed, expected * observed.sum() / expected.sum()).pvalue > 1e-3
    assert abs(counts.mean() - law.mean()) <= 5 * law.std() / math.sqrt(counts.size)


class TestOneCellLevels:
    """A level of one cell is one count a row: Binomial(m, p) in the multinomial
    fingerprints, Poisson(m p) in the Poissonized ones."""

    ROWS = 20_000
    CASES = [
        (make_instance(InstanceSpec.heavy(0.01), 10**4), 400),
        (make_instance(InstanceSpec.heavy(0.01), 10**4), 6400),
        (make_instance(InstanceSpec.heavy(2 ** -0.5), 2), 400),  # one-cell levels only
        (_mixed_levels(2000), 3000),  # one cell, two levels of 999 and a zero-mass cell
    ]
    IDS = ["heavy-400", "heavy-6400", "one-cell-only", "three-levels"]

    @classmethod
    def _one_cell_counts(cls, sampler, p, m, key, monkeypatch):
        """The sampler's rows, and the ``(rows, s)`` counts of the s one-cell
        levels that it laid into their count-indexed matrices."""
        blocks = []
        matrix = distributions._histogram_matrix
        monkeypatch.setattr(distributions, "_histogram_matrix",
                            lambda *args: blocks.append(np.column_stack(args[3])) or matrix(*args))
        rows = _rows_of(sampler(p, m, cls.ROWS, stream(74, key)))
        ones = np.concatenate(blocks)
        assert len(rows) == cls.ROWS and ones.shape[0] == cls.ROWS
        assert all(c.sum() == p.n for _, c in rows)
        # each row holds each of its one-cell counts
        assert all(np.isin(counts, v).all() for counts, (v, _) in zip(ones, rows))
        masses = [float(p.probs[cells[0]]) for cells in p.level_table().cells if cells.size == 1]
        assert ones.shape[1] == len(masses) >= 1
        return rows, ones, masses

    @pytest.mark.parametrize("p, m", CASES, ids=IDS)
    def test_multinomial_count_is_binomial(self, p, m, monkeypatch):
        from scipy.stats import binom

        rows, ones, masses = self._one_cell_counts(distributions._multinomial_fingerprints, p, m, 1, monkeypatch)
        assert all(c @ v == m for v, c in rows)
        for column, q in zip(ones.T, masses):
            _assert_counts_follow(column, binom(m, q))
        if p.n == len(masses):
            # no other level: the one-cell counts are the whole row
            assert np.all(ones.sum(axis=1) == m)

    @pytest.mark.parametrize("p, m", CASES, ids=IDS)
    def test_poissonized_count_is_poisson(self, p, m, monkeypatch):
        from scipy.stats import poisson

        _, ones, masses = self._one_cell_counts(distributions._poissonized_fingerprints, p, float(m), 2, monkeypatch)
        for column, q in zip(ones.T, masses):
            _assert_counts_follow(column, poisson(m * q))

    def test_one_cell_rate_past_the_bound_draws_rows(self, monkeypatch):
        # the heavy cell's rate 10,000 * 0.5 passes the table bound, the light
        # cells' 51 do not: both samplers draw whole rows, as their fallbacks do
        p, m = make_instance(InstanceSpec.heavy(0.5), 100), 10_000

        def forbidden(*args):
            raise AssertionError("count-indexed matrix built")

        monkeypatch.setattr(distributions, "_histogram_matrix", forbidden)
        rng = stream(74, 3)
        expected = [np.unique(draw_batch(p, m, rng).counts, return_counts=True) for _ in range(5)]
        got = _rows_of(distributions._multinomial_fingerprints(p, m, 5, stream(74, 3)))
        assert all(np.array_equal(v, u) and np.array_equal(c, n) for (v, c), (u, n) in zip(got, expected))
        rng = stream(74, 4)
        expected = [_reference_fingerprint(p, m, rng) for _ in range(5)]
        got = _rows_of(distributions._poissonized_fingerprints(p, float(m), 5, stream(74, 4)))
        assert all(np.array_equal(v, u) and np.array_equal(c, n) for (v, c), (u, n) in zip(got, expected))

    @pytest.mark.parametrize("p, m, k, multinomial, poissonized", [
        (make_instance(InstanceSpec.paired_bias(0.25), 10**5), 92_043, 9, "41d07f10b4fffd46", "4440f9e0e60c6373"),
        (uniform(50), 3, 50, "c0a159d89e8f3450", "162bc963dccb0c72"),
    ], ids=["paired-bias", "uniform-50"])
    def test_no_one_cell_level_draws_as_before(self, p, m, k, multinomial, poissonized):
        # pmfs with no one-cell level take the same rates and stream: these are
        # the fingerprints both samplers drew before one-cell levels were split off
        assert _digest(distributions._multinomial_fingerprints(p, m, k, stream(26, 1))) == multinomial
        assert _digest(distributions._poissonized_fingerprints(p, float(m), k, stream(26, 2))) == poissonized


class _ShapeOnly:
    """Stands in for a pmf's ``probs``: it has a shape, and any other read raises."""

    def __init__(self, n):
        self.shape = (n,)

    def __getattr__(self, name):
        raise AssertionError(f"probs.{name} read")

    def __getitem__(self, key):
        raise AssertionError("probs indexed")

    def __iter__(self):
        raise AssertionError("probs iterated")

    def __array__(self, *args, **kwargs):
        raise AssertionError("probs read as an array")


def _without_probs(spec, n):
    """``make_instance(spec, n)`` whose ``probs`` cannot be read past its shape."""
    p = make_instance(spec, n)
    object.__setattr__(p, "probs", _ShapeOnly(n))
    return p


class TestLevelTableOnly:
    """The stacked draw and both fingerprint samplers read a family pmf only
    through its level table: with ``probs`` unreadable they give the plain
    pmf's rows, verdicts and fingerprints, bit for bit, on the same streams."""

    @pytest.mark.parametrize("spec", [InstanceSpec.paired_bias(0.5), InstanceSpec.uniform()],
                             ids=["paired-bias", "uniform"])
    def test_stacked_draw_and_tester(self, spec):
        p, plain = _without_probs(spec, 1000), make_instance(spec, 1000)
        rng, ref = stream(75, 1), stream(75, 1)
        for _ in range(2):  # the second call reads the cached plan
            rows, order = distributions._draw_rows(p, 7784, 9, rng)
            want, want_order = distributions._draw_rows(plain, 7784, 9, ref)
            assert np.array_equal(rows, want) and np.array_equal(order, want_order)
            assert _stream_state(rng) == _stream_state(ref)
        params = TesterParams.from_constants(1000, 0.25, 0.2, default_constants())
        assert derive_sizes(params) == (7784, 9)
        for salt in range(3):
            seeds = [SeedSplit(internal=stream(76, salt, 0), sample=stream(76, salt, 1)) for _ in range(2)]
            assert run_tester(p, params, seeds[0]) == run_tester(plain, params, seeds[1])
            assert _stream_state(seeds[0].sample) == _stream_state(seeds[1].sample)

    @pytest.mark.parametrize("m", [400, 6400])
    @pytest.mark.parametrize("sampler", ["_multinomial_fingerprints", "_poissonized_fingerprints"])
    def test_fingerprint_samplers(self, sampler, m):
        spec, n = InstanceSpec.heavy(0.01), 10**4
        p, plain = _without_probs(spec, n), make_instance(spec, n)
        draw = getattr(distributions, sampler)
        m = m if sampler == "_multinomial_fingerprints" else float(m)
        rng, ref = stream(77, 1), stream(77, 1)
        for _ in range(2):
            got, want = draw(p, m, 200, rng), draw(plain, m, 200, ref)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            assert _stream_state(rng) == _stream_state(ref)


def _loop_alias_table(probs):
    """The LIFO Python sweep the vectorized build replaced: the reference."""
    n = probs.shape[0]
    scaled = probs * n
    accept = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return accept, alias


def _assert_table_has_law(p):
    """Valid entries, and P(draw = i) = (accept_i + sum over j aliased to i
    of (1 - accept_j)) / n equals p_i; zero-mass cells are never drawn."""
    table = AliasTable(p.probs)
    assert np.all((table.accept >= 0.0) & (table.accept <= 1.0))
    assert np.all((table.alias >= 0) & (table.alias < p.n))
    spill = np.bincount(table.alias, weights=1.0 - table.accept, minlength=p.n)
    law = (table.accept + spill) / p.n
    assert np.all(np.abs(law - p.probs) <= 1e-12)
    zero = p.probs == 0.0
    assert np.all(table.accept[zero] == 0.0)  # never kept ...
    assert not np.any(zero[table.alias])  # ... and never an alias


class TestAliasTable:
    @pytest.mark.parametrize(
        "spec, n",
        [
            # the barrier instance: one heavy cell of mass n^-1/2
            (InstanceSpec.heavy(1000 ** -0.5), 1000),
            (InstanceSpec.heavy((10**4) ** -0.5), 10**4),
            (InstanceSpec.paired_bias(0.5), 1000),
            (InstanceSpec.paired_bias(0.5), 2**14),
            (InstanceSpec.uniform(), 100),
        ],
    )
    def test_matches_loop_bit_for_bit(self, spec, n):
        # the loop's running residual and the build's cumulative sums round
        # alike on these instances
        p = make_instance(spec, n)
        table = AliasTable(p.probs)
        accept, alias = _loop_alias_table(p.probs)
        assert table.accept.tobytes() == accept.tobytes()
        assert np.array_equal(table.alias, alias)

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=2000),
        kind=st.sampled_from(["random", "pareto", "zeros"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_valid_table_with_the_pmf_law(self, seed, n, kind):
        rng = stream(seed, 6)
        if kind == "pareto":
            raw = rng.pareto(rng.uniform(0.3, 3.0), n) + 1e-6
        else:
            raw = rng.random(n)
            if kind == "zeros":
                raw[rng.random(n) < 0.4] = 0.0
                raw[rng.integers(n)] += 1.0
        _assert_table_has_law(Pmf(raw / raw.sum()))

    @pytest.mark.parametrize(
        "probs",
        [
            # unclamped, 1 + E_j - D_k is -2**-52 (resp. -2**-51) here: adding
            # a zero-mass light's deficit of 1 rounds the cumulative deficit up
            np.array([0, 8, 16, 12, 11, 19, 12, 0]) / 78,
            np.array([6, 0, 2, 7, 0, 4, 7, 4, 0, 0]) / 30,
            # n * p = 1.4999999999999998 on the heavy cells: the loop rounds
            # otherwise, so the two tables differ in the last bits
            make_instance(InstanceSpec.paired_bias(0.5), 10**4).probs,
        ],
    )
    def test_valid_table_on_rounding_edge_cases(self, probs):
        _assert_table_has_law(Pmf(probs))


class TestSampleBatch:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            SampleBatch(np.array([1, -1]))

    def test_rejects_float_counts(self):
        with pytest.raises(ValueError):
            SampleBatch(np.array([1.0, 2.0]))

    def test_rejects_uint64_counts_past_int64(self):
        with pytest.raises(ValueError):
            SampleBatch(np.array([2**63, 1], dtype=np.uint64))

    @pytest.mark.parametrize("p, m", [
        (make_instance(InstanceSpec.heavy(0.05), 2000), 0),
        (make_instance(InstanceSpec.heavy(0.05), 2000), 5),        # alias
        (make_instance(InstanceSpec.heavy(0.05), 2000), 1500),     # level, gather form
        (make_instance(InstanceSpec.heavy(0.05), 2000), 4000),     # level, scatter form
        (make_instance(InstanceSpec.heavy(0.05), 2000), 40_000),   # multinomial
        (_leveled(2000, 200), 1500),                               # alias, many levels
        (_leveled(2000, 200), 4000),                               # multinomial
    ])
    def test_adopted_batch_is_frozen_int64_with_its_total(self, p, m):
        batch = draw_batch(p, m, stream(4, m))
        assert batch.counts.dtype == np.int64 and not batch.counts.flags.writeable
        assert type(batch.m) is int and batch.m == int(batch.counts.sum()) == m
        with pytest.raises(ValueError):
            batch.counts[0] = 1

    def test_draw_batch_takes_numpy_integer_m(self):
        batch = draw_batch(uniform(50), np.int64(30), stream(4, 2))
        assert type(batch.m) is int and batch.m == 30

    def test_accepts_small_unsigned_counts(self):
        batch = SampleBatch(np.array([3, 1], dtype=np.uint8))
        assert batch.counts.dtype == np.int64
        assert batch.counts.tolist() == [3, 1] and batch.m == 4

    def test_compares_by_identity(self):
        assert_compares_by_identity(SampleBatch(np.array([3, 1])), SampleBatch(np.array([3, 1])))
