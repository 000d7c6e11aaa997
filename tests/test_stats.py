"""Statistic values, exact expectations, and the rewrite identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repunif.distributions import InstanceSpec, Pmf, SampleBatch, make_instance
from repunif.exact import brute_force_mean_statistic, exact_mean_tv
from repunif.rng import stream
from repunif import stats
from repunif.stats import (
    GapRegime,
    chi2_statistic,
    collision_statistic,
    empty_bucket_count,
    exact_uniform_mean,
    expectation_gap,
    tv_statistic,
    tv_statistic_fraction,
)


def batch(*counts):
    return SampleBatch(np.array(counts, dtype=np.int64))


def random_batch(rng, max_n=40, max_m=120):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    raw = rng.random(n) + 1e-9
    p = Pmf(raw / raw.sum())
    counts = rng.multinomial(m, p.probs)
    return SampleBatch(counts.astype(np.int64))


def _tv_reference(counts):
    """The TV statistic as a Fraction, in Python integers only."""
    n, m = len(counts), sum(counts)
    return Fraction(sum(abs(n * c - m) for c in counts), 2 * m * n)


def _chi2_reference(counts, m_rate):
    """``math.fsum`` of all n chi-square terms, in domain order."""
    c = np.asarray(counts, dtype=np.float64)
    expected = m_rate / c.size
    return math.fsum((((c - expected) ** 2 - c) / expected).tolist())


class TestTvStatistic:
    def test_spec_values(self):
        assert tv_statistic(batch(2, 0)) == 0.5
        assert tv_statistic(batch(2, 1, 0, 0)) == 0.5
        assert tv_statistic(batch(1, 1, 1, 0)) == 0.25

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            tv_statistic(batch(0, 0))

    def test_fraction_denominator_divides_2mn(self):
        rng = stream(101, 0)
        for _ in range(200):
            b = random_batch(rng)
            frac = tv_statistic_fraction(b)
            assert (2 * b.m * b.n) % frac.denominator == 0
            assert frac == Fraction(0) or 0 < frac <= 1
            assert float(frac) == tv_statistic(b)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_range_and_permutation_invariance(self, seed):
        rng = stream(seed, 1)
        b = random_batch(rng)
        s = tv_statistic(b)
        assert 0.0 <= s <= 1.0
        perm = rng.permutation(b.n)
        assert tv_statistic(SampleBatch(b.counts[perm])) == s


    def test_wide_counts_do_not_wrap(self):
        b = batch(3 * 10**18, 0, 0, 0)  # n*X_1 = 1.2e19 is past the int64 range
        assert tv_statistic_fraction(b) == Fraction(3, 4)
        assert tv_statistic(b) == 0.75
        assert batch(2**62, 2**62).m == 2**63

    @pytest.mark.parametrize("counts", [
        (2**60 - 1, 0, 0, 0),  # 2*n*m = 2**63 - 8: int64 path
        (2**60, 0, 0, 0),      # 2*n*m = 2**63: wide-integer path
        (2**61 - 2, 1),        # 2*n*m = 2**63 - 4
        (2**61 - 1, 1),        # 2*n*m = 2**63
    ])
    def test_boundary_at_2_pow_63(self, counts):
        b = batch(*counts)
        assert tv_statistic_fraction(b) == _tv_reference(counts)
        assert tv_statistic(b) == float(_tv_reference(counts))

    @given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=8).filter(any))
    @settings(max_examples=100)
    def test_fraction_matches_int_reference_on_wide_counts(self, counts):
        b = SampleBatch(np.array(counts, dtype=np.int64))
        assert b.m == sum(counts)
        assert tv_statistic_fraction(b) == _tv_reference(counts)
        assert tv_statistic(b) == float(_tv_reference(counts))


def _kernel_statistics(rows, m, n):
    """The kernel's TV statistics, with a check that it left ``rows`` as it was."""
    before = rows.copy()
    rows.flags.writeable = False  # a write would raise
    nums = stats._tv_numerators(rows, m, n)
    assert np.array_equal(rows, before)
    return [num / (2 * m * n) for num in nums]


@st.composite
def _kernel_rows(draw):
    """k rows of g counts, each totalling m, on a domain of n >= g cells.

    m is at most n in about a quarter of draws (the ``S = Z/n`` path), and
    otherwise ranges up to 2**62, on both sides of the int64 bound.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    g = draw(st.integers(min_value=1, max_value=n))
    m = draw(st.integers(min_value=1, max_value=draw(st.sampled_from([n, 50, 2**40, 2**62]))))
    cuts = st.lists(st.integers(min_value=0, max_value=m), min_size=g - 1, max_size=g - 1)
    rows = [np.diff([0, *sorted(c), m]) for c in draw(st.lists(cuts, min_size=1, max_size=6))]
    return np.array(rows, dtype=np.int64), m, n


def _scatter(rows, n, cols):
    """The rows' columns placed at cells ``cols`` of n, zeros elsewhere."""
    scattered = np.zeros((rows.shape[0], n), dtype=np.int64)
    scattered[:, cols] = rows
    return scattered


class TestStackedTvStatistics:
    @given(_kernel_rows())
    @settings(max_examples=150)
    def test_each_value_equals_the_one_batch_statistic(self, draw):
        # rows in cell order, every cell present
        rows, m, n = draw
        counts = _scatter(rows, n, list(range(rows.shape[1])))
        expected = [float(_tv_reference(r)) for r in counts.tolist()]
        assert _kernel_statistics(counts, m, n) == [tv_statistic(SampleBatch(r)) for r in counts] == expected

    def test_mixes_narrow_and_wide_rows(self):
        # 2 of n = 8 cells present: S = Z/n, int64 and wide-integer paths
        for m in [3, 2**59 - 1, 2**59]:  # 2*n*m = 2**63 at m = 2**59
            rows = np.array([[m, 0], [m - 1, 1], [m // 2, m - m // 2]], dtype=np.int64)
            expected = [float(_tv_reference(r)) for r in _scatter(rows, 8, [5, 2]).tolist()]
            assert _kernel_statistics(rows, m, 8) == expected, m
            assert [tv_statistic(SampleBatch(r)) for r in _scatter(rows, 8, [5, 2])] == expected, m

    def test_rejects_an_all_zero_row(self):
        with pytest.raises(ValueError, match="at least one sample"):
            tv_statistic(batch(0, 0))
        with pytest.raises(ValueError, match="at least one sample"):
            stats._tv_numerators(np.zeros((2, 2), dtype=np.int64), 0, 2)

    @given(_kernel_rows())
    @settings(max_examples=150)
    def test_count_array_rows_equal_the_batches(self, draw):
        # the kernel's numerators are the exact integers of each row as a batch
        rows, m, n = draw
        counts = _scatter(rows, n, list(range(n - rows.shape[1], n)))
        nums = stats._tv_numerators(counts, m, n)
        assert nums == [tv_statistic_fraction(SampleBatch(r)) * (2 * m * n) for r in counts]
        assert nums == stats._tv_numerators(rows, m, n)

    @pytest.mark.parametrize("counts", [
        np.array([1.0, 2.0]),  # not integers
        np.array([2**63, 1], dtype=np.uint64),  # past int64
        np.array([3, -1]),
        np.array([[3, 1]]),  # not a vector
        np.zeros(0, dtype=np.int64),
    ])
    def test_count_array_rejected(self, counts):
        # a count vector reaches the kernel through SampleBatch, which rejects these
        with pytest.raises(ValueError, match="counts must be"):
            tv_statistic(SampleBatch(counts))


class TestScoredDraw:
    @given(_kernel_rows(), st.randoms())
    @settings(max_examples=150)
    def test_equals_the_scattered_rows(self, draw, rnd):
        # the rows' g columns scattered in any order over n cells, zeros elsewhere
        rows, m, n = draw
        scattered = _scatter(rows, n, rnd.sample(range(n), rows.shape[1]))
        expected = [float(_tv_reference(r)) for r in scattered.tolist()]
        assert _kernel_statistics(rows, m, n) == expected
        assert _kernel_statistics(scattered, m, n) == expected

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError, match="at least one sample"):
            stats._tv_numerators(np.zeros((2, 3), dtype=np.int64), 0, 4)


class TestBarrierRewrites:
    @given(st.integers(min_value=1, max_value=60), st.data())
    @settings(max_examples=150)
    def test_sublinear_numerators_count_empty_cells(self, n, data):
        # at m <= n every row's numerator is 2*m*Z, the former sum of |n*X_i - m|,
        # also with the all-zero columns left out and the rest in any order
        m = data.draw(st.integers(min_value=1, max_value=n))
        rows = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            samples = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
            rows.append(np.bincount(samples, minlength=n))
        counts = np.array(rows, dtype=np.int64)
        former = np.abs(n * counts - m).sum(axis=1).tolist()
        assert stats._tv_numerators(counts, m, n) == former
        present = data.draw(st.permutations(np.flatnonzero(counts.any(axis=0)).tolist()))
        assert stats._tv_numerators(counts[:, present], m, n) == former
        assert _kernel_statistics(counts, m, n) == [float(_tv_reference(r)) for r in counts.tolist()]

    @given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_collisions_equal_the_pairwise_sum(self, counts):
        # (sum X_i^2 - m) / 2 against sum X_i (X_i - 1) / 2, below and past m = 2**31
        expected = sum(c * (c - 1) for c in counts) // 2
        assert collision_statistic(SampleBatch(np.array(counts, dtype=np.int64))) == expected

    @pytest.mark.parametrize("counts", [
        (2**31 - 1,), (2**31,), (2**30, 2**30 - 1), (2**30, 2**30), (2**16, 1, 0, 2**31 - 2**16 - 2),
    ])
    def test_collisions_at_the_wide_guard(self, counts):
        expected = sum(c * (c - 1) for c in counts) // 2
        assert collision_statistic(SampleBatch(np.array(counts, dtype=np.int64))) == expected


def _fingerprints(counts):
    """``(values, mult, starts)`` of count rows, as the barrier's samplers return them."""
    rows = [np.unique(r, return_counts=True) for r in counts]
    starts = np.cumsum([0] + [v.size for v, _ in rows[:-1]])
    return np.concatenate([v for v, _ in rows]), np.concatenate([c for _, c in rows]), starts


class TestFingerprintScorers:
    """The barrier's scorers of k fingerprints against the one-batch statistics."""

    @given(_kernel_rows(), st.floats(min_value=1e-3, max_value=1e12))
    @settings(max_examples=150)
    def test_rows_equal_the_batch_statistics(self, draw, m_rate):
        # m up to 2**62: both sides of the wide-integer guards of collisions and TV
        rows, m, n = draw
        counts = _scatter(rows, n, list(range(rows.shape[1])))
        fingerprints = _fingerprints(counts)
        batches = [SampleBatch(r) for r in counts]
        # collision_statistic is _collision_counts on one row: both against Python integers
        expected = [sum(c * (c - 1) for c in r) // 2 for r in counts.tolist()]
        assert stats._collision_counts(*fingerprints, m) == [collision_statistic(b) for b in batches] == expected
        assert stats._tv_from_fingerprints(*fingerprints, m, n) == [tv_statistic(b) for b in batches]
        assert stats._chi2_sums(*fingerprints, n, m_rate) == [chi2_statistic(b, m_rate) for b in batches]

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31, 2**59 - 1, 2**59])
    def test_at_the_wide_guards(self, m):
        # collisions go wide from m = 2**31, TV from 2 n m = 2**63 (n = 8)
        counts = np.array([[m, 0, 0, 0, 0, 0, 0, 0], [m - 1, 1, 0, 0, 0, 0, 0, 0],
                           [m // 2, m - m // 2, 0, 0, 0, 0, 0, 0]], dtype=np.int64)
        fingerprints = _fingerprints(counts)
        batches = [SampleBatch(r) for r in counts]
        expected = [sum(c * (c - 1) for c in r) // 2 for r in counts.tolist()]
        assert stats._collision_counts(*fingerprints, m) == [collision_statistic(b) for b in batches] == expected
        assert stats._tv_from_fingerprints(*fingerprints, m, 8) == [tv_statistic(b) for b in batches]

    @pytest.mark.parametrize("m_rate", [2.0**-875, 1e-300])
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_chi2_rows_with_and_without_infinite_terms(self, m_rate):
        # a count of 2**62 makes a term near 2**1001, or an infinite one at 1e-300:
        # only the rows that hold it take the fsum of every term, and a count
        # that no cell of a row holds changes nothing, whatever its term
        counts = np.array([[2**62, 0, 3, 3], [6, 0, 0, 2**62 - 6], [1, 2, 3, 4], [0, 0, 5, 5]], dtype=np.int64)
        values, mult, starts = _fingerprints(counts)
        expected = [_chi2_reference(r, m_rate) for r in counts.tolist()]
        assert math.isinf(expected[0]) == (m_rate == 1e-300)
        assert stats._chi2_sums(values, mult, starts, 4, m_rate) == expected
        assert [chi2_statistic(SampleBatch(r), m_rate) for r in counts] == expected
        for unused in (2**61, 7):  # one more count of multiplicity 0 at the end of row 2
            at = starts[3]
            padded = (np.insert(values, at, unused), np.insert(mult, at, 0), starts + (starts > 2))
            assert stats._chi2_sums(*padded, 4, m_rate) == expected

    def test_chi2_rejects_bad_rates(self):
        fingerprints = _fingerprints(np.array([[2, 1]], dtype=np.int64))
        for m_rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="chi2 rate must be finite and > 0"):
                stats._chi2_sums(*fingerprints, 2, m_rate)


class TestEmptyBucketCount:
    def test_examples(self):
        assert empty_bucket_count(batch(2, 1, 0, 0)) == 2
        assert empty_bucket_count(batch(1, 2, 3)) == 0
        assert empty_bucket_count(batch(5, 0, 0, 0)) == 3


class TestCollisionStatistic:
    def test_examples(self):
        # samples [1, 1, 2] -> counts (2, 1)
        assert collision_statistic(batch(2, 1)) == 1
        assert collision_statistic(batch(3, 0)) == 3
        assert collision_statistic(batch(2, 2)) == 2

    def test_exact_integer_large_counts(self):
        b = batch(10**6, 10**6)
        expected = 2 * (10**6 * (10**6 - 1) // 2)
        assert collision_statistic(b) == expected

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_permutation_invariance(self, seed):
        rng = stream(seed, 2)
        b = random_batch(rng)
        perm = rng.permutation(b.n)
        assert collision_statistic(SampleBatch(b.counts[perm])) == collision_statistic(b)


class TestChi2Statistic:
    def test_spec_values(self):
        assert chi2_statistic(batch(2, 0), 2.0) == 0.0
        assert chi2_statistic(batch(1, 1), 2.0) == -2.0

    def test_all_equal_point(self):
        # every term is (0 - X_i)/(m/n) = -1, so the total is -n
        b = batch(3, 3, 3, 3)
        assert chi2_statistic(b, 12.0) == -4.0

    def test_rate_decoupled_from_realized_total(self):
        b = batch(4, 0)
        assert chi2_statistic(b, 2.0) == ((4 - 1) ** 2 - 4) / 1.0 + ((0 - 1) ** 2 - 0) / 1.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            chi2_statistic(batch(1, 1), 0.0)

    @pytest.mark.parametrize("m_rate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, m_rate):
        with pytest.raises(ValueError, match="finite"):
            chi2_statistic(batch(3, 1, 0), m_rate)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_permutation_invariance(self, seed):
        rng = stream(seed, 3)
        b = random_batch(rng)
        perm = rng.permutation(b.n)
        assert chi2_statistic(SampleBatch(b.counts[perm]), 17.0) == pytest.approx(
            chi2_statistic(b, 17.0), abs=1e-9
        )

    @given(
        st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**40)), min_size=1, max_size=300),
        st.floats(min_value=1e-3, max_value=1e12),
    )
    @settings(max_examples=150)
    def test_matches_fsum_of_every_term_on_wide_counts(self, counts, m_rate):
        assert chi2_statistic(batch(*counts), m_rate) == _chi2_reference(counts, m_rate)

    @given(
        st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**40)), min_size=1, max_size=300),
        st.floats(min_value=1e-3, max_value=1e12),
    )
    @settings(max_examples=150)
    def test_is_the_fingerprint_sum(self, counts, m_rate):
        # a batch's statistic is the fingerprint helper on np.unique of its counts
        b = batch(*counts)
        fingerprint = np.unique(b.counts, return_counts=True)
        assert stats._chi2_sums(*fingerprint, np.zeros(1, dtype=np.int64), b.n, m_rate) == [chi2_statistic(b, m_rate)]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_matches_fsum_of_every_term_on_heavy_tailed_counts(self, seed):
        rng = stream(seed, 4)
        n = int(rng.integers(2, 5000))
        counts = np.floor(rng.pareto(1.1, n) * rng.choice([1.0, 10.0, 1e4])).astype(np.int64)
        m_rate = float(rng.choice([0.5, 1.0, 17.0])) * n
        assert chi2_statistic(SampleBatch(counts), m_rate) == _chi2_reference(counts, m_rate)

    def test_matches_fsum_of_every_term_on_a_large_domain(self):
        # n = 2 * 10**6 with more than 10**6 zero counts and wide counts too
        counts = np.zeros(2 * 10**6, dtype=np.int64)
        counts[::3] = 1
        counts[::7] = 5
        counts[::11] = 2**40 + 3
        assert np.count_nonzero(counts == 0) > 10**6
        m_rate = 3.3e6
        assert chi2_statistic(SampleBatch(counts), m_rate) == _chi2_reference(counts, m_rate)

    @pytest.mark.parametrize("m_rate", [2.0**-875, 1e-300])
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_huge_terms_match_fsum_of_every_term(self, m_rate):
        # a term near 2**1001 and an infinite term take the unsplit path
        counts = [2**62, 0, 3, 3]
        assert chi2_statistic(batch(*counts), m_rate) == _chi2_reference(counts, m_rate)


def _exact_mean(n, m):
    """``mu(U_n)`` as the exact rational of de Moivre's identity, correctly rounded."""
    v = m // n + 1
    return n * v * math.comb(m, v) * (n - 1) ** (m - v + 1) / (m * n ** (m + 1))


class TestExactUniformMean:
    def test_small_closed_forms(self):
        assert exact_uniform_mean(2, 2) == pytest.approx(0.25, abs=1e-15)
        assert exact_uniform_mean(3, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_matches_brute_force_spot(self):
        for n, m in [(2, 5), (3, 4), (4, 3), (5, 2)]:
            expected = brute_force_mean_statistic(
                make_instance(InstanceSpec.uniform(), n), m, tv_statistic
            )
            assert exact_uniform_mean(n, m) == pytest.approx(expected, abs=1e-12)

    def test_matches_marginal_oracle(self):
        for n, m in [(10, 7), (50, 40), (100, 200)]:
            u = make_instance(InstanceSpec.uniform(), n)
            assert exact_uniform_mean(n, m) == pytest.approx(exact_mean_tv(u, m), abs=1e-12)

    def test_large_n_small_m_is_near_one(self):
        # nearly all buckets stay empty, S -> 1 - m/n
        assert exact_uniform_mean(10**6, 10) == pytest.approx(1 - 10 / 10**6, abs=1e-9)

    def test_small_grid_matches_the_exact_rational(self):
        for n in range(2, 13):
            for m in range(1, 61):
                assert exact_uniform_mean(n, m) == pytest.approx(_exact_mean(n, m), rel=1e-14, abs=0)

    @pytest.mark.parametrize("n, m", [
        (1000, 7784), (1200, 53587), (10**5, 92043), (1000, 999), (1000, 1000), (1000, 1001),
        (10**4, 10**5), (2, 10**4), (3, 7784), (2, 10**5),
    ])
    def test_matches_the_exact_rational(self, n, m):
        assert exact_uniform_mean(n, m) == pytest.approx(_exact_mean(n, m), rel=1e-14, abs=0)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            exact_uniform_mean(1, 5)
        with pytest.raises(ValueError):
            exact_uniform_mean(5, 0)


class TestExpectationGap:
    def test_sublinear_example(self):
        regime, r = expectation_gap(10**4, 10**3, 0.1, 1.0)
        assert regime is GapRegime.SUBLINEAR
        assert r == pytest.approx(1e-4, rel=1e-12)

    def test_superlearning_example(self):
        regime, r = expectation_gap(100, 1000, 0.5, 1.0)
        assert regime is GapRegime.SUPERLEARNING
        assert r == 0.5

    def test_superlinear_example(self):
        regime, r = expectation_gap(10**4, 10**5, 0.1, 2.0)
        assert regime is GapRegime.SUPERLINEAR
        assert r == pytest.approx(2 * 0.01 * math.sqrt(10), rel=1e-12)

    def test_boundaries_inclusive(self):
        assert expectation_gap(100, 100, 0.3, 1.0)[0] is GapRegime.SUBLINEAR
        assert expectation_gap(100, 101, 0.3, 1.0)[0] is GapRegime.SUPERLINEAR
        # m = n / xi^2 exactly stays in the middle case
        assert expectation_gap(100, 400, 0.5, 1.0)[0] is GapRegime.SUPERLINEAR
        assert expectation_gap(100, 401, 0.5, 1.0)[0] is GapRegime.SUPERLEARNING

    def test_continuity_at_regime_boundaries(self):
        n, xi, C = 100, 0.5, 1.3
        m_star = int(n / xi**2)
        _, r_mid = expectation_gap(n, m_star, xi, C)
        _, r_hi = expectation_gap(n, m_star + 1, xi, C)
        assert abs(r_mid - C * xi) < 1e-12
        assert abs(r_hi - r_mid) < 0.01 * r_mid
        _, r_sub = expectation_gap(n, n, xi, C)
        _, r_sup = expectation_gap(n, n + 1, xi, C)
        assert abs(r_sub - r_sup) < 0.02 * r_sub

    def test_monotone_in_xi(self):
        values = [expectation_gap(1000, 500, xi, 1.0)[1] for xi in (0.1, 0.2, 0.4, 0.8)]
        assert values == sorted(values)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            expectation_gap(100, 5, 0.3, 1.0)
        with pytest.raises(ValueError):
            expectation_gap(1, 10, 0.3, 1.0)
        with pytest.raises(ValueError):
            expectation_gap(100, 10, 0.0, 1.0)
        with pytest.raises(ValueError):
            expectation_gap(100, 10, 0.3, 0.0)


class TestRewriteIdentities:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_empty_bucket_identity_sublinear(self, seed):
        # S = Z/n exactly (as rationals) whenever m <= n
        rng = stream(seed, 4)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n + 1))
        counts = rng.multinomial(m, np.full(n, 1.0 / n))
        b = SampleBatch(counts.astype(np.int64))
        z = empty_bucket_count(b)
        assert tv_statistic_fraction(b) == Fraction(z, n)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_distinct_element_identity(self, seed):
        # m - (later-sample collisions) = distinct elements = n - Z
        rng = stream(seed, 5)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 50))
        seq = rng.integers(0, n, size=m)
        seen = set()
        collisions = 0
        for t in seq:
            if int(t) in seen:
                collisions += 1
            seen.add(int(t))
        counts = np.bincount(seq, minlength=n)
        z = empty_bucket_count(SampleBatch(counts.astype(np.int64)))
        assert m - collisions == len(seen) == n - z


class TestEmpiricalGapNonnegative:
    def test_exact_mean_dominates_uniform_mean(self):
        # E_p[S] >= mu(U_n) across instance shapes at small scale
        rng = stream(202, 0)
        cases = []
        for n in (2, 4, 10, 26, 50):
            for m in (2, 4, 6, 8):
                cases.append((n, m, make_instance(InstanceSpec.paired_bias(0.6), n)))
                raw = rng.random(n) + 0.01
                cases.append((n, m, Pmf(raw / raw.sum())))
        for n, m, p in cases:
            assert exact_mean_tv(p, m) >= exact_uniform_mean(n, m) - 1e-12

    def test_brute_force_gap_small_instances(self):
        for n, m in [(2, 6), (3, 5), (4, 4), (5, 3)]:
            p = make_instance(InstanceSpec.paired_bias(0.8), n) if n % 2 == 0 else (
                make_instance(InstanceSpec.heavy(0.7), n)
            )
            mean = brute_force_mean_statistic(p, m, tv_statistic)
            assert mean >= exact_uniform_mean(n, m) - 1e-12
