"""Oracle self-consistency: enumeration, pushforward, and MI numerics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from repunif import exact
from repunif.distributions import (
    InstanceSpec,
    Pmf,
    SampleBatch,
    _normalize_rows,
    make_instance,
    tv_distance,
)
from repunif.exact import (
    TAIL_TOL,
    TRUNCATION_CAP,
    SCREEN_WINDOW,
    ReductionScan,
    _pushforwards,
    _rational_rows,
    _screen_margins,
    brute_force_mean_statistic,
    exact_mean_tv,
    exact_pushforward,
    mutual_info_pair,
    pair_joint,
    rational_pmfs,
    reduction_check,
)
from repunif.rng import stream
from repunif.stats import collision_statistic, exact_uniform_mean, tv_statistic


def uniform(n):
    return make_instance(InstanceSpec.uniform(), n)


class TestBruteForce:
    def test_uniform_examples(self):
        assert brute_force_mean_statistic(uniform(2), 2, tv_statistic) == pytest.approx(0.25, abs=1e-15)
        assert brute_force_mean_statistic(uniform(3), 1, tv_statistic) == pytest.approx(2 / 3, abs=1e-15)

    def test_point_mass(self):
        p = make_instance(InstanceSpec.heavy(1.0), 6)
        for m in (1, 3, 5):
            assert brute_force_mean_statistic(p, m, tv_statistic) == pytest.approx(1 - 1 / 6, abs=1e-15)

    def test_symmetric_and_ordered_paths_agree(self):
        rng = stream(55, 0)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            raw = rng.random(n) + 0.05
            p = Pmf(raw / raw.sum())
            sym = brute_force_mean_statistic(p, m, tv_statistic, assume_symmetric=True)
            ordered = brute_force_mean_statistic(p, m, tv_statistic, assume_symmetric=False)
            assert sym == pytest.approx(ordered, abs=1e-13)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            brute_force_mean_statistic(uniform(100), 100, tv_statistic)
        with pytest.raises(ValueError):
            brute_force_mean_statistic(uniform(10), 10, tv_statistic, assume_symmetric=False)

    def test_symmetric_guard_counts_cells(self, monkeypatch):
        # the composition array holds n cells per composition, so the guard
        # counts cells: each size below is the first m past it at its n
        def unreachable(m, n):
            raise AssertionError("enumerated past the guard")

        monkeypatch.setattr(exact, "_compositions", unreachable)
        for n, m in [(5, 81), (4, 245), (3, 2581)]:
            assert math.comb(m + n - 1, n - 1) * n > exact.ENUMERATION_GUARD >= math.comb(m + n - 2, n - 1) * n
            with pytest.raises(ValueError, match="enumeration guard exceeded"):
                brute_force_mean_statistic(uniform(n), m, tv_statistic)
        monkeypatch.undo()
        # n = 4, m = 69 (59,640 compositions), an exact replicability oracle's size, still runs
        assert brute_force_mean_statistic(uniform(4), 69, tv_statistic) == pytest.approx(
            exact_uniform_mean(4, 69), abs=1e-12)

    def test_collision_mean_known_formula(self):
        # E[collisions] = C(m,2) * sum p_i^2
        p = Pmf(np.array([0.5, 0.3, 0.2]))
        m = 4
        expected = math.comb(m, 2) * float(np.sum(p.probs**2))
        assert brute_force_mean_statistic(p, m, collision_statistic) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", [1030, 1100, 2000])
    def test_large_m_matches_exact_uniform_mean(self, m):
        # an int multinomial coefficient past float range, and 0.5**m below
        # the least subnormal, must not reach the sum: weights in log space
        assert abs(brute_force_mean_statistic(uniform(2), m, tv_statistic)
                   - exact_uniform_mean(2, m)) <= 1e-12

    @pytest.mark.parametrize("statistic", [tv_statistic, collision_statistic])
    def test_grouping_matches_loop(self, statistic):
        # one statistic call per count multiset of positive weight: a
        # partition of m into at most as many parts as p has support cells
        calls = []

        def counted(batch):
            calls.append(batch.counts.tolist())
            return statistic(batch)

        for n in (1, 2, 3, 4):
            for p in rational_pmfs(n, 4):
                for m in range(1, 7):
                    calls.clear()
                    got = brute_force_mean_statistic(p, m, counted)
                    want = _loop_brute_force(p, m, statistic)
                    assert abs(got - want) <= 1e-14 * abs(want)
                    assert len(calls) == _partition_count(m, int(np.count_nonzero(p.probs)))
                    assert all(c == sorted(c, reverse=True) for c in calls)

    def test_marginal_oracle_agrees(self):
        rng = stream(56, 0)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            raw = rng.random(n) + 0.05
            p = Pmf(raw / raw.sum())
            assert exact_mean_tv(p, m) == pytest.approx(
                brute_force_mean_statistic(p, m, tv_statistic), abs=1e-12
            )


def _loop_compositions(m, n):
    """All length-n tuples of nonnegative ints summing to m, by stars and bars."""
    for bars in itertools.combinations(range(m + n - 1), n - 1):
        edges = (-1, *bars, m + n - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _loop_brute_force(p, m, statistic):
    """The per-composition loop the grouped enumeration replaced: the reference."""
    total = []
    for counts in _loop_compositions(m, p.n):
        weight = 1.0
        coeff = 1
        remaining = m
        for c, prob in zip(counts, p.probs):
            if c:
                coeff *= math.comb(remaining, c)
                remaining -= c
                weight *= prob**c
        if weight == 0.0:
            continue
        total.append(coeff * weight * statistic(SampleBatch(np.array(counts, dtype=np.int64))))
    return math.fsum(total)


def _partition_count(m, parts):
    """Partitions of m into at most ``parts`` parts, by enumeration."""
    return sum(1 for c in itertools.product(range(m + 1), repeat=parts)
               if sum(c) == m and list(c) == sorted(c, reverse=True))


class TestPushforward:
    def test_uniform_2_maps_to_uniform_12(self):
        push = exact_pushforward(uniform(2), uniform(2))
        assert np.max(np.abs(push.probs - 1 / 12)) <= 1e-15

    def test_single_element_domain(self):
        push = exact_pushforward(uniform(1), uniform(1))
        assert push.n == 6
        assert np.max(np.abs(push.probs - 1 / 6)) <= 1e-15

    def test_far_pair_margin(self):
        q = Pmf(np.array([0.75, 0.25]))
        p = Pmf(np.array([0.25, 0.75]))
        push = exact_pushforward(q, p)
        dist = tv_distance(push, uniform(12))
        assert dist == pytest.approx(7 / 30, abs=1e-12)
        assert dist >= tv_distance(p, q) / 3 - 1e-12

    def test_total_mass_one(self):
        rng = stream(57, 0)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            raw_q = rng.random(n) + 0.02
            raw_p = rng.random(n) + 0.02
            q = Pmf(raw_q / raw_q.sum())
            p = Pmf(raw_p / raw_p.sum())
            push = exact_pushforward(q, p)
            assert push.n == 6 * n
            assert math.fsum(push.probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_domains(self):
        with pytest.raises(ValueError):
            exact_pushforward(uniform(2), uniform(3))

    def test_rational_family_enumeration(self):
        fam = rational_pmfs(2, 4)
        # denominators 1..4 on two elements: 0,1/4,1/3,1/2,2/3,3/4,1 as first entry
        firsts = sorted(set(float(p.probs[0]) for p in fam))
        assert firsts == pytest.approx([0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rational_family_matches_fraction_dedupe(self, n):
        # the former set-of-Fractions dedupe, over compositions in lexicographic order
        for max_denominator in range(1, 9):
            seen, expected = set(), []
            for d in range(1, max_denominator + 1):
                compositions = (c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d)
                for counts in compositions:
                    key = tuple(Fraction(c, d) for c in counts)
                    if key not in seen:
                        seen.add(key)
                        expected.append(np.array([c / d for c in counts]))
            got = rational_pmfs(n, max_denominator)
            assert len(got) == len(expected)
            assert all(np.array_equal(p.probs, e) for p, e in zip(got, expected))

    def test_small_scan_passes(self):
        scan = reduction_check(2, 6)
        assert scan.passed
        assert scan.max_uniform_error <= 1e-12
        assert scan.min_margin >= -1e-12


def _repeat_pushforward(q, p):
    """The one-pair construction the family pass replaced: each block's level
    repeated over its cells, then the overflow level, as a ``Pmf``."""
    big = 6 * q.n
    qbar = 0.5 * (q.probs + 1.0 / q.n)
    cells = np.floor(big * qbar).astype(np.int64)
    spread = cells / (big * qbar)
    overflow_size = big - int(cells.sum())
    pbar = 0.5 * (p.probs + 1.0 / p.n)
    out = np.empty(big)
    used = big - overflow_size
    out[:used] = np.repeat(pbar * spread / cells, cells)
    if overflow_size > 0:
        out[used:] = math.fsum((pbar * (1.0 - spread)).tolist()) / overflow_size
    return Pmf(out)


def _scalar_reduction_check(max_n, max_denominator):
    """The pair-by-pair scan the screen replaced: the reference."""
    num_pmfs = num_pairs = 0
    max_err = 0.0
    min_margin = math.inf
    for n in range(1, max_n + 1):
        family = rational_pmfs(n, max_denominator)
        num_pmfs += len(family)
        target = 1.0 / (6 * n)
        uniform_big = Pmf(np.full(6 * n, target))
        for q in family:
            push_q = exact_pushforward(q, q)
            max_err = max(max_err, float(np.max(np.abs(push_q.probs - target))))
            for p in family:
                if p is q:
                    continue
                num_pairs += 1
                dist = tv_distance(p, q)
                if dist == 0.0:
                    continue
                push = exact_pushforward(q, p)
                margin = tv_distance(push, uniform_big) - dist / 3.0
                min_margin = min(min_margin, margin)
    if not math.isfinite(min_margin):
        min_margin = 0.0
    return ReductionScan(num_pmfs=num_pmfs, num_pairs=num_pairs,
                         max_uniform_error=max_err, min_margin=min_margin)


def _all_q_reduction_check(max_n, max_denominator):
    """The screen over every q row, before it took only the sorted ones."""
    num_pmfs = num_pairs = 0
    max_err = 0.0
    least = math.inf
    candidates = []
    for n in range(1, max_n + 1):
        raw = _rational_rows(n, max_denominator)
        family = _normalize_rows(raw.copy())
        num_pmfs += len(family)
        num_pairs += len(family) * (len(family) - 1)
        push = _normalize_rows(_pushforwards(family, family))
        max_err = max(max_err, float(np.max(np.abs(push - 1.0 / (6 * n)))))
        rows = max(1, exact.SCREEN_BLOCK_BYTES // (8 * family.size))
        for start in range(0, len(family), rows):
            margins = _screen_margins(family[start:start + rows], family)
            least = min(least, float(margins.min()))
            if math.isfinite(least):
                candidates.extend((float(margins[b, i]), raw[start + b], raw[i])
                                  for b, i in zip(*np.nonzero(margins <= least + SCREEN_WINDOW)))
    min_margin = math.inf
    for screened, q_row, p_row in candidates:
        if screened <= least + SCREEN_WINDOW:
            min_margin = min(min_margin, _margin(Pmf(q_row), Pmf(p_row)))
    if not math.isfinite(min_margin):
        min_margin = 0.0
    return ReductionScan(num_pmfs=num_pmfs, num_pairs=num_pairs,
                         max_uniform_error=max_err, min_margin=min_margin)


def _margin(q, p):
    return tv_distance(exact_pushforward(q, p), uniform(6 * q.n)) - tv_distance(p, q) / 3.0


def _sorted_count(n, max_denominator):
    """How many pmfs of ``rational_pmfs(n, max_denominator)`` are sorted non-increasing."""
    return sum(1 for p in rational_pmfs(n, max_denominator)
               if list(p.probs) == sorted(p.probs, reverse=True))


class TestReductionScan:
    # At D = 3 the screened minimum differs from the scalar one in its last
    # bits (0.027777777777777762 against ...776 at (2, 3)): only the
    # confirmation step makes these equal.  The screen takes only the sorted
    # q rows: at (4, 5), 12 of the 103 pmfs on [4], so one block.
    @pytest.mark.parametrize("max_n, max_denominator", [
        *((n, d) for n in (1, 2, 3) for d in (1, 2, 3, 5, 8)),
        (4, 3), (4, 5), (5, 3),
    ])
    def test_matches_scalar_scan(self, max_n, max_denominator):
        assert reduction_check(max_n, max_denominator) == _scalar_reduction_check(
            max_n, max_denominator)

    @pytest.mark.parametrize("block_bytes", [1, 8 * 4 * 51 * 4])
    def test_block_size_changes_nothing(self, block_bytes, monkeypatch):
        # blocks of 1 q row, and of 4 q rows, against the 51 pmfs on [4] at
        # D = 4; the q rows are the sorted ones, so a short last block
        # appears when 4 does not divide their count
        monkeypatch.setattr(exact, "SCREEN_BLOCK_BYTES", block_bytes)
        blocks, screen = [], exact._screen_margins
        monkeypatch.setattr(exact, "_screen_margins",
                            lambda qs, family: blocks.append((len(qs), len(family))) or screen(qs, family))
        assert reduction_check(4, 4) == _scalar_reduction_check(4, 4)
        rows_on_4 = [rows for rows, size in blocks if size == 51]
        per_block = 1 if block_bytes == 1 else 4
        whole, rest = divmod(_sorted_count(4, 4), per_block)
        assert rows_on_4 == [per_block] * whole + ([rest] if rest else [])

    def test_pinned_scan(self):
        assert reduction_check(4, 8) == ReductionScan(
            num_pmfs=549, num_pairs=179554, max_uniform_error=1.457167719820518e-16,
            min_margin=0.002380952380952407)

    def test_pinned_scan_on_5(self):
        # the same value as the screen over every q row
        pinned = ReductionScan(num_pmfs=1685, num_pairs=1468914,
                               max_uniform_error=1.457167719820518e-16,
                               min_margin=0.002380952380952407)
        assert reduction_check(5, 8) == pinned
        assert _all_q_reduction_check(5, 8) == pinned

    def test_margins_invariant_under_relabeling(self):
        # the premise of screening only sorted q: one permutation applied to
        # q and p leaves the scalar margin and the error of
        # exact_pushforward(q, q) the same floats
        raw = _rational_rows(4, 6)
        rng = stream(58, 0)
        pairs = rng.integers(0, len(raw), size=(40, 2))
        for a, b in pairs.tolist():
            q, p = Pmf(raw[a]), Pmf(raw[b])
            margin = _margin(q, p)
            error = np.max(np.abs(exact_pushforward(q, q).probs - 1 / 24))
            for perm in itertools.permutations(range(4)):
                q_perm, p_perm = Pmf(raw[a][list(perm)]), Pmf(raw[b][list(perm)])
                assert _margin(q_perm, p_perm) == margin
                assert np.max(np.abs(exact_pushforward(q_perm, q_perm).probs - 1 / 24)) == error

    def test_uniform_error_matches_per_q_pushforwards(self):
        # the family pass gives exact_pushforward(q, q), and the former
        # one-pair construction, bit for bit for every q
        errors = []
        for n in (1, 2, 3, 4):
            family = rational_pmfs(n, 8)
            stacked = np.stack([q.probs for q in family])
            push = _normalize_rows(_pushforwards(stacked, stacked))
            for q, row in zip(family, push):
                assert np.array_equal(row, exact_pushforward(q, q).probs)
                assert np.array_equal(row, _repeat_pushforward(q, q).probs)
            errors.append(max(float(np.max(np.abs(_repeat_pushforward(q, q).probs - 1 / (6 * n))))
                              for q in family))
            assert reduction_check(n, 8).max_uniform_error == max(errors)

    def test_pushforward_matches_repeat_construction(self):
        for n in (1, 2, 3, 4):
            family = rational_pmfs(n, 4)
            for q in family:
                for p in family[::3]:
                    assert np.array_equal(exact_pushforward(q, p).probs,
                                          _repeat_pushforward(q, p).probs)

    def test_screen_within_tolerance_of_scalar_margins(self):
        # reduction_check confirms every pair within 2e-12 of the screened
        # minimum; that window is sound only if the screen is this close.
        # Blocks of 7 q rows, so block boundaries fall inside each family.
        for n in (1, 2, 3):
            family = rational_pmfs(n, 5)
            stacked = np.stack([p.probs for p in family])
            uniform_big = uniform(6 * n)
            for start in range(0, len(family), 7):
                block = _screen_margins(stacked[start:start + 7], stacked)
                assert block.shape == (len(family[start:start + 7]), len(family))
                for q, margins in zip(family[start:start + 7], block):
                    for p, screened in zip(family, margins):
                        if p is q:
                            assert screened == math.inf
                            continue
                        scalar = (tv_distance(exact_pushforward(q, p), uniform_big)
                                  - tv_distance(p, q) / 3.0)
                        assert abs(screened - scalar) <= 1e-13

    def test_screen_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="sum"):
            _screen_margins(uniform(2).probs[None], np.array([[0.5, 0.5], [0.6, 0.6]]))

    @pytest.mark.parametrize("max_n, max_denominator", [(0, 8), (-2, 8), (4, 0), (4, -1)])
    def test_rejects_empty_scan(self, max_n, max_denominator):
        with pytest.raises(ValueError, match="max_n >= 1 and max_denominator >= 1"):
            reduction_check(max_n, max_denominator)


class TestPairJoint:
    def test_compares_by_identity(self):
        d, copy = pair_joint(0.5, 0.1, 0.2), pair_joint(0.5, 0.1, 0.2)
        assert d == d
        assert (d == copy) is False and d != copy
        assert d not in [copy]
        assert d in {d} and len({d, copy}) == 2

    def test_equal_biases_give_identical_conditionals(self):
        d = pair_joint(0.7, 0.15, 0.15)
        assert np.array_equal(d.joint[0], d.joint[1])

    def test_zero_bias_is_independent_poissons(self):
        d = pair_joint(1.0, 0.0, 0.0)
        a = np.arange(d.truncation + 1)
        expected = np.exp(-2.0) / np.outer(
            np.array([math.factorial(int(x)) for x in a], dtype=float),
            np.array([math.factorial(int(x)) for x in a], dtype=float),
        )
        assert np.allclose(d.joint[0], expected, rtol=1e-10, atol=1e-300)

    def test_marginals_are_poisson_mixtures(self):
        lam, eps = 0.8, 0.3
        d = pair_joint(lam, 0.1, eps)
        a = np.arange(d.truncation + 1)
        mix = 0.5 * (sps.poisson.pmf(a, lam * (1 + eps)) + sps.poisson.pmf(a, lam * (1 - eps)))
        row_marginal = d.joint[1].sum(axis=1)
        assert np.allclose(row_marginal, mix, atol=1e-13)
        col_marginal = d.joint[1].sum(axis=0)
        assert np.allclose(col_marginal, mix, atol=1e-13)

    def test_tail_mass_under_tolerance(self):
        d = pair_joint(1.0, 0.05, 0.2)
        assert 0 <= d.tail_mass <= TAIL_TOL
        for j in d.joint:
            assert abs(j.sum() - (1 - d.tail_mass)) <= 1e-13

    def test_truncation_cap(self):
        # K starts at ceil(lam * 1.1), already past the cap
        with pytest.raises(ValueError, match="truncation"):
            pair_joint(10**6, 0.0, 0.1)

    @pytest.mark.parametrize("lam", [10**6, 1e300, 9100.0])
    def test_truncation_cap_checked_before_any_pmf(self, lam, monkeypatch):
        # 9100 * 1.1 = 10010: the starting K alone passes the cap
        from scipy import special

        def forbidden(*args):
            raise AssertionError("a Poisson kernel was evaluated")

        for kernel in ("pdtr", "gammaln", "xlogy"):
            monkeypatch.setattr(special, kernel, forbidden)
        with pytest.raises(ValueError, match=f"truncation would exceed {TRUNCATION_CAP} at lam="):
            pair_joint(lam, 0.0, 0.1)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match=f"need a finite lam > 0, got lam={lam!r}"):
            pair_joint(lam, 0.0, 0.1)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            pair_joint(1.0, 0.3, 0.2)
        with pytest.raises(ValueError):
            pair_joint(0.0, 0.1, 0.2)

    # 7.784 and 44.66 are the m/n of the headline and identity points
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 7.784, 44.66])
    @pytest.mark.parametrize("eps", [0.1, 0.25])
    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.02])
    def test_matches_scipy_stats_construction(self, lam, eps, delta):
        K, joints, tail_mass = _scipy_stats_pair_joint(lam, eps - delta, eps)
        d = pair_joint(lam, eps - delta, eps)
        assert d.truncation == K
        assert d.tail_mass == tail_mass
        for got, want in zip(d.joint, joints):
            assert np.array_equal(got, want)


def _scipy_stats_pair_joint(lam, eps0, eps1):
    """``pair_joint`` built from ``scipy.stats.poisson``: the reference."""
    K = max(8, math.ceil(lam * (1.0 + eps1)))
    while max(1.0 - sps.poisson.cdf(K, lam * (1.0 + eps)) * sps.poisson.cdf(K, lam * (1.0 - eps))
              for eps in (eps0, eps1)) > TAIL_TOL:
        K = min(TRUNCATION_CAP, 2 * K)
    a = np.arange(K + 1)
    joints = []
    for eps in (eps0, eps1):
        hi, lo = sps.poisson.pmf(a, lam * (1.0 + eps)), sps.poisson.pmf(a, lam * (1.0 - eps))
        joints.append(0.5 * (np.outer(hi, lo) + np.outer(lo, hi)))
    return K, joints, max(0.0, max(1.0 - float(j.sum()) for j in joints))


class TestMutualInfo:
    def test_zero_delta_is_exactly_zero(self):
        mi = mutual_info_pair(pair_joint(0.5, 0.2, 0.2))
        assert mi.value == 0.0
        assert mi.error_budget <= 1e-12

    def test_nonnegative_and_below_one_bit(self):
        for lam in (0.2, 1.0):
            for pair in ((0.0, 0.3), (0.1, 0.2)):
                mi = mutual_info_pair(pair_joint(lam, *pair))
                assert 0.0 <= mi.value <= math.log(2)

    def test_monotone_in_delta(self):
        lam, eps = 0.6, 0.25
        values = [
            mutual_info_pair(pair_joint(lam, eps - delta, eps)).value
            for delta in (0.0, 0.01, 0.02, 0.05, 0.1)
        ]
        assert values == sorted(values)

    def test_quadratic_scaling_spot(self):
        lam, eps, delta = 0.5, 0.2, 0.02
        full = mutual_info_pair(pair_joint(lam, eps - delta, eps)).value
        half_delta = mutual_info_pair(pair_joint(lam, eps - delta / 2, eps)).value
        half_lam = mutual_info_pair(pair_joint(lam / 2, eps - delta, eps)).value
        assert 2.5 <= full / half_delta <= 6.0
        assert 2.5 <= full / half_lam <= 6.0
