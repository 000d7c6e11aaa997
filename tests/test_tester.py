"""Tester behavior: sizes, determinism, thresholds, reduction."""

import json
import math

import numpy as np
import pytest

from repunif.distributions import (
    InstanceSpec,
    Pmf,
    SampleBatch,
    draw_batch,
    draw_samples,
    make_instance,
)
from repunif.exact import exact_pushforward, rational_pmfs
from repunif.rng import ROLE_INTERNAL, ROLE_SAMPLE, SeedSplit, stream
from repunif.stats import GapRegime
from repunif.tester import (
    IdentityReducer,
    TesterParams,
    derive_sizes,
    run_identity_tester,
    run_tester,
)

CAL = dict(c_gap=0.21346146882247882, c_m1=1.0, c_m2=1.0, c_m0=3.0)


def seeds_for(seed, salt=0):
    return SeedSplit(
        internal=stream(seed, salt, ROLE_INTERNAL),
        sample=stream(seed, salt, ROLE_SAMPLE),
    )


def uniform(n):
    return make_instance(InstanceSpec.uniform(), n)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TesterParams(n=1, eps=0.25, rho=0.2)
        with pytest.raises(ValueError):
            TesterParams(n=100, eps=0.6, rho=0.2)
        with pytest.raises(ValueError):
            TesterParams(n=100, eps=0.25, rho=0.5)
        with pytest.raises(ValueError):
            TesterParams(n=100, eps=0.25, rho=0.2, c_gap=0.0)

    @pytest.mark.parametrize("name", ["c_m1", "c_m2", "c_m0", "c_gap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_constants_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            TesterParams(n=100, eps=0.25, rho=0.2, **{name: value})

    def test_from_constants_round_trip(self):
        params = TesterParams.from_constants(50, 0.3, 0.1, CAL)
        assert {k: getattr(params, k) for k in CAL} == CAL


class TestDeriveSizes:
    def test_formula_value(self):
        # recomputed from the size formula: ceil(sqrt(1e4)/(0.2*0.0625)
        #   * sqrt(ln(5e4)) + 1/(0.04*0.0625)) = 26715
        params = TesterParams(n=10**4, eps=0.25, rho=0.2, c_m1=1.0, c_m2=1.0)
        m, m0 = derive_sizes(params)
        assert m == 26715
        assert m0 == 9  # smallest odd >= 3 ln 20 = 8.987...

    def test_m_floor(self):
        params = TesterParams(n=100, eps=0.49, rho=0.49, c_m1=1e-12, c_m2=1e-12)
        m, _ = derive_sizes(params)
        assert m == 6

    def test_m0_floor_and_oddness(self):
        params = TesterParams(n=100, eps=0.25, rho=0.49, c_m0=1e-9)
        _, m0 = derive_sizes(params)
        assert m0 == 1
        for rho in (0.05, 0.1, 0.2, 0.3, 0.4):
            _, m0 = derive_sizes(TesterParams(n=100, eps=0.25, rho=rho))
            assert m0 % 2 == 1 and m0 >= 1


class TestRunTester:
    def test_deterministic_given_seeds(self):
        params = TesterParams.from_constants(200, 0.3, 0.2, CAL)
        p = make_instance(InstanceSpec.paired_bias(0.35), 200)
        a = run_tester(p, params, seeds_for(7))
        b = run_tester(p, params, seeds_for(7))
        assert a == b

    def test_rederived_internal_key_replays_coin(self):
        # the harness pairs two runs by deriving the same internal key twice
        params = TesterParams.from_constants(200, 0.3, 0.2, CAL)
        p = uniform(200)
        a = run_tester(p, params, SeedSplit(
            internal=stream(5, ROLE_INTERNAL), sample=stream(5, 0, ROLE_SAMPLE)))
        b = run_tester(p, params, SeedSplit(
            internal=stream(5, ROLE_INTERNAL), sample=stream(5, 1, ROLE_SAMPLE)))
        assert a.r0 == b.r0 and a.threshold == b.threshold

    def test_internal_coin_fixes_threshold(self):
        params = TesterParams.from_constants(200, 0.3, 0.2, CAL)
        p = uniform(200)
        verdicts = []
        for sample_salt in range(4):
            seeds = SeedSplit(
                internal=stream(3, ROLE_INTERNAL),
                sample=stream(3, sample_salt, ROLE_SAMPLE),
            )
            verdicts.append(run_tester(p, params, seeds))
        assert len({v.r0 for v in verdicts}) == 1
        assert len({v.threshold for v in verdicts}) == 1
        assert len({v.statistic for v in verdicts}) > 1

    def test_threshold_placement(self):
        params = TesterParams.from_constants(300, 0.25, 0.2, CAL)
        for salt in range(20):
            v = run_tester(uniform(300), params, seeds_for(11, salt))
            assert 0.25 <= v.r0 <= 0.75
            assert v.mu_uniform + v.gap / 4 <= v.threshold <= v.mu_uniform + 3 * v.gap / 4

    def test_point_mass_always_rejects(self):
        params = TesterParams.from_constants(100, 0.25, 0.2, CAL)
        p = make_instance(InstanceSpec.heavy(1.0), 100)
        for salt in range(10):
            v = run_tester(p, params, seeds_for(13, salt))
            assert v.decision == "reject"
            assert v.statistic == pytest.approx(1 - 1 / 100, abs=1e-12)

    def test_decision_matches_comparison(self):
        params = TesterParams.from_constants(150, 0.3, 0.25, CAL)
        p = make_instance(InstanceSpec.paired_bias(0.4), 150)
        for salt in range(10):
            v = run_tester(p, params, seeds_for(17, salt))
            assert v.accept == (v.statistic < v.threshold)

    def test_relabeling_invariance(self):
        # permuting the oracle's output counts cannot change the verdict
        params = TesterParams.from_constants(60, 0.3, 0.2, CAL)
        p = make_instance(InstanceSpec.heavy(0.2), 60)
        perm = stream(19, 0).permutation(60)

        def oracle(m, rng):
            return draw_batch(p, m, rng)

        def permuted_oracle(m, rng):
            return SampleBatch(oracle(m, rng).counts[perm])

        a = run_tester(oracle, params, seeds_for(23))
        b = run_tester(permuted_oracle, params, seeds_for(23))
        assert a == b
        # an explicit pmf's batches are one stacked draw, which fills each
        # level's cells in ascending order, levels in order of first
        # appearance: relabeling that keeps that order moves counts between
        # cells, not the verdict
        rest = stream(19, 1).permutation(np.repeat([1.0, 2.0, 3.0], 19))
        weights = np.concatenate(([1.0, 2.0, 3.0], rest))
        q = Pmf(weights / weights.sum())
        shuffle = np.concatenate(([0, 1, 2], 3 + stream(19, 2).permutation(57)))
        relabeled = Pmf(q.probs[shuffle])
        assert not np.array_equal(relabeled.probs, q.probs)
        assert run_tester(relabeled, params, seeds_for(23)) == run_tester(q, params, seeds_for(23))

    def test_regime_reported(self):
        params = TesterParams.from_constants(1000, 0.25, 0.2, CAL)
        v = run_tester(uniform(1000), params, seeds_for(29))
        assert v.regime is GapRegime.SUPERLINEAR

    def test_wrong_domain_oracle_rejected(self):
        params = TesterParams.from_constants(100, 0.25, 0.2, CAL)
        with pytest.raises(ValueError):
            run_tester(uniform(99), params, seeds_for(31))

    def test_verdict_json_round_trip(self):
        params = TesterParams.from_constants(100, 0.25, 0.2, CAL)
        v = run_tester(uniform(100), params, seeds_for(37))
        parsed = json.loads(json.dumps(v.to_dict()))
        assert parsed["decision"] == v.decision
        assert parsed["regime"] == v.regime.value
        assert parsed["m0"] == v.m0


class TestIdentityReducer:
    def test_block_sizes_at_least_three(self):
        rng = stream(71, 0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            raw = rng.random(n) + 1e-6
            q = Pmf(raw / raw.sum())
            red = IdentityReducer(q)
            assert int(red.cells.min()) >= 3
            assert red.used + red.overflow == 6 * n

    def test_uniform_two_has_no_overflow(self):
        red = IdentityReducer(uniform(2))
        assert red.overflow == 0
        assert np.all(red.spread == 1.0)

    def test_map_many_matches_pushforward(self):
        q = Pmf(np.array([0.75, 0.25]))
        p = Pmf(np.array([0.25, 0.75]))
        red = IdentityReducer(q)
        push = exact_pushforward(q, p).probs
        draws = 200_000
        rng = stream(73, 0)
        raw = draw_samples(p, draws, rng)
        mapped = red.map_many(raw, rng)
        freq = np.bincount(mapped, minlength=12) / draws
        sd = np.sqrt(push * (1 - push) / draws)
        assert np.all(np.abs(freq - push) <= 5 * sd + 1e-9)

    def test_single_element_spreads_uniformly(self):
        red = IdentityReducer(uniform(1))
        rng = stream(79, 0)
        outputs = red.map_many(np.zeros(60_000, dtype=np.int64), rng)
        freq = np.bincount(outputs, minlength=6) / 60_000
        assert np.all(np.abs(freq - 1 / 6) <= 5 * math.sqrt((1 / 6) * (5 / 6) / 60_000))

    def test_map_many_deterministic(self):
        q = make_instance(InstanceSpec.paired_bias(0.4), 6)
        red = IdentityReducer(q)
        raw = draw_samples(q, 500, stream(83, 0))
        a = red.map_many(raw, stream(83, 1))
        b = red.map_many(raw, stream(83, 1))
        assert np.array_equal(a, b)

    def test_pushforward_matches_exact_oracle(self):
        for n in range(1, 5):
            family = rational_pmfs(n, 6)
            for q in family:
                red = IdentityReducer(q)
                assert np.max(np.abs(red.pushforward(q).probs - 1 / (6 * n))) <= 1e-15
                for p in family:
                    push = red.pushforward(p).probs
                    assert np.max(np.abs(push - exact_pushforward(q, p).probs)) <= 1e-15

    def test_pushforward_rejects_other_domain(self):
        red = IdentityReducer(uniform(4))
        with pytest.raises(ValueError):
            red.pushforward(uniform(2))
        with pytest.raises(ValueError):
            red.pushforward(uniform(8))

    @pytest.mark.parametrize("bad", [-1, 4, 2**40])
    def test_map_many_rejects_samples_outside_domain(self, bad):
        red = IdentityReducer(uniform(4))
        with pytest.raises(ValueError):
            red.map_many(np.array([0, 3, bad, 1], dtype=np.int64), stream(84, 0))


class TestIdentityTester:
    def test_runs_on_blown_up_domain(self):
        q = make_instance(InstanceSpec.paired_bias(0.4), 50)
        params = TesterParams.from_constants(50, 0.3, 0.2, CAL)
        v = run_identity_tester(q, q, params, seeds_for(89))
        assert v.n == 300
        assert v.kind == "tv-median"

    def test_matching_distribution_accepts(self):
        q = make_instance(InstanceSpec.paired_bias(0.4), 100)
        params = TesterParams.from_constants(100, 0.3, 0.2, CAL)
        accepts = sum(
            run_identity_tester(q, q, params, seeds_for(97, s)).accept for s in range(10)
        )
        assert accepts == 10

    def test_far_distribution_rejects(self):
        n = 100
        q = make_instance(InstanceSpec.paired_bias(0.4), n)
        shifted = np.array(q.probs)
        shifted[0::2] -= 0.3 / n  # TV(p, q) = 0.15 = eps/2... use full eps below
        shifted[1::2] += 0.3 / n
        p = Pmf(shifted)
        assert abs(0.5 * np.abs(p.probs - q.probs).sum() - 0.3 / 2) < 1e-12
        params = TesterParams.from_constants(n, 0.15, 0.2, CAL)
        rejects = sum(
            not run_identity_tester(p, q, params, seeds_for(101, s)).accept
            for s in range(10)
        )
        assert rejects == 10

    def test_reduced_batch_below_reduced_domain(self):
        # reduced m = 198,826 < 6n = 240,000: each batch takes draw_batch's
        # alias path over the pushforward, whose table is built on every run
        n, eps = 4 * 10**4, 0.45
        q = make_instance(InstanceSpec.paired_bias(0.4), n)
        shifted = np.array(q.probs)
        shifted[0::2] -= 2 * eps / n  # TV(p, q) = eps
        shifted[1::2] += 2 * eps / n
        p = Pmf(shifted)
        assert abs(0.5 * np.abs(p.probs - q.probs).sum() - eps) < 1e-12
        params = TesterParams.from_constants(n, eps, 0.4, CAL)
        for dist, accept in ((q, True), (p, False)):
            verdicts = [run_identity_tester(dist, q, params, seeds_for(107, s)) for s in range(3)]
            assert [v.accept for v in verdicts] == [accept] * 3
            assert all(v.n == 6 * n and v.m == 198_826 for v in verdicts)

    def test_domain_mismatch(self):
        q = uniform(10)
        params = TesterParams.from_constants(12, 0.3, 0.2, CAL)
        with pytest.raises(ValueError):
            run_identity_tester(q, q, params, seeds_for(103))

    @pytest.mark.parametrize("p_n", [100, 400])
    def test_p_on_other_domain_rejected(self, p_n):
        q = uniform(200)
        params = TesterParams.from_constants(200, 0.3, 0.2, CAL)
        with pytest.raises(ValueError):
            run_identity_tester(uniform(p_n), q, params, seeds_for(104))

    def test_black_box_oracle(self):
        n = 50
        q = make_instance(InstanceSpec.paired_bias(0.4), n)
        shifted = np.array(q.probs)
        shifted[0::2] -= 0.3 / n
        shifted[1::2] += 0.3 / n
        p = Pmf(shifted)
        params = TesterParams.from_constants(n, 0.15, 0.2, CAL)
        for dist, accept in ((q, True), (p, False)):
            verdicts = [
                run_identity_tester(lambda m, g: draw_samples(dist, m, g), q, params,
                                    seeds_for(105, s))
                for s in range(10)
            ]
            assert [v.accept for v in verdicts] == [accept] * 10
            assert all(v.n == 6 * n for v in verdicts)
