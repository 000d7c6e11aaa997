"""Layer bench of the statistic kernels (pytest-benchmark).

The tester cases time the TV kernel on the m0 = 9 rows of one tester run,
drawn as ``run_tester`` draws them and scored end to end at multiplicity
one: paired-bias(0.25) at eps = 0.25, rho = 0.2 and n = 1000 (the headline
point), n = 10^4 and n = 10^5 (below m = n, rows in cell order), and the
identity benchmark's far pushforward (1,200 cells at eps = 0.1).  The
barrier cases time each barrier scorer on the 200 fingerprints of one
barrier grid point (heavy(n^-1/2) at n = 10^4).  The one-batch cases time
``tv_statistic`` and ``collision_statistic`` on a batch of 7 samples on
5 cells, the largest size the oracles' brute force scores.  The file name
keeps it out of the test suite; run it on its own:

    python -m pytest tests/bench_stats.py --benchmark-columns=median,iqr,rounds
"""

import numpy as np
import pytest

from repunif import distributions, stats
from repunif.constants import default_constants
from repunif.distributions import InstanceSpec, Pmf, make_instance
from repunif.harness import BARRIER_STATISTICS
from repunif.rng import stream
from repunif.tester import IdentityReducer, TesterParams, derive_sizes

K, N, RUNS = 9, 10**4, 200
HEAVY = make_instance(InstanceSpec.heavy(N ** -0.5), N)


def _identity_far() -> Pmf:
    """The identity benchmark's far p (TV eps = 0.3 from q on 200 cells), pushed forward to 1,200 cells."""
    q = make_instance(InstanceSpec.paired_bias(0.4), 200)
    far = np.array(q.probs)
    far[0::2] -= 0.6 / 200
    far[1::2] += 0.6 / 200
    return IdentityReducer(q).pushforward(Pmf(far))


def _tester_point(point):
    if point == "identity":
        p, eps = _identity_far(), 0.1
    else:
        p, eps = make_instance(InstanceSpec.paired_bias(0.25), point), 0.25
    m, m0 = derive_sizes(TesterParams.from_constants(p.n, eps, 0.2, default_constants()))
    assert m0 == K
    rows, _ = distributions._draw_rows(p, m, K, stream(5, m))
    return rows, m, p.n


@pytest.mark.parametrize("point", [1000, "identity", 10**4, 10**5])
def test_tv_kernel_tester_rows(benchmark, point):
    rows, m, n = _tester_point(point)
    starts = np.arange(K) * rows.shape[1]
    benchmark(stats._tv_sums, rows.ravel(), 1, starts, m, n)


@pytest.mark.parametrize("m", [400, 6400])
@pytest.mark.parametrize("kind", list(BARRIER_STATISTICS))
def test_barrier_scorer(benchmark, kind, m):
    stat = BARRIER_STATISTICS[kind]
    fingerprints = stat.sample(HEAVY, m, RUNS, stream(6, m))
    benchmark(stat.score, fingerprints, N, m)


@pytest.mark.parametrize("statistic", [stats.tv_statistic, stats.collision_statistic])
def test_one_batch_at_n5(benchmark, statistic):
    batch = distributions.draw_batch(make_instance(InstanceSpec.uniform(), 5), 7, stream(7, 0))
    benchmark(statistic, batch)
