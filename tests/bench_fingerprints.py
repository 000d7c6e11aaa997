"""Layer bench of the fingerprint samplers (pytest-benchmark).

The barrier cases draw the 200 runs of one barrier grid point
(heavy(n^-1/2) at n = 10^4) with one sampler.  The paired-bias cases draw
k = 9 multinomial fingerprint rows of paired-bias(0.25) at the tester's
sample size for eps = 0.25, rho = 0.2 and n = 10^5 or 10^6: rows with no
one-cell level, as the tester below m = n would draw them.  The crossover
cases draw the same k = 9 paired-bias(0.25) rows above m = n, at the
tester's sample size for n = 1000 and n = 10^4, once as the stacked draw's
rows (``_draw_rows``, what the tester draws there) and once as multinomial
fingerprints: where the fingerprints win is where the tester could switch
to them.  The file name keeps it out of the test suite; run it on its own:

    python -m pytest tests/bench_fingerprints.py --benchmark-columns=median,iqr,rounds
"""

import pytest

from repunif import distributions
from repunif.distributions import InstanceSpec, make_instance
from repunif.rng import stream

N, RUNS = 10**4, 200
GRID = (400, 800, 1600, 3200, 6400)
HEAVY = make_instance(InstanceSpec.heavy(N ** -0.5), N)
PAIRED = ((10**5, 92_043), (10**6, 314_597))
CROSSOVER = ((1000, 7784), (10**4, 26_715))


@pytest.mark.parametrize("m", GRID)
def test_multinomial_fingerprints(benchmark, m):
    rng = stream(1, m)
    benchmark(distributions._multinomial_fingerprints, HEAVY, m, RUNS, rng)


@pytest.mark.parametrize("m", GRID)
def test_poissonized_fingerprints(benchmark, m):
    rng = stream(2, m)
    benchmark(distributions._poissonized_fingerprints, HEAVY, float(m), RUNS, rng)


@pytest.mark.parametrize("n, m", PAIRED)
def test_multinomial_fingerprints_paired_bias(benchmark, n, m):
    p = make_instance(InstanceSpec.paired_bias(0.25), n)
    rng = stream(3, m)
    benchmark(distributions._multinomial_fingerprints, p, m, 9, rng)


@pytest.mark.parametrize("n, m", CROSSOVER)
@pytest.mark.parametrize("sampler", ["_draw_rows", "_multinomial_fingerprints"])
def test_crossover_above_n(benchmark, sampler, n, m):
    p = make_instance(InstanceSpec.paired_bias(0.25), n)
    rng = stream(4, m)
    benchmark(getattr(distributions, sampler), p, m, 9, rng)
