"""Layer bench of the barrier study's fingerprint samplers (pytest-benchmark).

Each case draws the 200 runs of one barrier grid point (heavy(n^-1/2) at
n = 10^4) with one sampler.  The file name keeps it out of the test suite;
run it on its own:

    python -m pytest tests/bench_fingerprints.py --benchmark-columns=median,iqr,rounds
"""

import pytest

from repunif import distributions
from repunif.distributions import InstanceSpec, make_instance
from repunif.rng import stream

N, RUNS = 10**4, 200
GRID = (400, 800, 1600, 3200, 6400)
HEAVY = make_instance(InstanceSpec.heavy(N ** -0.5), N)


@pytest.mark.parametrize("m", GRID)
def test_multinomial_fingerprints(benchmark, m):
    rng = stream(1, m)
    benchmark(distributions._multinomial_fingerprints, HEAVY, m, RUNS, rng)


@pytest.mark.parametrize("m", GRID)
def test_poissonized_fingerprints(benchmark, m):
    rng = stream(2, m)
    benchmark(distributions._poissonized_fingerprints, HEAVY, float(m), RUNS, rng)
