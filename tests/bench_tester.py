"""Layer bench of the tester at the paper's headline point (pytest-benchmark).

The cases time one ``run_tester`` at n = 1000, eps = 0.25, rho = 0.2 on a
paired-bias instance built once (its draw plan cached after the first run)
and on a fresh instance of a new bias every run, as a replicability pair
meets it; ``make_instance`` of that family alone; and one
``run_identity_tester`` run of the identity benchmark's set-up, its
reduction cached.  The file name keeps it out of the test suite; run it on
its own:

    python -m pytest tests/bench_tester.py --benchmark-columns=median,iqr,rounds
"""

from repunif.constants import default_constants
from repunif.distributions import InstanceSpec, make_instance
from repunif.rng import SeedSplit, stream
from repunif.tester import TesterParams, run_identity_tester, run_tester

N, EPS, RHO = 1000, 0.25, 0.2
PARAMS = TesterParams.from_constants(N, EPS, RHO, default_constants())
SEEDS = SeedSplit(internal=stream(1, 0), sample=stream(1, 1))


def _biases():
    """A new bias in [0, 2 eps) for every call, as ``PairedBiasPrior`` draws them."""
    rng = stream(2, 0)
    while True:
        yield float(rng.uniform(0.0, 2 * EPS))


def test_run_tester_cached_instance(benchmark):
    pmf = make_instance(InstanceSpec.paired_bias(0.3), N)
    benchmark(run_tester, pmf, PARAMS, SEEDS)


def test_run_tester_fresh_instance(benchmark):
    biases = _biases()
    benchmark(lambda: run_tester(make_instance(InstanceSpec.paired_bias(next(biases)), N), PARAMS, SEEDS))


def test_make_instance_paired_bias(benchmark):
    biases = _biases()
    benchmark(lambda: make_instance(InstanceSpec.paired_bias(next(biases)), N))


def test_run_identity_tester_cached(benchmark):
    params = TesterParams.from_constants(200, 0.3, 0.2, default_constants())
    q = make_instance(InstanceSpec.paired_bias(0.4), 200)
    benchmark(run_identity_tester, q, q, params, SeedSplit(internal=stream(3, 0), sample=stream(3, 1)))
