"""Replicable uniformity testing toolkit.

A distribution tester that stays stable under resampling: the TV-distance
statistic with a random threshold and a median boost, the
identity-to-uniformity reduction, exact small-instance oracles, and a
deterministic Monte Carlo harness that measures correctness and two-run
agreement rates and runs the heavy-element barrier studies of the
collision, chi-square and TV statistics.
"""

from .constants import default_constants, load_constants, resolve_constants, save_constants
from .distributions import (
    InstanceSpec,
    Pmf,
    SampleBatch,
    draw_batch,
    draw_poissonized_batch,
    draw_samples,
    make_instance,
    tv_distance,
)
from .exact import (
    MutualInfoValue,
    PairJointDist,
    brute_force_mean_statistic,
    exact_mean_tv,
    exact_pushforward,
    mutual_info_pair,
    pair_joint,
    reduction_check,
)
from .harness import (
    BarrierResult,
    CalibrationError,
    ExperimentReport,
    FixedPrior,
    PairedBiasPrior,
    SweepCurve,
    acceptance_sweep,
    barrier_experiment,
    calibrate,
    correctness_experiment,
    replicability_experiment,
    wilson_interval,
)
from .rng import DEFAULT_SEED, SeedSplit, stream
from .stats import (
    GapRegime,
    chi2_statistic,
    collision_statistic,
    empty_bucket_count,
    exact_uniform_mean,
    expectation_gap,
    tv_statistic,
    tv_statistic_fraction,
)
from .tester import (
    IdentityReducer,
    TesterParams,
    Verdict,
    derive_sizes,
    run_identity_tester,
    run_tester,
)

__version__ = "0.1.0"
