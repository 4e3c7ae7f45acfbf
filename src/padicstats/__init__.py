"""Eigenvalue statistics of Haar-random matrices over the p-adic integers.

Exact arithmetic in Z/p^N, closed-form limiting statistics (q-series,
theta functions, partition Markov chains), and a seeded verification
harness comparing simulations against the analytic predictions.
"""

from .padic_core import (
    PadicPoly,
    SATURATED,
    discriminant,
    resultant,
)
from .matrix_lab import (
    GL,
    MAT,
    Rng,
)
from .root_census import (
    Census,
    classify_quadratic,
    factor_mod_p,
    hensel_split,
    island_multiplicities,
)
from .closed_forms import (
    IntervalValue,
    MarkovParams,
    RealValue,
    andrews_gordon_expectation,
    eval_formula,
    markov_kernel_prob,
    markov_sample_path,
    markov_spectral,
    markov_t_moment,
    qpoch,
    theta3,
)
from .experiment import (
    AnalyticTarget,
    EstimateReport,
    ExactReport,
    ExperimentSpec,
    build_experiment,
    compare,
    list_experiments,
    run_experiment,
)

__version__ = "0.1.0"
