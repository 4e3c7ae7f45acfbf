"""The package's public names, pinned.

A name added to or removed from ``padicstats/__init__.py`` changes the
literal list below, so an API change shows up in the diff of this file.
"""

import inspect

import padicstats

PUBLIC = [
    "AnalyticTarget",
    "Census",
    "EstimateReport",
    "ExactReport",
    "ExperimentSpec",
    "GL",
    "IntervalValue",
    "MAT",
    "MarkovParams",
    "PadicPoly",
    "RealValue",
    "Rng",
    "SATURATED",
    "andrews_gordon_expectation",
    "build_experiment",
    "classify_quadratic",
    "compare",
    "eval_formula",
    "factor_mod_p",
    "hensel_split",
    "island_multiplicities",
    "list_experiments",
    "markov_kernel_prob",
    "markov_sample_path",
    "markov_spectral",
    "markov_t_moment",
    "qpoch",
    "run_experiment",
    "theta3",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package once imported, not exports
    exported = sorted(name for name, value in vars(padicstats).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == PUBLIC
