"""The benchmark's workloads: which registry experiments each one runs.

Each entry is (experiment, overrides, reports, trials).  `reports` is how
many reports the experiment must return; `trials` names a size key of the
workload, or is None for an exhaustive (exact) experiment, which takes no
trial count.  Sizes are per workload so that a run can shrink every
workload together (`tiny`, for the benchmark's own tests) without changing
which code paths run.

This module imports nothing from the program, so the parent process can
validate a workload name without paying the package import.
"""

CHUNK = 4096  # experiment.CHUNK_TRIALS; census sizes are whole chunks of it

CENSUS = (
    ("quad_census", {}, 4, "mc"),
    ("expected_quad", {}, 2, "mc"),
    ("higher_degree_unramified_cubic", {}, 1, "mc"),
)

ZP_ROOTS = (
    ("E_Zp_count", {}, 1, "mc"),
    ("var_zp", {}, 1, "mc"),
    ("pair_valuation_hist", {}, 3, "mc"),
    ("gl_support", {}, 2, "mc"),
    ("en_relation", {}, 1, "mc"),
    ("en_decay", {}, 2, "mc"),
)

LINALG = (
    ("cok_markov", {}, 1, "mc"),
    ("cok_joint_chain", {}, 2, "mc"),
    ("quad_chain", {"label": "UNRAMIFIED"}, 1, "mc"),
    ("quad_chain", {"label": "RAMIFIED"}, 1, "mc"),
    ("island_law", {"d": 1}, 1, "mc"),
    ("island_law", {"d": 2}, 1, "mc"),
    # the odd-prime island path is ~25x slower per sample than p=2; below
    # ~1024 trials its TV statistic nears the 0.06 gate (512 failed 1 seed in 60)
    ("island_law", {"p": 3, "d": 1, "n": 50}, 1, "mc_slow"),
    ("charpoly_det_identity", {}, 3, "mc"),
) + tuple(
    ("det_moment", {"p": p, "n": n, "k": k}, 1, "mc")
    for p in (2, 3) for n in (1, 2, 3) for k in (1, 2)
) + (
    ("det_moment_exact", {}, 1, None),
    ("points_on_variety", {"p": 2, "s": 1, "N": 1}, 1, None),
    ("points_on_variety", {"p": 2, "s": 2, "N": 2}, 1, None),
    ("points_on_variety", {"p": 3, "s": 1, "N": 1}, 1, None),
    ("points_on_variety_gl", {}, 1, None),
    ("poly_variety", {"p": 2, "s": 1, "N": 1}, 1, None),
    ("poly_variety", {"p": 2, "s": 2, "N": 2}, 1, None),
    ("poly_variety", {"p": 3, "s": 1, "N": 1}, 1, None),
    ("invertible_exact", {}, 1, None),
)

# name -> (experiments, workers).  A workload with more than one worker is
# also run once at one worker, and the report digests must be equal.
WORKLOADS = {
    "census": (CENSUS, 1),
    "census_2w": (CENSUS, 2),
    "zp_roots": (ZP_ROOTS, 1),
    "linalg": (LINALG, 1),
}

# trials per Monte Carlo experiment, by size, workload and trial key.  A
# census pass at one chunk per experiment takes 12-16 s on two cores, so a
# 55-s run holds three or four passes; census_2w needs two chunks per
# experiment so that each of its workers gets one.
SIZES = {
    "full": {"census": {"mc": CHUNK}, "census_2w": {"mc": 2 * CHUNK},
             "zp_roots": {"mc": 8192},
             "linalg": {"mc": 4096, "mc_slow": 1024}},
    "tiny": {"census": {"mc": 64}, "census_2w": {"mc": 64},
             "zp_roots": {"mc": 512},
             "linalg": {"mc": 256, "mc_slow": 1024}},
}


def plan(workload: str, size: str, seed: int, workers: int | None = None) -> list:
    """(experiment, overrides, reports) for one pass of a workload; the
    overrides are the ones the CLI's --trials/--seed/--workers feed."""
    entries, own_workers = WORKLOADS[workload]
    sizes = SIZES[size][workload]
    out = []
    for name, extra, reports, key in entries:
        over = dict(extra, seed=seed, workers=workers or own_workers)
        if key is not None:
            over["trials"] = sizes[key]
        out.append((name, over, reports))
    return out
