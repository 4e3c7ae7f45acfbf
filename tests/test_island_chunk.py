"""The island-law chunk, drawn and counted in slices of ISLAND_SLICE entries,
against one draw of the whole chunk (oracles.island_law_chunk), the p = 3
island counts at the benchmark's parameters, and the working sets of the
linalg chunks: the island slices (int32 draws and float32 powers at odd p),
and the charpoly/det identity and joint cokernel chain chunks, which drop
each array once it is used."""

import tracemalloc

import numpy as np
import pytest

from padicstats.experiment import build_experiment, run_experiment
from padicstats.matrix_lab import Rng
from padicstats import registry
from padicstats.registry import ISLAND_SLICE, _island_law_chunk

import oracles

KEYS = [(seed, chunk) for seed in (1, 7, 4242) for chunk in (0, 3)]
BENCH_SIZE = {2: 4096, 3: 1024}  # the benchmark's island chunks, at n = 50


def _cases():
    for p, d in ((2, 1), (2, 2), (3, 1)):
        for n in (5, 50, 63) if p == 2 else (5, 50):
            step = max(1, ISLAND_SLICE // (n * n))
            sizes = [1, step - 1, step, step + 1, 1000]
            if n == 50:
                sizes.append(BENCH_SIZE[p])
            for size in sizes:
                if size >= 1:
                    yield pytest.param(p, d, n, size, id=f"p{p}-d{d}-n{n}-{size}")


@pytest.mark.parametrize("p,d,n,size", _cases())
def test_sliced_chunk_equals_the_one_shot_chunk(p, d, n, size):
    spec = build_experiment("island_law", {"p": p, "d": d, "n": n})
    for key in KEYS:
        gen, ref = Rng(*key).generator(), Rng(*key).generator()
        got = _island_law_chunk(spec, gen, size)["hist"]
        want = oracles.island_law_chunk(spec, ref, size)["hist"]
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want), key
        assert got.sum() == size
        # and both streams stop at the same place
        assert gen.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62), key


# The p = 3 island law at the benchmark's parameters (d = 1, n = 50, 1,024
# trials), pinned at three seeds.  oracles.island_law_chunk counts with the
# same kernel as the chunk, so these counts are what checks that kernel's
# whole path, from the int32 draw through the rank, on its own.
P3_ISLAND_COUNTS = {
    1: "579,280,115,38,9,3,0,0",
    7: "558,291,112,43,14,4,1,1",
    20240801: "606,258,110,37,11,1,1,0",
}


@pytest.mark.parametrize("seed", P3_ISLAND_COUNTS)
def test_p3_island_counts_at_the_benchmark_parameters(seed):
    spec = build_experiment("island_law", {"p": 3, "d": 1, "n": 50,
                                           "trials": 1024, "seed": seed})
    (report,) = run_experiment(spec)
    assert report.details == "counts " + P3_ISLAND_COUNTS[seed]


# tracemalloc peaks of one chunk at n = 50, each under its bound: the p = 2
# island keeps a slice's bits and packed rows (3.0 MiB), the p = 3 island a
# slice's int32 draw and two float32 buffers (6.0 MiB; an int64 draw with
# float64 buffers reaches 15.9), the identity chunk 6.7 MiB (10.7 if it
# keeps its first draw while it draws the quadratic pair) and the joint
# chain 3.3 MiB (7.0 with one Smith pass over both batches concatenated).
# One draw of a whole island chunk peaks at 48.8 MiB at p = 2 and 78.1 at
# p = 3.
ISLAND_WORKING_SET_MIB = {2: 4, 3: 8}


def _peak_mib(chunk, spec, size):
    gen = Rng(1).generator()
    tracemalloc.start()
    try:
        chunk(spec, gen, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


@pytest.mark.parametrize("p,size", [(2, 4096), (3, 1024)])
def test_island_chunk_working_set(p, size):
    spec = build_experiment("island_law", {"p": p, "d": 1, "n": 50})
    peak = _peak_mib(_island_law_chunk, spec, size)
    assert peak < ISLAND_WORKING_SET_MIB[p], f"{peak:.1f} MiB"


@pytest.mark.parametrize("name,bound_mib", [
    ("charpoly_det_identity", 8), ("cok_joint_chain", 6),
])
def test_linalg_chunk_working_set(name, bound_mib):
    chunk = getattr(registry, f"_{name}_chunk")
    peak = _peak_mib(chunk, build_experiment(name, {}), 4096)
    assert peak < bound_mib, f"{peak:.1f} MiB"
