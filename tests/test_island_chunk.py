"""The island-law chunk, drawn and counted in slices of ISLAND_SLICE entries,
against one draw of the whole chunk (oracles.island_law_chunk), and the
working set that the slices keep it to."""

import tracemalloc

import numpy as np
import pytest

from padicstats.experiment import build_experiment
from padicstats.matrix_lab import Rng
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


# Slices keep an island chunk's buffers to a few MiB (3.0 at p = 2 and
# 15.9 at p = 3 for 2^19 entries); one draw of the whole chunk peaks at
# 48.8 and 78.1 MiB.
WORKING_SET_MIB = 24


@pytest.mark.parametrize("p,size", [(2, 4096), (3, 1024)])
def test_island_chunk_working_set(p, size):
    spec = build_experiment("island_law", {"p": p, "d": 1, "n": 50})
    gen = Rng(1).generator()
    tracemalloc.start()
    try:
        _island_law_chunk(spec, gen, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WORKING_SET_MIB * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
