"""The sampling stream and the ensembles of the matrix experiments.

Holds the reproducible sampling stream ``Rng``, the ensemble names MAT and
GL, and smith_parts_raw and smith_parts_quadratic, one-matrix facades over
the batched Smith kernels in ``batched``.  The scalar rank over F_p and
the scalar Smith eliminations that those kernels are tested against are
in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batched import batch_smith_parts, batch_smith_parts_quad, check_smith_budget
from .padic_core import _one_batch

MAT = "MAT"
GL = "GL"


@dataclass(frozen=True)
class Rng:
    """Counter-based reproducible stream: (seed, stream_id) keys a Philox
    generator, so identical keys give identical output everywhere."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.seed & 0xFFFFFFFFFFFFFFFF), (self.stream_id & 0xFFFFFFFFFFFFFFFF))
        return np.random.Generator(np.random.Philox(key=key))


def smith_parts_raw(mat, p: int, prec: int):
    """Diagonal valuations of the Smith form of an integer matrix mod p^prec,
    as (parts, saturated): batch_smith_parts of a one-matrix batch.
    Saturated pivots are reported as prec."""
    m = p ** prec
    check_smith_budget(m)
    parts, sat = batch_smith_parts(_one_batch(mat, m), p, prec)
    return parts[0].tolist(), bool(sat[0])


def smith_parts_quadratic(rows_u, rows_v, p: int, prec: int, ramified: bool,
                          gamma: int):
    """Diagonal uniformizer-valuations of the Smith form of the matrix
    rows_u + rows_v g over Z_p[g]/(g^2 - gamma), as (parts, saturated):
    batch_smith_parts_quad of a one-matrix batch.  gamma is a non-residue
    unit for the unramified ring and p times a unit for a ramified one;
    parts count levels of p when unramified and half-levels when ramified."""
    m = p ** prec
    check_smith_budget(m, gamma)
    parts, sat = batch_smith_parts_quad(_one_batch(rows_u, m),
                                        _one_batch(rows_v, m), p, prec,
                                        ramified, gamma)
    return parts[0].tolist(), bool(sat[0])

