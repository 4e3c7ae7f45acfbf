"""Matrices over Z/p^N and over monic quotient rings Z/p^N[x]/(Z).

Provides Haar and invertible-ensemble sampling, division-free
characteristic polynomials, Smith normal form with valuation pivoting, and
cokernel partitions.  Matrices are immutable after construction; sampling
draws from an exclusively-held stream, everything else is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .padic_core import (
    MixedModulus,
    PadicPoly,
    QuotientRing,
    SATURATED,
    berkowitz_charpoly,
    inverse_mod,
    raw_valuation,
    resultant,
)


class RejectionExhausted(RuntimeError):
    """The invertible-ensemble rejection loop hit its attempt cap."""


class SaturatedDeterminant(ArithmeticError):
    """The determinant vanishes mod p^N; raise the precision to resolve it."""


MAT = "MAT"
GL = "GL"


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative integers with trailing zeros trimmed."""

    parts: tuple

    def __post_init__(self):
        ps = [int(x) for x in self.parts if int(x) != 0]
        if any(x < 0 for x in ps):
            raise ValueError("parts must be nonnegative")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", tuple(ps))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate_rank(self, i: int) -> int:
        """lambda'_i = #{j : lambda_j >= i} for i >= 1."""
        return sum(1 for x in self.parts if x >= i)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(tuple(self.conjugate_rank(i) for i in range(1, self.parts[0] + 1)))


@dataclass(frozen=True)
class SmithResult:
    """Cokernel partition plus a flag for precision-saturated pivots."""

    partition: Partition
    saturated: bool


@dataclass(frozen=True)
class Rng:
    """Counter-based reproducible stream: (seed, stream_id) keys a Philox
    generator, so identical keys give identical output everywhere."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.seed & 0xFFFFFFFFFFFFFFFF), (self.stream_id & 0xFFFFFFFFFFFFFFFF))
        return np.random.Generator(np.random.Philox(key=key))


# --------------------------------------------------------------------------
# Ring adapters.  BASE entries are plain ints mod p^N; quotient-ring entries
# are coefficient tuples reduced mod a monic polynomial Z (padic_core).
# --------------------------------------------------------------------------


class _BaseRing:
    def __init__(self, p: int, precision: int):
        self.p = p
        self.precision = precision
        self.modulus = p ** precision
        self.zero = 0
        self.one = 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def coerce(self, a):
        return int(a) % self.modulus


@dataclass(frozen=True)
class PadicMatrix:
    """Square matrix over Z/p^N (ring=None) or Z/p^N[x]/(Z) (ring=Z monic)."""

    p: int
    precision: int
    entries: tuple
    quotient: PadicPoly | None = None

    def __post_init__(self):
        ring = self.ring_ops()
        rows = tuple(tuple(ring.coerce(e) for e in row) for row in self.entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    def ring_ops(self):
        if self.quotient is None:
            return _BaseRing(self.p, self.precision)
        if (self.quotient.p, self.quotient.precision) != (self.p, self.precision):
            raise MixedModulus("quotient modulus disagrees on (p, N)")
        return QuotientRing(self.p, self.precision, self.quotient.coeffs)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_base(self) -> bool:
        return self.quotient is None

    @classmethod
    def from_rows(cls, p, precision, rows, quotient=None):
        return cls(p, precision, tuple(tuple(r) for r in rows), quotient)


def sample_matrix(n: int, p: int, precision: int, mode: str, rng) -> PadicMatrix:
    """Sample an n x n matrix with uniform entries mod p^N.

    MAT draws every entry independently (the level-N image of the additive
    Haar measure).  GL rejection-resamples until the matrix is invertible
    mod p, giving the level-N image of the invertible ensemble.
    """
    gen = rng.generator() if isinstance(rng, Rng) else rng
    m = p ** precision
    if mode == MAT:
        vals = gen.integers(0, m, size=(n, n))
        return PadicMatrix.from_rows(p, precision, vals.tolist())
    if mode != GL:
        raise ValueError(f"mode must be {MAT} or {GL}")
    for _ in range(10 ** 6):
        vals = gen.integers(0, m, size=(n, n))
        if _rank_mod_p(vals % p, p) == n:
            return PadicMatrix.from_rows(p, precision, vals.tolist())
    raise RejectionExhausted("no invertible sample in 10^6 attempts")


def _rank_mod_p(mat, p: int) -> int:
    rows = [[int(x) % p for x in r] for r in mat]
    n = len(rows)
    cols = len(rows[0]) if n else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if rows[i][c] % p != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == n:
            break
    return rank


def charpoly_coefficients(A: PadicMatrix) -> list:
    """Coefficients of det(xI - A), leading first, as ring elements."""
    ring = A.ring_ops()
    return berkowitz_charpoly(
        [list(r) for r in A.entries],
        add=ring.add,
        mul=ring.mul,
        neg=ring.neg,
        zero=ring.zero,
        one=ring.one,
    )


def charpoly(A: PadicMatrix) -> PadicPoly:
    """Monic characteristic polynomial of a base-ring matrix."""
    if not A.is_base:
        raise ValueError("charpoly over a quotient ring: use charpoly_coefficients")
    coeffs = charpoly_coefficients(A)
    return PadicPoly.from_ints(A.p, A.precision, list(reversed(coeffs)))


def determinant(A: PadicMatrix):
    """Determinant as a ring element: (-1)^n charpoly(0)."""
    coeffs = charpoly_coefficients(A)
    ring = A.ring_ops()
    c0 = coeffs[-1]
    return c0 if A.n % 2 == 0 else ring.neg(c0)


def smith_partition(A: PadicMatrix) -> SmithResult:
    """Cokernel partition of a base-ring matrix via Smith normal form.

    Pivots on the entry of minimal valuation (row-major tie break), scales
    the pivot row so the pivot is p^v and clears the column below it; the
    pivot row is never read again, so there is no column sweep.  Pivots
    that are zero mod p^N cannot be resolved at this precision: their parts
    are reported as N and the result is flagged saturated.
    """
    if not A.is_base:
        raise ValueError("smith_partition expects a base-ring matrix")
    parts, saturated = smith_parts_raw([list(r) for r in A.entries], A.p, A.precision)
    return SmithResult(Partition(tuple(sorted(parts, reverse=True))), saturated)


def smith_parts_raw(mat, p: int, prec: int):
    """Diagonal valuations of the Smith form of an integer matrix mod p^prec.

    Returns (parts, saturated); saturated pivots are reported as prec.
    The input rows are consumed.  This is the oracle of the batched
    batched.batch_smith_parts, which the cokernel chains run.
    """
    modulus = p ** prec
    n = len(mat)
    parts = []
    saturated = False
    for top in range(n):
        best = None
        best_v = prec
        for i in range(top, n):
            for j in range(top, n):
                x = mat[i][j]
                if x == 0:
                    continue
                v = raw_valuation(x, p, modulus)
                if v < best_v:
                    best_v = v
                    best = (i, j)
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            parts.extend([prec] * (n - top))
            saturated = True
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        pivot = mat[top][top]
        unit = pivot // (p ** best_v)
        inv_unit = inverse_mod(unit, p, modulus)
        mat[top] = [(x * inv_unit) % modulus for x in mat[top]]
        pv = p ** best_v
        # the pivot is now exactly p^v and divides every entry below it, so
        # the row sweep zeroes column top below the pivot; a column sweep
        # would change only row top, which no later step reads
        for i in range(top + 1, n):
            c = mat[i][top]
            if c == 0:
                continue
            f = c // pv
            mat[i] = [(x - f * y) % modulus for x, y in zip(mat[i], mat[top])]
        parts.append(best_v)
    return parts, saturated


def smith_parts_quadratic(rows_u, rows_v, p: int, prec: int, ramified: bool,
                          gamma: int):
    """Diagonal uniformizer-valuations of the Smith form over a quadratic
    ring of integers.

    Entries are pairs (u, v) meaning u + v*g where the generator g
    satisfies g^2 = gamma: gamma a non-residue unit for the unramified
    ring, gamma = p (times a unit) for a ramified one.  Valuations are in
    uniformizer units: the uniformizer is p itself when unramified (parts
    match base-ring levels) and g when ramified (parts count half-levels).

    Returns (parts, saturated).  This is the oracle of the batched
    batched.batch_smith_parts_quad, which quad_chain runs.
    """
    modulus = p ** prec
    n = len(rows_u)
    mat = [[(rows_u[i][j] % modulus, rows_v[i][j] % modulus) for j in range(n)]
           for i in range(n)]
    cap = prec if not ramified else 2 * prec - 1

    def val_pi(e):
        u, v = e
        vu = raw_valuation(u, p, modulus)
        vv = raw_valuation(v, p, modulus)
        if not ramified:
            if vu is SATURATED and vv is SATURATED:
                return None
            vals = [x for x in (vu, vv) if x is not SATURATED]
            return min(vals)
        a = 2 * vu if vu is not SATURATED else None
        b = 2 * vv + 1 if vv is not SATURATED else None
        if a is None and b is None:
            return None
        return min(x for x in (a, b) if x is not None)

    def mul(e1, e2):
        (u1, v1), (u2, v2) = e1, e2
        return ((u1 * u2 + gamma * v1 * v2) % modulus,
                (u1 * v2 + v1 * u2) % modulus)

    def unit_inverse(e):
        u, v = e
        nm = (u * u - gamma * v * v) % modulus
        inv = inverse_mod(nm, p, modulus)
        return ((u * inv) % modulus, (-v * inv) % modulus)

    def div_uniformizer(e, k):
        # divide by pi^k; exact for entries of valuation >= k
        u, v = e
        if not ramified:
            return (u // p ** k, v // p ** k)
        for _ in range(k):
            # (u + v g)/g = v + (u/p) g  since g^2 = gamma = p * unit
            unit = gamma // p
            u, v = v, (u // p) * inverse_mod(unit, p, modulus) % modulus
        return (u % modulus, v % modulus)

    parts = []
    saturated = False
    for top in range(n):
        best = None
        best_v = None
        for i in range(top, n):
            for j in range(top, n):
                v = val_pi(mat[i][j])
                if v is None:
                    continue
                if best_v is None or v < best_v:
                    best_v, best = v, (i, j)
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None or best_v >= cap:
            parts.extend([cap] * (n - top))
            saturated = True
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        pivot = mat[top][top]
        unit = div_uniformizer(pivot, best_v)
        inv_unit = unit_inverse(unit)
        mat[top] = [mul(e, inv_unit) for e in mat[top]]
        # no column sweep, as in smith_parts_raw (the pivot is now pi^v)
        for i in range(top + 1, n):
            e = mat[i][top]
            if e == (0, 0):
                continue
            factor = div_uniformizer(e, best_v)
            for j in range(top, n):
                u2, v2 = mul(factor, mat[top][j])
                mat[i][j] = ((mat[i][j][0] - u2) % modulus,
                             (mat[i][j][1] - v2) % modulus)
        parts.append(best_v)
    return parts, saturated


def det_valuation(A: PadicMatrix):
    """Valuation of the determinant norm.

    Base ring: the cokernel size |partition|; raises SaturatedDeterminant
    when a pivot saturates.  Quotient ring over monic Z: the valuation of
    the norm of the determinant, computed as val Res(Z, det(A)).
    """
    if A.is_base:
        res = smith_partition(A)
        if res.saturated:
            raise SaturatedDeterminant("determinant is 0 mod p^N")
        return res.partition.size
    ring = A.ring_ops()
    det = determinant(A)
    det_poly = ring.to_poly(det)
    r = resultant(A.quotient, det_poly)
    if r.is_saturated:
        raise SaturatedDeterminant("norm of determinant is 0 mod p^N")
    return r.valuation
