"""Vectorized kernels for the Monte Carlo engines.

Everything here mirrors an exact single-sample operation elsewhere in the
package (division-free characteristic polynomials, ranks over F_p, packed
F_2 linear algebra) and is cross-checked against those implementations in
the test suite.  int64 arithmetic is safe as long as n * (p^N - 1)^2 fits,
which callers guarantee by the precision policy.
"""

from __future__ import annotations

import numpy as np

MAX_INT64_PRODUCT = 2 ** 62
MAX_FLOAT32_EXACT = 2 ** 24  # float32 holds every integer up to this exactly


def check_modulus_budget(n: int, modulus: int):
    if n * (modulus - 1) ** 2 > MAX_INT64_PRODUCT:
        raise ValueError(
            f"modulus {modulus} too large for int64 batch kernels at n={n}"
        )


def batch_charpoly(mats: np.ndarray, modulus: int) -> np.ndarray:
    """Characteristic polynomials det(xI - A) of a batch of matrices.

    mats: (B, n, n) int64, entries reduced mod modulus.
    Returns (B, n+1) coefficients, leading (monic) coefficient first.
    """
    B, n, _ = mats.shape
    check_modulus_budget(max(n, 1), modulus)
    coeffs = np.ones((B, 1), dtype=np.int64)
    for k in range(1, n + 1):
        a = mats[:, k - 1, k - 1]
        R = mats[:, k - 1 : k, : k - 1]
        S = mats[:, : k - 1, k - 1 : k]
        M = mats[:, : k - 1, : k - 1]
        t = np.zeros((B, k + 1), dtype=np.int64)
        t[:, 0] = 1
        t[:, 1] = (-a) % modulus
        vec = S
        for j in range(2, k + 1):
            t[:, j] = (-(R @ vec)[:, 0, 0]) % modulus
            if j < k:
                vec = (M @ vec) % modulus
        new = np.zeros((B, k + 1), dtype=np.int64)
        for i in range(k + 1):
            acc = np.zeros(B, dtype=np.int64)
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc = (acc + t[:, i - j] * coeffs[:, j]) % modulus
            new[:, i] = acc
        coeffs = new
    return coeffs


def batch_det(mats: np.ndarray, modulus: int) -> np.ndarray:
    """Determinants: (-1)^n times the constant characteristic coefficient."""
    n = mats.shape[1]
    c0 = batch_charpoly(mats, modulus)[:, -1]
    return c0 % modulus if n % 2 == 0 else (-c0) % modulus


def batch_charpoly_quad(matsU: np.ndarray, matsV: np.ndarray, c: int,
                        modulus: int) -> tuple:
    """Characteristic polynomials over the quotient ring Z/p^N[x]/(x^2 - c).

    Entries are u + v x encoded as the pair (matsU, matsV).  Returns the
    coefficient pair arrays (CU, CV), each (B, n+1), leading first.
    """
    B, n, _ = matsU.shape
    check_modulus_budget(max(2 * n * (1 + c % modulus), 1), modulus)

    def rmul_mat(AU, AV, BU, BV):
        U = (AU @ BU + c * (AV @ BV)) % modulus
        V = (AU @ BV + AV @ BU) % modulus
        return U, V

    def rmul_vec(au, av, bu, bv):
        return (au * bu + c * av * bv) % modulus, (au * bv + av * bu) % modulus

    cu = np.ones((B, 1), dtype=np.int64)
    cv = np.zeros((B, 1), dtype=np.int64)
    for k in range(1, n + 1):
        aU = matsU[:, k - 1, k - 1]
        aV = matsV[:, k - 1, k - 1]
        RU = matsU[:, k - 1 : k, : k - 1]
        RV = matsV[:, k - 1 : k, : k - 1]
        SU = matsU[:, : k - 1, k - 1 : k]
        SV = matsV[:, : k - 1, k - 1 : k]
        MU = matsU[:, : k - 1, : k - 1]
        MV = matsV[:, : k - 1, : k - 1]
        tU = np.zeros((B, k + 1), dtype=np.int64)
        tV = np.zeros((B, k + 1), dtype=np.int64)
        tU[:, 0] = 1
        tU[:, 1] = (-aU) % modulus
        tV[:, 1] = (-aV) % modulus
        vU, vV = SU, SV
        for j in range(2, k + 1):
            du = (RU @ vU + c * (RV @ vV))[:, 0, 0] % modulus
            dv = (RU @ vV + RV @ vU)[:, 0, 0] % modulus
            tU[:, j] = (-du) % modulus
            tV[:, j] = (-dv) % modulus
            if j < k:
                vU, vV = rmul_mat(MU, MV, vU, vV)
        nU = np.zeros((B, k + 1), dtype=np.int64)
        nV = np.zeros((B, k + 1), dtype=np.int64)
        for i in range(k + 1):
            accU = np.zeros(B, dtype=np.int64)
            accV = np.zeros(B, dtype=np.int64)
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                pu, pv = rmul_vec(tU[:, i - j], tV[:, i - j], cu[:, j], cv[:, j])
                accU = (accU + pu) % modulus
                accV = (accV + pv) % modulus
            nU[:, i] = accU
            nV[:, i] = accV
        cu, cv = nU, nV
    return cu, cv


def batch_valuation(vals: np.ndarray, p: int, N: int) -> np.ndarray:
    """Valuations of residues mod p^N; saturated residues report N."""
    vals = vals % (p ** N)
    v = np.zeros(vals.shape, dtype=np.int64)
    sat = vals == 0
    v[sat] = N
    work = vals.copy()
    active = ~sat
    for _ in range(N):
        active = active & (work % p == 0)
        if not active.any():
            break
        v[active] += 1
        work[active] //= p
    return v


def batch_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a batch of square matrices, by vectorized
    elimination with a shared column schedule."""
    A = (mats % p).astype(np.int64).copy()
    B, n, _ = A.shape
    if B == 0:
        return np.zeros(0, dtype=np.int64)
    used = np.zeros((B, n), dtype=bool)
    rank = np.zeros(B, dtype=np.int64)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    idx = np.arange(B)
    for col in range(n):
        colvals = A[:, :, col]
        cand = (colvals != 0) & ~used
        piv = cand.argmax(axis=1)
        found = cand[idx, piv]
        pivrow = A[idx, piv, :].copy()
        pivval = colvals[idx, piv]
        scale = inv[pivval % p]
        pivrow = (pivrow * scale[:, None]) % p
        write = np.where(found[:, None], pivrow, A[idx, piv, :])
        A[idx, piv, :] = write
        colvals = A[:, :, col]
        elim = (colvals != 0) & found[:, None]
        elim[idx, piv] = False
        factors = np.where(elim, colvals, 0)
        A = (A - factors[:, :, None] * pivrow[:, None, :]) % p
        used[idx, piv] |= found
        rank += found
    return rank


# ---------------------------------------------------------------------------
# Packed F_2 linear algebra: each matrix is a (n,) array of uint64 row
# bitmasks, batched as (B, n).  Valid for n <= 63.
# ---------------------------------------------------------------------------


def f2_pack(mats: np.ndarray) -> np.ndarray:
    """(B, n, n) 0/1 matrices -> (B, n) uint64 row bitmasks."""
    n = mats.shape[2]
    if n > 63:
        raise ValueError("packed F_2 kernels support n <= 63")
    weights = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    return (mats.astype(np.uint64) * weights[None, None, :]).sum(
        axis=2, dtype=np.uint64
    )


def f2_matmul(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Row-packed product A @ B over F_2: (B, n) x (B, n) -> (B, n)."""
    C = np.zeros_like(A)
    one = np.uint64(1)
    for j in range(n):
        mask = (A >> np.uint64(j)) & one
        C ^= mask * B[:, j][:, None]
    return C


def f2_add_identity(A: np.ndarray, n: int) -> np.ndarray:
    bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    return A ^ bits[None, :]


def f2_rank(rows: np.ndarray, n: int) -> np.ndarray:
    """Batched rank over F_2 of row-packed matrices."""
    rows = rows.copy()
    B = rows.shape[0]
    used = np.zeros((B, n), dtype=bool)
    rank = np.zeros(B, dtype=np.int64)
    idx = np.arange(B)
    one = np.uint64(1)
    for col in range(n):
        bit = ((rows >> np.uint64(col)) & one).astype(bool)
        cand = bit & ~used
        piv = cand.argmax(axis=1)
        found = cand[idx, piv]
        pivot_rows = np.where(found, rows[idx, piv], np.uint64(0))
        elim = bit & found[:, None]
        elim[idx, piv] = False
        rows ^= elim.astype(np.uint64) * pivot_rows[:, None]
        used[idx, piv] |= found
        rank += found
    return rank


def f2_poly_of_matrix(packed: np.ndarray, coeffs, n: int) -> np.ndarray:
    """Evaluate a monic F_2[x] polynomial at a packed matrix batch."""
    out = None
    for c in reversed(coeffs):
        if out is None:
            out = np.zeros_like(packed)
            if c % 2:
                out = f2_add_identity(out, n)
            continue
        out = f2_matmul(out, packed, n)
        if c % 2:
            out = f2_add_identity(out, n)
    return out


def f2_primary_multiplicity(mats: np.ndarray, coeffs, d: int,
                            cap_pow: int | None = None) -> np.ndarray:
    """Multiplicity of an irreducible degree-d factor F in the
    characteristic polynomial of each F_2 matrix in the batch.

    Computed as (n - rank(F(A)^K)) / d with K = 2^cap_pow.  The default
    cap takes K past the largest possible multiplicity n/d, which makes
    the generalized kernel dimension, hence the count, exact.
    """
    n = mats.shape[1]
    if cap_pow is None:
        cap_pow = max(1, (max(n // d, 1) - 1).bit_length())
    packed = f2_pack(mats)
    M = f2_poly_of_matrix(packed, coeffs, n)
    for _ in range(cap_pow):
        M = f2_matmul(M, M, n)
    r = f2_rank(M, n)
    return (n - r) // d


def fp_primary_multiplicity(mats: np.ndarray, coeffs, d: int, p: int,
                            cap_pow: int | None = None) -> np.ndarray:
    """Odd-p fallback of f2_primary_multiplicity via float32 matmuls.

    A float32 product of residues mod p is exact only while its row sums
    n * (p - 1)^2 stay within 2^24; larger inputs raise ValueError.
    """
    B, n, _ = mats.shape
    if n * (p - 1) ** 2 > MAX_FLOAT32_EXACT:
        raise ValueError(
            f"float32 kernel is inexact at n={n}, p={p}: needs n (p-1)^2 <= 2^24"
        )
    if cap_pow is None:
        cap_pow = max(1, (max(n // d, 1) - 1).bit_length())
    A = (mats % p).astype(np.float32)

    def mul(X, Y):
        return np.matmul(X, Y).astype(np.float32) % p

    eye = np.eye(n, dtype=np.float32)[None, :, :]
    out = None
    for c in reversed(list(coeffs)):
        if out is None:
            out = (c % p) * np.broadcast_to(eye, (B, n, n)).copy()
            continue
        out = mul(out, A)
        out = (out + (c % p) * eye) % p
    M = out
    for _ in range(cap_pow):
        M = mul(M, M)
    r = batch_rank_mod_p(M.astype(np.int64), p)
    return (n - r) // d


def sample_matrices(gen: np.random.Generator, B: int, n: int, p: int, N: int,
                    gl: bool = False) -> np.ndarray:
    """Uniform (B, n, n) int64 batch mod p^N; GL rejection-resamples the
    singular ones (deterministic given the stream)."""
    m = p ** N
    out = gen.integers(0, m, size=(B, n, n), dtype=np.int64)
    if not gl:
        return out
    for _ in range(10 ** 6):
        if p == 2:
            ranks = f2_rank(f2_pack(out % 2), n)
        else:
            ranks = batch_rank_mod_p(out, p)
        bad = np.flatnonzero(ranks < n)
        if bad.size == 0:
            return out
        out[bad] = gen.integers(0, m, size=(bad.size, n, n), dtype=np.int64)
    raise RuntimeError("GL rejection did not terminate")  # pragma: no cover
