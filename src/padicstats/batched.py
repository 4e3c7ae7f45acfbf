"""Vectorized kernels for the Monte Carlo engines.

Division-free characteristic polynomials, ranks over F_p, Smith forms over
Z_p and quadratic rings of integers, packed F_2 and F_3 linear algebra and
row-wise polynomial arithmetic, each for a batch of samples.  The tests
check every kernel against a scalar one-sample implementation: the
Berkowitz recurrence, the F_p rank and the Smith eliminations are kept in
tests/oracles.py.  int64 arithmetic is safe as long as n * (p^N - 1)^2
fits; a larger modulus is refused with ValueError, by the kernel itself or,
for the row-wise polynomial kernels, by its caller.
"""

from __future__ import annotations

import numpy as np

MAX_INT64_PRODUCT = 2 ** 62
MAX_FLOAT64_EXACT = 2 ** 53  # float64 holds every integer up to this exactly
MAX_FLOAT32_EXACT = 2 ** 24  # and float32 every integer up to this


def check_modulus_budget(n: int, modulus: int):
    """Refuse a modulus whose n-term sums of products could overflow int64."""
    if n * (modulus - 1) ** 2 > MAX_INT64_PRODUCT:
        raise ValueError(
            f"modulus {modulus} too large for int64 batch kernels at n={n}"
        )


def check_quad_budget(n: int, c: int, modulus: int):
    """check_modulus_budget for products in Z/modulus[x]/(x^2 - c)."""
    check_modulus_budget(max(2 * n * (1 + c % modulus), 1), modulus)


def check_smith_budget(modulus: int, gamma: int = 0):
    """check_modulus_budget for the Smith kernels: their products stay below
    modulus^2 in the base ring and (1 + gamma) modulus^2 in Z[g]/(g^2 - gamma)."""
    check_modulus_budget(1 + gamma, modulus)


def check_float64_budget(n: int, p: int):
    """Refuse residues mod p whose n-term float64 dot products are inexact."""
    if n * (p - 1) ** 2 > MAX_FLOAT64_EXACT:
        raise ValueError(
            f"float64 kernel is inexact at n={n}, p={p}: needs n (p-1)^2 <= 2^53"
        )


def check_f2_budget(n: int):
    """Refuse matrices too wide for the packed F_2 kernels' uint64 rows."""
    if n > 63:
        raise ValueError(f"packed F_2 kernels support n <= 63, got n={n}")


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
    check_quad_budget(n, c, modulus)

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


# ---------------------------------------------------------------------------
# Polynomial rows mod p^k: (G, len) int64 coefficient arrays, constant term
# first, one polynomial per row.  Every step adds one product of two
# residues (below modulus^2) to a residue and reduces at once, so the values
# stay within modulus + (modulus - 1)^2 < 2^63 whenever
# check_modulus_budget(n, modulus) holds for some n >= 1.
# ---------------------------------------------------------------------------


def batch_poly_mul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Row-wise products: (G, la) x (G, lb) -> (G, la + lb - 1) mod modulus."""
    G, la = a.shape
    lb = b.shape[1]
    out = np.zeros((G, max(la + lb - 1, 0)), dtype=np.int64)
    for i in range(la):
        seg = out[:, i:i + lb]
        seg += a[:, i:i + 1] * b
        seg %= modulus
    return out


def _widened(a: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((a.shape[0], width), dtype=np.int64)
    out[:, :a.shape[1]] = a
    return out


def batch_poly_add(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Row-wise a + b mod modulus, zero-padded to the wider operand."""
    out = _widened(a, max(a.shape[1], b.shape[1]))
    out[:, :b.shape[1]] += b
    return out % modulus


def batch_poly_sub(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Row-wise a - b mod modulus, zero-padded to the wider operand."""
    out = _widened(a, max(a.shape[1], b.shape[1]))
    out[:, :b.shape[1]] -= b
    return out % modulus


def batch_divmod_monic(a: np.ndarray, b: np.ndarray, modulus: int) -> tuple:
    """Row-wise quotients and remainders of a (G, la) by monic divisors b
    (G, db + 1) that all have degree db: (G, max(la - db, 0)), (G, db)."""
    G, la = a.shape
    db = b.shape[1] - 1
    r = _widened(a % modulus, max(la, db))
    q = np.zeros((G, max(la - db, 0)), dtype=np.int64)
    for i in range(la - 1, db - 1, -1):
        c = r[:, i].copy()
        q[:, i - db] = c
        seg = r[:, i - db:i + 1]
        seg -= c[:, None] * b
        seg %= modulus
    return q, r[:, :db]


def _exact_quotient(a, b, modulus, what):
    q, rem = batch_divmod_monic(a, b, modulus)
    if rem.any():  # pragma: no cover
        raise AssertionError(f"{what} not exact")
    return q


def batch_hensel_lift(f: np.ndarray, g: np.ndarray, h: np.ndarray,
                      s: np.ndarray, t: np.ndarray, p: int,
                      target_exp: int) -> tuple:
    """Quadratic Hensel lifting of f = g h from mod p to mod p^target_exp,
    row by row (von zur Gathen & Gerhard, Modern Computer Algebra, Alg. 15.10).

    f: (G, n + 1) monic int64 rows; g: (G, dg + 1) and h: (G, dh + 1)
    monic residues mod p with dg + dh = n; s: (G, dh) and t: (G, dg) with
    s g + t h = 1 mod p.  Returns the monic lifts (g, h), which are unique,
    so they equal any other lift of the same residues.  The caller checks
    check_modulus_budget(n, p^target_exp): every product is then below
    (p^target_exp)^2 and every intermediate fits int64 (see above).
    """
    one = np.ones((f.shape[0], 1), dtype=np.int64)
    exp = 1
    while exp < target_exp:
        exp = min(2 * exp, target_exp)
        m = p ** exp
        # the defect vanishes mod the old modulus, so Bezout data there
        # supports one squared-modulus step; both corrections divide by h
        e = batch_poly_sub(f, batch_poly_mul(g, h, m), m)
        dh = batch_divmod_monic(batch_poly_mul(e, s, m), h, m)[1]
        # e - g dh has degree < n, so the quotient's top (x^dg) entry is 0
        dg = _exact_quotient(batch_poly_sub(e, batch_poly_mul(g, dh, m), m),
                             h, m, "hensel correction")
        g = batch_poly_add(g, dg, m)
        h = batch_poly_add(h, dh, m)
        if exp >= target_exp:
            break
        # refresh the Bezout data to the new modulus
        b = batch_poly_sub(batch_poly_add(batch_poly_mul(s, g, m),
                                          batch_poly_mul(t, h, m), m), one, m)
        s = batch_poly_sub(
            s, batch_divmod_monic(batch_poly_mul(s, b, m), h, m)[1], m)
        t = _exact_quotient(batch_poly_sub(one, batch_poly_mul(s, g, m), m),
                            h, m, "bezout refresh")
    return g, h


def batch_valuation(vals: np.ndarray, p: int, N: int) -> np.ndarray:
    """Valuations of residues mod p^N, counted as the k = 1..N with p^k
    dividing the residue; saturated residues report N."""
    vals = vals % (p ** N)
    v = np.zeros(vals.shape, dtype=np.int64)
    pk = 1
    for _ in range(N):
        pk *= p
        divides = vals % pk == 0
        if not divides.any():
            break
        v += divides
    return v


def _unit_inverses(a: np.ndarray, p: int, modulus: int) -> np.ndarray:
    """Inverses mod modulus = p^N of the units a (reduced mod modulus): the
    inverse mod p by Fermat, then Newton steps x <- x (2 - a x), each of
    which doubles the p-adic precision.  Non-units give some residue."""
    x = np.ones_like(a)
    base, e = a % p, p - 2
    while e:
        if e & 1:
            x = x * base % p
        base = base * base % p
        e >>= 1
    prec = 1
    while p ** prec < modulus:
        x = x * ((2 - a * x) % modulus) % modulus
        prec *= 2
    return x


def _pivot_to_corner(block: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Swap, per sample, row flat // k with row 0 and column flat % k with
    column 0 of a (B, k, k) block."""
    B, k, _ = block.shape
    idx = np.arange(B)
    rows = np.tile(np.arange(k), (B, 1))
    cols = rows.copy()
    rows[idx, flat // k] = 0
    rows[:, 0] = flat // k
    cols[idx, flat % k] = 0
    cols[:, 0] = flat % k
    return block[idx[:, None, None], rows[:, :, None], cols[:, None, :]]


# ---------------------------------------------------------------------------
# Smith forms over Z_p and quadratic rings of integers.  Step top pivots on
# the first entry of least valuation, in row-major order, of the trailing
# block, which is the entry the scalar eliminations of tests/oracles.py
# pick, so every sample takes their row operations and gets its parts in
# the same order.  Only the trailing block is carried, since no later step
# reads the pivot row or column.  Products stay within the bounds
# check_smith_budget checks.
# ---------------------------------------------------------------------------


def batch_smith_parts(mats: np.ndarray, p: int, N: int) -> tuple:
    """(parts (B, n), saturated (B,)) of a (B, n, n) int64 batch mod p^N,
    saturated pivots reported as N.  A trailing block that is zero mod p^N
    stays zero, so it reports N at this and every later step.  A modulus
    past check_smith_budget raises ValueError."""
    m = p ** N
    check_smith_budget(m)
    B, n, _ = mats.shape
    parts = np.empty((B, n), dtype=np.int64)
    block = mats % m
    for top in range(n):
        k = n - top
        vals = batch_valuation(block, p, N).reshape(B, k * k)
        flat = vals.argmin(axis=1)
        v = vals[np.arange(B), flat]
        parts[:, top] = v
        if k == 1:
            break
        block = _pivot_to_corner(block, flat)
        pv = p ** v
        # scale the pivot row so the pivot is p^v, then clear the column
        inv = _unit_inverses(block[:, 0, 0] // pv, p, m)
        row = block[:, 0, 1:] * inv[:, None] % m
        f = block[:, 1:, 0] // pv[:, None]
        block = (block[:, 1:, 1:] - f[:, :, None] * row[:, None, :]) % m
    return parts, parts[:, -1] == N


def batch_smith_parts_quad(U: np.ndarray, V: np.ndarray, p: int, N: int,
                           ramified: bool, gamma: int) -> tuple:
    """(parts (B, n), saturated (B,)) over Z_p[g]/(g^2 - gamma) mod p^N for
    entries U + V g: parts in uniformizer units (p unramified, g ramified),
    capped at N or 2N - 1.  A modulus past check_smith_budget raises
    ValueError."""
    m = p ** N
    check_smith_budget(m, gamma)
    cap = 2 * N - 1 if ramified else N
    B, n, _ = U.shape
    cinv = pow(gamma // p, -1, m) if ramified else 1
    parts = np.empty((B, n), dtype=np.int64)
    done = np.zeros(B, dtype=bool)
    U, V = U % m, V % m

    def mul(u1, v1, u2, v2):
        return (u1 * u2 + gamma * v1 * v2) % m, (u1 * v2 + v1 * u2) % m

    def div_uniformizer(u, v, k):
        # exact for entries of valuation >= k, as in the scalar routine
        if not ramified:
            return u // p ** k, v // p ** k
        for step in range(int(k.max(initial=0))):
            # (u + v g)/g = v + (u/p) g / (gamma/p), since g^2 = gamma
            move = step < k
            u, v = np.where(move, v, u), np.where(move, (u // p) * cinv % m, v)
        return u, v

    for top in range(n):
        k = n - top
        vu, vv = batch_valuation(U, p, N), batch_valuation(V, p, N)
        vals = np.minimum(2 * vu, 2 * vv + 1) if ramified else np.minimum(vu, vv)
        vals = np.minimum(vals, cap).reshape(B, k * k)
        flat = vals.argmin(axis=1)
        v = vals[np.arange(B), flat]
        done |= v >= cap
        parts[:, top] = np.where(done, cap, v)
        if k == 1:
            break
        U, V = _pivot_to_corner(U, flat), _pivot_to_corner(V, flat)
        v = np.where(done, 0, v)
        # scale the pivot row by the inverse of pivot / pi^v, then clear the
        # column below the pivot
        pu, pv = div_uniformizer(U[:, 0, 0], V[:, 0, 0], v)
        inv = _unit_inverses((pu * pu - gamma * pv * pv) % m, p, m)
        ru, rv = mul(U[:, 0, 1:], V[:, 0, 1:],
                     (pu * inv % m)[:, None], (-pv * inv % m)[:, None])
        fu, fv = div_uniformizer(U[:, 1:, 0], V[:, 1:, 0], v[:, None])
        su, sv = mul(fu[:, :, None], fv[:, :, None], ru[:, None, :], rv[:, None, :])
        U = (U[:, 1:, 1:] - su) % m
        V = (V[:, 1:, 1:] - sv) % m
    return parts, done


def _rank_dtype(p: int):
    """The narrowest signed integer type that holds one elimination step of
    batch_rank_mod_p: a residue plus a product of residues, (p - 1) p."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if (p - 1) * p <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"p = {p} too large for the F_p rank kernel")


def _residues(mats: np.ndarray, p: int) -> np.ndarray:
    """mats mod p, or mats itself when every entry already lies in [0, p)."""
    if mats.size and (mats.min() < 0 or mats.max() >= p):
        return mats % p
    return mats


def _packs(p: int, n: int) -> bool:
    """Whether batch_rank_mod_p ranks n x n matrices over F_p on packed
    rows rather than by elimination."""
    return p <= 3 and n <= 63


def batch_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a batch of square matrices, integer or float
    entries.

    At p <= 3 and n <= 63 the rows are packed as bits and ranked by f2_rank
    or f3_rank.  Otherwise the rank is a vectorized elimination with a
    shared column schedule: step col eliminates with the pivot in the rows
    not yet used as pivots, and only in the trailing columns col+1.., since
    no later step reads column col.  The elimination runs in _rank_dtype(p),
    and entries are reduced mod p lazily: each step adds at most (p - 1)^2
    to their magnitude, and the trailing block is reduced only when the
    next update could pass the type's largest value.
    """
    B, n, _ = mats.shape
    mats = _residues(mats, p)
    if _packs(p, n):
        if p == 2:
            return f2_rank(f2_pack(mats), n)
        return f3_rank(f2_pack(mats != 0), f2_pack(mats == 2), n)
    dtype = _rank_dtype(p)
    limit = np.iinfo(dtype).max
    # T[b, j, i] = A[b, i, j], so column j of A is the contiguous T[:, j]
    T = mats.transpose(0, 2, 1).astype(dtype, order="C")
    used = np.zeros((B, n), dtype=bool)
    rank = np.zeros(B, dtype=np.int64)
    idx = np.arange(B)
    step = (p - 1) ** 2
    bound = p - 1  # every |entry| of the trailing block is at most this
    for col in range(n):
        colvals = T[:, col] % p
        cand = (colvals != 0) & ~used
        piv = cand.argmax(axis=1)
        found = cand[idx, piv]
        rank += found
        used[idx, piv] |= found
        if col == n - 1 or not found.any():
            continue
        scale = _unit_inverses(colvals[idx, piv], p, p)
        factors = np.where(used, 0, colvals * scale[:, None] % p)
        rest = T[:, col + 1:]
        if bound + step > limit:
            rest %= p
            bound = p - 1
        pivrow = rest[idx, :, piv] % p
        rest -= pivrow[:, :, None] * factors[:, None, :]
        bound += step
    return rank


# ---------------------------------------------------------------------------
# Packed F_2 and F_3 linear algebra: each matrix over F_2 is a (n,) array
# of uint64 row bitmasks, batched as (B, n).  Valid for n <= 63.  Products
# are 4-bit Four-Russians products (M4RM: Albrecht, Bard & Hart, "Algorithm
# 910: M4RI", ACM TOMS 37, 2010), and the p = 2 island law draws its
# matrices straight as bits (sample_f2_matrices), so they stay in bits from
# the draw to the rank.  A matrix over F_3 is bitsliced into two such
# arrays, nz (entry != 0) and neg (entry = 2, within nz), so a row
# operation is a few word operations on 63 entries at once (Boothby &
# Bradshaw, "Bitslicing and the Method of Four Russians Over Larger Finite
# Fields", arXiv:0901.1413).
# ---------------------------------------------------------------------------


def f2_pack(mats: np.ndarray) -> np.ndarray:
    """(B, n, n) matrices over F_2 -> (B, n) uint64 row bitmasks; an entry
    is 1 when it is nonzero, so pass residues mod 2 or booleans."""
    B, rows, n = mats.shape
    check_f2_budget(n)
    # bit j of row i is entry (i, j): little-endian bytes of one uint64;
    # packbits runs fastest on one-byte booleans
    packed = np.zeros((B, rows, 8), dtype=np.uint8)
    packed[:, :, : (n + 7) // 8] = np.packbits(
        mats.astype(bool, copy=False), axis=2, bitorder="little")
    return packed.view("<u8")[:, :, 0].astype(np.uint64, copy=False)


def f2_matmul(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Row-packed product A @ B over F_2: (B, n) x (B, n) -> (B, n).

    Row i of A @ B is the XOR of the rows j of B whose bit j of A[i] is
    set.  For each sample, T[g, k, sample] is the XOR of the rows 4g + t
    of B over the bits t of k, so row i of the product is the XOR over g
    of T[g, (A[i] >> 4g) & 15, sample].
    """
    size = A.shape[0]
    groups = (n + 3) // 4
    rows = np.zeros((groups * 4, size), dtype=np.uint64)
    rows[:n] = B.T
    rows = rows.reshape(groups, 4, size)
    T = np.empty((groups, 16, size), dtype=np.uint64)
    T[:, 0] = 0
    for k in range(1, 16):
        low = k & -k  # T[k] = T[k without its lowest bit] ^ that bit's row
        np.bitwise_xor(T[:, k ^ low], rows[:, low.bit_length() - 1],
                       out=T[:, k])
    table = T.reshape(-1)
    sample = np.arange(size, dtype=np.intp)[:, None]
    bits = A.view(np.int64)  # n <= 63 leaves the sign bit clear
    idx = np.empty(A.shape, dtype=np.intp)
    C = np.zeros_like(A)
    for g in range(groups):
        np.right_shift(bits, 4 * g, out=idx)
        idx &= 15
        idx *= size
        idx += sample + g * 16 * size
        C ^= table.take(idx)
    return C


def f2_add_identity(A: np.ndarray, n: int) -> np.ndarray:
    bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    return A ^ bits[None, :]


def f2_rank(rows: np.ndarray, n: int) -> np.ndarray:
    """Batched rank over F_2 of row-packed (B, n) matrices.

    Row i, already cleared by the pivots of rows 0..i-1, pivots on its
    lowest set bit, which is then cleared from rows i+1.. only.  Of the
    rows i.., row i alone holds its pivot bit, so the nonzero rows left are
    independent; they span the row space, so they count the rank.
    """
    # R[i] holds row i of every matrix, so each step reads contiguous rows
    R = rows.T.copy()
    one = np.uint64(1)
    for i in range(n - 1):
        piv = R[i]
        low = piv & (~piv + one)  # the lowest set bit; 0 for a zero row
        rest = R[i + 1:]
        rest ^= ((rest & low) != 0) * piv
    return np.count_nonzero(R, axis=0)


def f3_rank(nz: np.ndarray, neg: np.ndarray, n: int) -> np.ndarray:
    """Batched rank over F_3 of bitsliced (B, n) matrices: bit j of nz[b, i]
    is set when entry (i, j) is nonzero, and of neg[b, i] when it is 2.

    The elimination is f2_rank's: row i pivots on its lowest set bit, and
    each row r below it that holds a value v there becomes r - v row_i,
    with row_i scaled so its pivot is 1.
    """
    N, S = nz.T.copy(), neg.T.copy()
    one = np.uint64(1)
    for i in range(n - 1):
        pn = N[i]
        low = pn & (~pn + one)  # the lowest set bit; 0 for a zero row
        ps = S[i] ^ ((S[i] & low) != 0) * pn  # row i scaled to pivot 1
        # pn has no bit below low, so low * (pn // low) is pn again; the
        # planes of row i and -row i, divided so: a zero row divides by 1
        shift = low | (pn == 0)
        a, a_neg = pn // shift, (ps ^ pn) // shift
        rn, rs = N[i + 1:], S[i + 1:]
        hit, two = rn & low, rs & low  # v != 0 and v = 2, as low or 0
        # add -v row_i: -row_i where v = 1, row_i where v = 2, else 0
        qs = hit * a_neg
        qs ^= two * a
        f3_add(rn, rs, hit * a, qs)
    return np.count_nonzero(N, axis=0)


def f3_add(xn: np.ndarray, xs: np.ndarray, yn: np.ndarray,
           ys: np.ndarray):
    """x += y over F_3 entry by entry, in place, on bitsliced words (nz, neg):
    with both = xn & yn, the sum's nz is both ^ ((xn ^ yn) | (xs ^ ys)) and
    its neg is both ^ (xs | ys).  x - y is x + (yn, ys ^ yn)."""
    both = xn & yn
    xn ^= yn
    xn |= xs ^ ys
    xn ^= both
    xs |= ys
    xs ^= both


def f2_poly_of_matrix(packed: np.ndarray, coeffs, n: int) -> np.ndarray:
    """Evaluate a monic F_2[x] polynomial (coefficients low degree first,
    degree >= 1) at a packed matrix batch, by Horner from A + c_{d-1} I."""
    *low, lead = coeffs
    if lead % 2 != 1 or not low:
        raise ValueError("expected a monic polynomial of degree >= 1")
    out = f2_add_identity(packed, n) if low[-1] % 2 else packed.copy()
    for c in reversed(low[:-1]):
        out = f2_matmul(out, packed, n)
        if c % 2:
            out = f2_add_identity(out, n)
    return out


def f2_primary_multiplicity(mats: np.ndarray, coeffs, d: int,
                            cap_pow: int) -> np.ndarray:
    """Multiplicity of an irreducible degree-d factor F in the
    characteristic polynomial of each F_2 matrix in the batch.

    Computed as (n - rank(F(A)^K)) / d with K = 2^cap_pow.  A cap that
    takes K to the largest possible multiplicity n/d or past it makes the
    generalized kernel dimension, hence the count, exact.
    """
    n = mats.shape[1]
    packed = f2_pack(mats)
    M = f2_poly_of_matrix(packed, coeffs, n)
    for _ in range(cap_pow):
        M = f2_matmul(M, M, n)
    r = f2_rank(M, n)
    return (n - r) // d


def _fp_dtype(n: int, p: int):
    """The float type _fp_poly_power runs in: float32 while a product of
    n x n factors reduced mod p is exact in it, n (p - 1)^2 <= 2^24, and
    float64 otherwise, up to check_float64_budget's 2^53."""
    return np.float32 if n * (p - 1) ** 2 <= MAX_FLOAT32_EXACT else np.float64


def float_mod_inplace(X: np.ndarray, p: int,
                      scratch: np.ndarray) -> np.ndarray:
    """X %= p for float32 integers 0 <= X <= 2^24 or float64 integers
    0 <= X <= 2^53, in place.

    scratch is an array of X's shape and type whose contents are discarded.
    The rounded quotient X / p is within one of the exact one, so a pass
    of X -= p floor(X / p) leaves X within one step of its residue
    (-p < X < 2p), and a second pass over those small values is exact.
    """
    for _ in range(2):
        np.divide(X, p, out=scratch)
        np.floor(scratch, out=scratch)
        scratch *= p
        X -= scratch
    return X


def _fp_poly_power(mats: np.ndarray, low: list, p: int,
                   cap_pow: int) -> np.ndarray:
    """F(A)^(2^cap_pow) mod p in _fp_dtype(n, p), for monic
    F = x^d + sum low[i] x^i.

    A product of n x n factors with entries up to a and b has entries up to
    n a b, so entries are reduced mod p only when the next product could
    pass the type's exact bound, 2^24 in float32 and 2^53 in float64;
    _fp_dtype and check_float64_budget(n, p) make a product of reduced
    factors exact.  Each product is written to a second buffer, and a
    reduction uses that buffer as scratch, so no step allocates a
    full-size array.  An input with an entry outside [0, p) is reduced mod
    p in its own type before the cast, and at d = 1 A itself becomes the
    Horner result, since no product reads it.
    """
    n = mats.shape[1]
    dtype = _fp_dtype(n, p)
    exact = MAX_FLOAT32_EXACT if dtype is np.float32 else MAX_FLOAT64_EXACT
    A = _residues(mats, p).astype(dtype)
    diag = np.arange(n)
    # Horner from A + c_{d-1} I; the diagonal is reduced after each + c I
    M = A.copy() if len(low) > 1 else A
    M[:, diag, diag] = (M[:, diag, diag] + low[-1]) % p
    S = np.empty_like(M)
    top = p - 1  # every entry of M is at most this

    def reduce():
        float_mod_inplace(M, p, scratch=S)
        return p - 1

    for c in reversed(low[:-1]):
        if n * top * (p - 1) > exact:
            top = reduce()
        np.matmul(M, A, out=S)
        M, S = S, M
        top *= n * (p - 1)
        M[:, diag, diag] = (M[:, diag, diag] % p + c) % p
    for _ in range(cap_pow):
        if n * top * top > exact:
            top = reduce()
        np.matmul(M, M, out=S)
        M, S = S, M
        top *= n * top
    if top >= p:
        reduce()
    return M


def fp_primary_multiplicity(mats: np.ndarray, coeffs, d: int, p: int,
                            cap_pow: int) -> np.ndarray:
    """Odd-p counterpart of f2_primary_multiplicity via float matmuls.

    A float product of residues mod p is exact while its row sums
    n * (p - 1)^2 stay within 2^24 in float32 or 2^53 in float64; the
    powers run in float32 up to 2^24 and in float64 beyond it, and inputs
    past 2^53 raise ValueError.
    """
    B, n, _ = mats.shape
    check_float64_budget(n, p)
    *low, lead = [c % p for c in coeffs]
    if lead != 1 or not low:
        raise ValueError("expected a monic polynomial of degree >= 1")
    M = _fp_poly_power(mats, low, p, cap_pow)
    if not _packs(p, n):
        # the elimination copies its input: free the float buffer first
        M = M.astype(_rank_dtype(p))
    return (n - batch_rank_mod_p(M, p)) // d


def sample_f2_matrices(gen: np.random.Generator, B: int, n: int) -> np.ndarray:
    """Uniform (B, n, n) boolean batch over F_2, entry for entry equal to
    gen.integers(0, 2, (B, n, n), dtype=np.int64) != 0.

    numpy's bounded sampler draws one 32-bit word per entry for a range of
    2 and returns its top bit, with no rejection; drawing the words
    outright gives the same bits from the same stream without an int64
    array.  tests/test_matrix_lab.py pins this identity.  The generator
    keeps its place between calls, so batches drawn one after another
    continue the same stream: slices of B1, B2, ... matrices are, entry for
    entry, the first B1 + B2 + ... of one larger draw.
    """
    return gen.integers(0, 2 ** 32, size=(B, n, n), dtype=np.uint32) >= 2 ** 31


def sample_matrices(gen: np.random.Generator, B: int, n: int, p: int, N: int,
                    gl: bool = False) -> np.ndarray:
    """Uniform (B, n, n) int64 batch mod p^N; GL rejection-resamples the
    singular ones (deterministic given the stream).  A row that is
    invertible stays so, so each round ranks only the rows it redrew."""
    m = p ** N
    out = gen.integers(0, m, size=(B, n, n), dtype=np.int64)
    if not gl:
        return out
    bad = np.arange(B)
    for _ in range(10 ** 6):
        bad = bad[batch_rank_mod_p(out[bad], p) < n]
        if bad.size == 0:
            return out
        out[bad] = gen.integers(0, m, size=(bad.size, n, n), dtype=np.int64)
    raise RuntimeError("GL rejection did not terminate")  # pragma: no cover
