"""Root census of characteristic polynomials over Z/p^N.

Run paths use two batched engines.  batch_roots finds the certified roots
in Z_q/p^k, q = p^d, of a batch of coefficient rows, where Z_q is the
unramified ring of unramified_modulus(p, d) (d = 1 is Z_p).  It runs a
worklist of residue disks, as in the root-counting tree of Kopp, Randall,
Rojas & Zhu (Math. Comp. 89, 2020): the nodes of one precision are
screened at every residue of F_q together, the roots with a unit
derivative are Newton-refined together, and the multiple ones are
Taylor-shifted, scaled and divided by their content into deeper nodes.
Roots come back in the scalar recursion's order with their precisions,
and the tree gives the pair valuations of registry._zp_stats.

batch_census finds the eigenvalue orbits in extensions of a chunk.  Each
distinct residue is factored over F_p once, and its simple factors are
counted once for all its rows.  The repeated residue factors are
Hensel-lifted as int64 rows, one batch_hensel_lift call per head step and
lift shape, from start data cached per residue.  Then batch_roots splits
the Z_p roots off the linear heads, a quadratic remainder is sorted by the
valuation of b^2 - 4c, and the other remainders and the heads of degree
d >= 2 are searched in the unramified extensions.

factor_mod_p reads a monic residue of degree k with p^k <=
FACTOR_TABLE_BUDGET from a sieve table of every monic polynomial of degree
<= k over F_p, built once per (p, degree) per process on first use; a
larger residue goes through Yun, distinct-degree and Cantor-Zassenhaus
factorization (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14),
cached per residue.  unramified_modulus reads the same table.

zp_roots, _zp_roots_raw, unramified_roots, census_of_poly and
hensel_split take one polynomial and run it as a one-row batch through
batch_roots, batch_census or _lift_rows; with classify_quadratic and
island_multiplicities they keep the names the benchmark's tracer wraps, and
no run path calls them.  The scalar recursions that the engines replaced
are their test oracles, in tests/oracles.py.

Certification is explicit: a sample whose precision budget cannot settle a
branch is flagged, never silently miscounted, and callers discard flagged
samples against a reported discard rate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .batched import (
    _unit_inverses,
    batch_divmod_monic,
    batch_hensel_lift,
    batch_valuation,
    check_modulus_budget,
)
from .padic_core import (
    PadicPoly,
    SATURATED,
    poly_add,
    poly_bezout,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
    raw_valuation,
)


class PrecisionExhausted(ArithmeticError):
    """The working precision cannot certify a root-counting branch."""


class UnsupportedPrime(ValueError):
    """Quadratic extension classification supports odd p only."""


QUAD_UNRAMIFIED = "QUAD_UNRAMIFIED"
QUAD_RAMIFIED = "QUAD_RAMIFIED"


# ---------------------------------------------------------------------------
# Factorization over F_p, on the shared coefficient-list kernel with m = p.
# ---------------------------------------------------------------------------


def _fp_gcd(a, b, p):
    """Monic gcd over F_p."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def _fp_powmod(base, e, mod, p):
    result = [1]
    base = poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _fp_derivative(a, p):
    return poly_trim([(i * c) % p for i, c in enumerate(a)][1:])


def _fp_pth_root(a, p):
    # over F_p, c^(1/p) = c, so the p-th root keeps every p-th coefficient
    return poly_trim([a[i] for i in range(0, len(a), p)])


def _fp_monic(a, p):
    a = poly_trim(a)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(x * inv) % p for x in a]


def _decode_residue(code, p, d):
    """The code-th of the p^d residue tuples (c_0, ..., c_{d-1}), base p."""
    c = []
    v = code
    for _ in range(d):
        c.append(v % p)
        v //= p
    return tuple(c)


def _squarefree_decomposition(f, p):
    """Yun decomposition over F_p: list of (monic squarefree part, mult)."""
    f = _fp_monic(f, p)
    if len(f) <= 1:
        return []
    fd = _fp_derivative(f, p)
    if not fd:
        inner = _squarefree_decomposition(_fp_pth_root(f, p), p)
        return [(g, e * p) for g, e in inner]
    out = []
    c = _fp_gcd(f, fd, p)
    w = poly_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _fp_gcd(w, c, p)
        z = poly_divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((_fp_monic(z, p), i))
        w = y
        c = poly_divmod(c, y, p)[0]
        i += 1
    if len(c) > 1:
        inner = _squarefree_decomposition(_fp_pth_root(c, p), p)
        out.extend((g, e * p) for g, e in inner)
    return out


def _distinct_degree(f, p):
    """Split a monic squarefree f into products of equal-degree factors.

    Returns a list of (product, degree d) with every irreducible factor of
    ``product`` of degree d.
    """
    out = []
    h = [0, 1]  # x
    rest = list(f)
    d = 0
    while len(rest) - 1 > 2 * d:
        d += 1
        h = _fp_powmod(h, p, rest, p)
        g = _fp_gcd(poly_sub(h, [0, 1], p), rest, p)
        if len(g) > 1:
            out.append((g, d))
            rest = poly_divmod(rest, g, p)[0]
            h = poly_divmod(h, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree_split(f, d, p):
    """Cantor-Zassenhaus split of a squarefree product of degree-d factors.

    The trial polynomials come from a deterministic sweep, so a residue
    always gets the same factorization.
    """
    n = len(f) - 1
    if n == d:
        return [f]

    def try_split(h):
        if p % 2 == 1:
            e = (p ** d - 1) // 2
            g = _fp_gcd(poly_sub(_fp_powmod(h, e, f, p), [1], p), f, p)
        else:
            # trace map over F_{2^d}
            tr = list(h)
            sq = list(h)
            for _ in range(d - 1):
                sq = _fp_powmod(sq, 2, f, p)
                tr = poly_add(tr, sq, p)
            g = _fp_gcd(tr, f, p)
        if 1 < len(g) < len(f):
            return g
        return None

    def candidates():
        # monomial sweep: over F_2 the trace components of x^j span, so
        # some monomial always splits; over odd p the affine sweep after it
        # nearly always does, and full enumeration guarantees termination
        for j in range(1, n):
            yield [0] * j + [1]
        for c in range(p):
            yield [c, 1]
        for code in range(p ** n):
            yield _decode_residue(code, p, n)

    for h in candidates():
        h = poly_trim(h)
        if len(h) <= 1:
            continue
        g = try_split(h)
        if g is not None:
            part = _fp_monic(g, p)
            rest = poly_divmod(f, part, p)[0]
            return _equal_degree_split(part, d, p) + _equal_degree_split(rest, d, p)
    raise RuntimeError("equal-degree factorization stalled")  # pragma: no cover


FACTOR_CACHE_SIZE = 4096  # residues whose factorizations are kept
# A residue of degree k is read from the sieve table while p^k is at most
# FACTOR_TABLE_BUDGET.  Measured on a 2-core Xeon (Python 3.11), building
# the table to degree k took, against the chain's cold time on the distinct
# residues of one CHUNK_TRIALS chunk of charpolys at (p, n = k):
#   2^13: 0.031 s against 1.10 s (2,923 residues);  3^8: 0.024 against 0.89 s;
#   5^5: 0.006 against 0.32 s;  7^4: 0.003 against 0.29 s.
# The build stays below the chunk's chain up to 2^17 (0.80 against 2.14 s),
# but the table's memory grows with it: 2.4 MB at 2^13, 19 MB at 2^16.
FACTOR_TABLE_BUDGET = 2 ** 13


def factor_mod_p(coeffs, p: int) -> tuple:
    """Complete monic irreducible factorization of a nonzero poly over F_p,
    as the sorted tuple ((coeffs, degree, multiplicity), ...).

    The result depends on the monic residue alone.  A residue of degree k
    with p^k <= FACTOR_TABLE_BUDGET is looked up in _factor_table; a larger
    one is factored by _factor, cached on (monic residue, p).
    """
    f = tuple(_fp_monic([int(c) % p for c in coeffs], p))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    k = len(f) - 1
    if p ** k > FACTOR_TABLE_BUDGET:
        return _factor(f, p)
    code = 0
    for c in reversed(f[:-1]):
        code = code * p + c
    return _factor_table(p, k)[k][code]


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor(f: tuple, p: int) -> tuple:
    found = {}
    for sf, mult in _squarefree_decomposition(f, p):
        for prod, d in _distinct_degree(sf, p):
            for irr in _equal_degree_split(prod, d, p):
                key = tuple(irr)
                found[key] = (len(irr) - 1, found.get(key, (0, 0))[1] + mult)
    return tuple(sorted((k, d, m) for k, (d, m) in found.items()))


_factor_tables = {}  # p -> [factorizations of the monic polys of degree k]
_factor_table_lock = threading.Lock()  # census chunks run on a thread pool


def _factor_table(p: int, n: int) -> list:
    """factor_mod_p of every monic polynomial of degree <= n over F_p: entry
    k holds the p^k factorizations of degree k in code order, the code of
    x^k + c_{k-1} x^{k-1} + ... + c_0 being c_0 + c_1 p + ... + c_{k-1}
    p^{k-1}.  Each degree is sieved once per process, under a lock."""
    table = _factor_tables.get(p)
    if table is None or len(table) <= n:
        with _factor_table_lock:
            table = _factor_tables.setdefault(p, [((),)])
            while len(table) <= n:
                table.append(_sieve_degree(table, p, len(table)))
    return table


def _sieve_degree(table: list, p: int, k: int) -> tuple:
    """The factorizations of degree k from those of lower degree.

    A composite f has an irreducible factor g of degree j <= k/2, so every
    product g h with h monic of degree k - j marks f with g and its cofactor
    h, and f's factorization is h's with g's multiplicity raised by one.  A
    polynomial that no product marks is irreducible.
    """
    deg = np.zeros(p ** k, dtype=np.int64)  # 0 while unmarked
    g_of = np.zeros(p ** k, dtype=np.int64)
    h_of = np.zeros(p ** k, dtype=np.int64)
    weights = p ** np.arange(k, dtype=np.int64)
    for j in range(1, k // 2 + 1):
        m = k - j
        h = np.arange(p ** m, dtype=np.int64)
        hc = np.ones((p ** m, m + 1), dtype=np.int64)  # monic, low first
        hc[:, :m] = h[:, None] // weights[:m] % p
        for g, fac in enumerate(table[j]):
            if len(fac) != 1 or fac[0][2] != 1:
                continue  # not irreducible
            prod = np.zeros((p ** m, k + 1), dtype=np.int64)
            for i, gi in enumerate(fac[0][0]):
                prod[:, i:i + m + 1] += gi * hc
            codes = prod[:, :k] % p @ weights
            deg[codes], g_of[codes], h_of[codes] = j, g, h
    facts = []
    for code, j, g, h in zip(range(p ** k), deg.tolist(), g_of.tolist(),
                             h_of.tolist()):
        if not j:
            facts.append(((_decode_residue(code, p, k) + (1,), k, 1),))
            continue
        rest, key = table[k - j][h], table[j][g][0][0]
        for i, (r, d, mult) in enumerate(rest):
            if r == key:
                facts.append(rest[:i] + ((r, d, mult + 1),) + rest[i + 1:])
                break
        else:
            facts.append(tuple(sorted(rest + ((key, j, 1),))))
    return tuple(facts)


# ---------------------------------------------------------------------------
# Hensel lifting of coprime residue factorizations, batched over polys.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _lift_start(residue: tuple, p: int, heads: tuple) -> tuple:
    """Start data mod p of each head step off a monic residue: (gbar,
    hbar, s, t) with gbar = F^mult, hbar the residue left after it and
    s gbar + t hbar = 1, s padded to deg hbar and t to deg gbar entries.

    They depend on the residue alone, so poly_bezout runs once per residue
    and not once per sample.
    """
    out = []
    rest = list(residue)
    for k, _, m in heads:
        gbar = [1]
        for _ in range(m):
            gbar = poly_mul(gbar, k, p)
        hbar = poly_divmod(rest, gbar, p)[0]
        s, t = poly_bezout(gbar, hbar, p)
        out.append((tuple(gbar), tuple(hbar),
                    tuple(s) + (0,) * (len(hbar) - 1 - len(s)),
                    tuple(t) + (0,) * (len(gbar) - 1 - len(t))))
        rest = hbar
    return tuple(out)


def _check_monic(polys):
    if not (polys[:, -1] == 1).all():
        raise ValueError("hensel lifting needs monic polynomials")


def _lift_rows(polys, p: int, N: int, inv, starts) -> tuple:
    """Hensel lifting of int64 rows: monic row i of polys (mod p^N)
    lifts the head steps starts[inv[i]] of _lift_start.  Returns (factors,
    cofactors): factors[j] holds each row's j-th lifted factor (zero where
    the row has fewer heads), and cofactors the monic rows left over.  Each
    head step lifts its rows with one batch_hensel_lift call per (deg F^mult,
    deg rest) shape."""
    rest = polys.copy()
    factors = []
    for j in range(max(map(len, starts), default=0)):
        rows = np.zeros_like(rest)
        shapes = {}
        for u, st in enumerate(starts):
            if len(st) > j:
                shapes.setdefault((len(st[j][0]), len(st[j][1])), []).append(u)
        for (lg, lh), group in shapes.items():
            pos = np.full(len(starts), -1)
            pos[group] = np.arange(len(group))
            idx = np.flatnonzero(pos[inv] >= 0)
            data = (np.array(col, dtype=np.int64)[pos[inv[idx]]]
                    for col in zip(*(starts[u][j] for u in group)))
            g, h = batch_hensel_lift(rest[idx, :lg + lh - 1], *data, p, N)
            rows[idx, :lg] = g
            rest[idx, :lh] = h
            rest[idx, lh:] = 0
        factors.append(rows)
    return factors, rest


def hensel_split(f: PadicPoly) -> list:
    """Split a monic f into monic factors, one per distinct irreducible
    residue factor, with the product reconstituting f exactly mod p^N:
    _lift_rows of a one-row batch.  A modulus past the int64 budget raises
    ValueError before any work."""
    polys = _int64_row(f.coeffs, f.modulus)
    _check_monic(polys)
    residue = tuple((polys[0] % f.p).tolist())
    start = _lift_start(residue, f.p, factor_mod_p(residue, f.p)[:-1])
    factors, rest = _lift_rows(polys, f.p, f.precision,
                               np.zeros(1, dtype=np.int64), [start])
    return [PadicPoly.from_ints(f.p, f.precision, g[0].tolist())
            for g in factors + [rest]]


def _int64_row(coeffs, modulus: int) -> np.ndarray:
    """Integer coefficients reduced mod modulus as a one-row int64 batch.  A
    modulus past the int64 budget of the degree raises ValueError first."""
    check_modulus_budget(max(len(coeffs) - 1, 1), modulus)
    return np.array([[c % modulus for c in coeffs]], dtype=np.int64)


# ---------------------------------------------------------------------------
# One polynomial at a time: roots by one-row batch_roots, residue islands
# and the class of a quadratic.
# ---------------------------------------------------------------------------


def _row_roots(coeffs, p: int, N: int, d: int):
    """batch_roots of one integer polynomial over Z/p^N in Z_q, q = p^d:
    (roots as (coordinate tuple, precision) pairs, ok)."""
    row = _int64_row(coeffs, p ** N)
    coords = np.zeros(row.shape + (d,), dtype=np.int64)
    coords[..., 0] = row
    found = batch_roots(coords, N, p, d)
    roots = zip(map(tuple, found.value.tolist()), found.prec.tolist())
    return list(roots), bool(found.ok[0])


def _zp_roots_raw(coeffs, p, N):
    """Certified roots of a (not necessarily monic) poly over Z/p^N.

    Returns (roots, ok): roots as (value, known_precision) pairs, ok False
    when some branch could not be certified within the precision budget.
    """
    roots, ok = _row_roots(coeffs, p, N, 1)
    return [(x, k) for (x,), k in roots], ok


def zp_roots(f: PadicPoly):
    """Certified roots of f in Z_p with their known precisions.

    Raises PrecisionExhausted when a branch cannot be settled at this
    precision; callers escalate N or discard the sample.
    """
    roots, ok = _zp_roots_raw(list(f.coeffs), f.p, f.precision)
    if not ok:
        raise PrecisionExhausted("root census not certified at this precision")
    return roots


def island_multiplicities(f: PadicPoly) -> dict:
    """Multiplicity of each irreducible residue factor of a monic f; the
    number of eigenvalues on the island of F is deg(F) * multiplicity."""
    return {k: m for k, _, m in factor_mod_p(f.coeffs, f.p)}


def classify_quadratic(g: PadicPoly) -> tuple:
    """Sort an irreducible monic quadratic x^2 + bx + c by the valuation of
    its discriminant b^2 - 4c, as (label, m).

    Even valuation 2m means the roots lie in the unramified quadratic
    extension at depth m; odd valuation 2m+1 means a ramified quadratic at
    depth m.  Odd p only.
    """
    if g.p == 2:
        raise UnsupportedPrime("quadratic classification needs odd p")
    if g.degree != 2 or not g.monic:
        raise ValueError("expected a monic quadratic")
    c, b, _ = g.coeffs
    v = raw_valuation(b * b - 4 * c, g.p, g.modulus)
    if v is SATURATED or v >= g.precision - 1:
        raise PrecisionExhausted("discriminant valuation not determined")
    if v % 2 == 0:
        return QUAD_UNRAMIFIED, v // 2
    return QUAD_RAMIFIED, (v - 1) // 2


# ---------------------------------------------------------------------------
# Roots in unramified extensions: elements are coefficient tuples on the
# basis 1, w, ..., w^{d-1} where w lifts a generator of F_{p^d}.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def unramified_modulus(p: int, d: int) -> tuple:
    """The monic degree-d lift defining the unramified extension of degree
    d: the first x^d + c_{d-1} x^{d-1} + ... + c_0 in code order that is
    irreducible over F_p, so conjugation is reproducible."""
    for code in range(p ** d):
        cand = _decode_residue(code, p, d) + (1,)
        if factor_mod_p(cand, p) == ((cand, d, 1),):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def unramified_roots(f: PadicPoly, d: int):
    """Certified roots of f in the unramified extension of degree d,
    returned as coefficient tuples on the fixed basis with their precision."""
    roots, ok = _row_roots(f.coeffs, f.p, f.precision, d)
    if not ok:
        raise PrecisionExhausted("extension root census not certified")
    return roots


# ---------------------------------------------------------------------------
# Batched roots by residue disks.  An element of Z_q/p^k, q = p^d, is an
# int64 vector of its d coordinates on the basis of unramified_modulus(p, d)
# (d = 1 is Z/p^k), and a polynomial a (L, d) block, constant term first.
# Every product of two residues is reduced mod p^k before it is added or
# reduced by the modulus polynomial, so values stay below
# p^k + (p^k - 1)^2, which check_modulus_budget bounds.
# ---------------------------------------------------------------------------


class Roots(NamedTuple):
    """The certified roots of a batch of rows, leaves of the residue-disk
    tree in the order of the scalar recursions of tests/oracles.py: by row,
    then by the residue codes chosen at each depth."""

    row: np.ndarray     # (K,) the row of each root
    value: np.ndarray   # (K, d) its coordinates
    prec: np.ndarray    # (K,) its known precision
    lcp: np.ndarray     # (K,) depth of its lowest common node with the
                        # root before it in the row, -1 for a row's first
    ok: np.ndarray      # (R,) False when some branch of the row failed


def _rmul(a, b, w, m):
    """Products in Z/m[x]/(x^d + w(x)) of broadcastable (..., d) arrays."""
    d = a.shape[-1]
    if d == 1:
        return a * b % m
    t = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            t[i + j] = (t[i + j] + a[..., i] * b[..., j] % m) % m
    for s in range(2 * d - 2, d - 1, -1):  # x^s = -x^(s-d) w(x)
        for i in range(d):
            t[s - d + i] = (t[s - d + i] - t[s] * w[i] % m) % m
    return np.stack(t[:d], axis=-1)


def _horner(f, x, w, m):
    """Values f(x) mod m of (..., L, d) polynomials at (..., d) points."""
    acc = f[..., -1, :] % m
    for i in range(f.shape[-2] - 2, -1, -1):
        acc = (_rmul(acc, x, w, m) + f[..., i, :]) % m
    return acc


def _ring_inverse(b, w, p, m):
    """Inverses mod m = p^k of units b: b^(q - 2) in F_q, then Newton
    steps y <- y (2 - b y), each doubling the p-adic precision."""
    d = b.shape[-1]
    if d == 1:
        return _unit_inverses(b, p, m)
    y = np.zeros_like(b)
    y[..., 0] = 1
    base, e = b % p, p ** d - 2
    while e:
        if e & 1:
            y = _rmul(y, base, w, p)
        base = _rmul(base, base, w, p)
        e >>= 1
    prec = 1
    while p ** prec < m:
        t = -_rmul(b, y, w, m)
        t[..., 0] += 2
        y = _rmul(y, t % m, w, m)
        prec *= 2
    return y


# (row, candidate) pairs screened at a time.  The Horner temporaries are
# (pairs, d) int64, so a block holds them to a few MB.  Blocks only split
# a batch when q = p^d is large: at p = 101, d = 2 a block is 6 rows of
# 10,201 candidates, where one 1,024-row pass would take about 0.4 GB.
SCREEN_BLOCK = 2 ** 16


def _screen(res, elems, w, p):
    """(G, q) mask of the residue roots, in code order, of (G, L, d)
    polynomials mod p."""
    q = len(elems)
    step = max(1, SCREEN_BLOCK // q)
    return np.concatenate(
        [~_horner(res[i:i + step, None], elems, w, p).any(axis=-1)
         for i in range(0, max(len(res), 1), step)])


def batch_roots(coeffs, prec, p: int, d: int = 1) -> Roots:
    """Certified roots in Z_q/p^k, q = p^d, of a batch of polynomials.

    coeffs is (R, L, d) int64, constant term first; row i is taken mod
    p^prec[i] (prec broadcasts).  A worklist of residue disks equal, root
    for root, to the scalar recursions of tests/oracles.py (_zp_roots_raw
    at d = 1, _unram_roots_raw on unramified_modulus(p, d) at d >= 2):
    nodes of one precision k are screened at every residue in code order;
    a residue root with a unit derivative is Newton-refined to p^k, and any
    other is Taylor-shifted to 0, scaled by p^i, divided by its content and
    pushed to precision k - content.  A row fails (ok False) when it is
    zero, or when a multiple residue root shifts to zero mod p^k (always so
    at k = 1).  A modulus past the int64 budget raises ValueError before
    any work.
    """
    R, L, _ = np.shape(coeffs)
    prec = np.broadcast_to(np.asarray(prec, dtype=np.int64), (R,))
    top = int(prec.max(initial=1))
    check_modulus_budget(max(L - 1, 1), p ** top)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if (prec < 1).any():
        raise ValueError("root precision must be at least 1")
    w = np.array(unramified_modulus(p, d)[:-1], dtype=np.int64)
    elems = (np.arange(p ** d)[:, None] // p ** np.arange(d)) % p
    ok = np.ones(R, dtype=bool)
    coeffs = coeffs % (p ** prec)[:, None, None]
    live = coeffs.any(axis=(1, 2))
    ok[~live] = False
    # frontier: precision k -> [(rows, depth, prefix, path, coeffs)]
    frontier = {}
    for k in set(prec[live].tolist()):
        idx = np.flatnonzero(live & (prec == k))
        frontier[k] = [(idx, np.zeros(idx.size, dtype=np.int64),
                        np.zeros((idx.size, d), dtype=np.int64),
                        np.full((idx.size, top), -1, dtype=np.int32),
                        coeffs[idx])]
    leaves = [(np.zeros(0, dtype=np.int64), np.zeros((0, d), dtype=np.int64),
               np.zeros(0, dtype=np.int64), np.zeros((0, top), dtype=np.int32))]
    for k in range(top, 0, -1):
        if k not in frontier:
            continue
        rows, depth, prefix, path, f = (np.concatenate(x) for x in
                                        zip(*frontier.pop(k)))
        m = p ** k
        node, code = np.nonzero(_screen(f % p, elems, w, p))
        rows, depth, prefix, path, f = (rows[node], depth[node], prefix[node],
                                        path[node].copy(), f[node])
        path[np.arange(node.size), depth] = code
        a = elems[code]
        df = f[:, 1:] * np.arange(1, L)[:, None] % m if L > 1 else 0 * f
        simple = _horner(df % p, a, w, p).any(axis=-1)
        if simple.any():
            x = _newton(f[simple], df[simple], a[simple], w, p, m, k)
            scale = (p ** depth[simple])[:, None]
            leaves.append((rows[simple], prefix[simple] + scale * x,
                           k + depth[simple], path[simple]))
        # a multiple root at k = 1 shifts to zero mod p and fails below,
        # the k < 2 rule of the scalar routines
        multiple = ~simple
        rows, depth, prefix, path, f, a = (
            x[multiple] for x in (rows, depth, prefix, path, f, a))
        f = _taylor_shift_rows(f, a, w, m)
        f = f * np.array([pow(p, i, m) for i in range(L)])[:, None] % m
        content = batch_valuation(f, p, k).min(axis=(1, 2))
        ok[rows[content >= k]] = False
        prefix = prefix + a * (p ** depth)[:, None]
        for c in set(content[content < k].tolist()):
            sel = content == c
            frontier.setdefault(k - c, []).append(
                (rows[sel], depth[sel] + 1, prefix[sel], path[sel],
                 f[sel] // p ** c))
    rows, value, kk, path = (np.concatenate(x) for x in zip(*leaves))
    order = np.lexsort(np.vstack([path.T[::-1], rows]))
    rows, value, kk, path = rows[order], value[order], kk[order], path[order]
    # distinct leaves of a row differ at a depth both reach, so the first
    # unequal path entry is their lowest common node's depth
    lcp = np.full(rows.size, -1, dtype=np.int64)
    same = rows[1:] == rows[:-1]
    lcp[1:][same] = (path[1:] != path[:-1]).argmax(axis=1)[same]
    return Roots(rows, value, kk, lcp, ok)


def _taylor_shift_rows(f, a, w, m):
    """f(a + x) mod m of (G, L, d) polynomials, a (G, d): in-place Horner."""
    f = f.copy()
    L = f.shape[1]
    for i in range(L - 1):
        for j in range(L - 2, i - 1, -1):
            f[:, j] = (f[:, j] + _rmul(a, f[:, j + 1], w, m)) % m
    return f


def _newton(f, df, x, w, p, m, k):
    """Refine residue roots x with unit derivatives to the roots mod
    m = p^k; each step doubles the digits known, and the root is unique."""
    x = x.copy()
    for _ in range(k + 4):
        fx = _horner(f, x, w, m)
        todo = fx.any(axis=-1)
        if not todo.any():
            break
        inv = _ring_inverse(_horner(df[todo], x[todo], w, m), w, p, m)
        x[todo] = (x[todo] - _rmul(fx[todo], inv, w, m)) % m
    return x


# ---------------------------------------------------------------------------
# The census.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """Certified eigenvalue orbits in extensions of one polynomial, as
    census_of_poly gives them.  Its Z_p roots are those of zp_roots, and
    the island counts of the matrix laws come from the batched primary
    multiplicities."""

    quad_orbits: tuple       # (label, m) per certified quadratic orbit
    unram_counts: dict       # residue degree d >= 2 -> certified eigenvalue count
    flags: frozenset         # subset of {'quad','unram'}


def census_of_poly(f: PadicPoly) -> Census:
    """The census of one monic polynomial: batch_census of a one-row batch,
    with the quadratic orbits in (label, m) order.  A modulus past the
    int64 budget raises ValueError before any work."""
    counts = batch_census(_int64_row(f.coeffs, f.modulus), f.p, f.precision)
    orbits = tuple((label, m) for label, row in zip(
        (QUAD_UNRAMIFIED, QUAD_RAMIFIED), counts.quad[0].tolist())
        for m, k in enumerate(row) for _ in range(k))
    unram = {d: k for d, k in enumerate(counts.unram[0].tolist()) if k}
    flags = frozenset(flag for flag, ok in (("quad", counts.quad_ok[0]),
                                             ("unram", counts.unram_ok[0]))
                      if not ok)
    return Census(orbits, unram, flags)


def _pair_unram_quadratic(roots, p, quad_orbits):
    """Pair conjugate roots in the degree-2 unramified ring and append one
    (QUAD_UNRAMIFIED, depth m) orbit per pair to quad_orbits.  Returns the
    number of pairs, or None (appending nothing) if pairing fails."""
    if len(roots) % 2 != 0:
        return None
    w = unramified_modulus(p, 2)
    b = w[1]  # conjugate of w is -b - w
    unpaired = list(roots)
    ms = []
    while unpaired:
        (u, v), k = unpaired.pop()
        mod = p ** k
        conj = ((u - b * v) % mod, (-v) % mod)
        match = None
        for idx, ((u2, v2), k2) in enumerate(unpaired):
            kk = min(k, k2)
            if (u2 - conj[0]) % p ** kk == 0 and (v2 - conj[1]) % p ** kk == 0:
                match = idx
                break
        if match is None:
            return None
        unpaired.pop(match)
        mv = raw_valuation(v % mod, p, mod)
        if mv is SATURATED:
            return None
        ms.append(mv)
    quad_orbits.extend((QUAD_UNRAMIFIED, m) for m in ms)
    return len(ms)


class CensusCounts(NamedTuple):
    """The census of each row of a batch, as counts."""

    quad: np.ndarray      # (B, 2, N + 1) quadratic orbits by label
                          # (0 unramified, 1 ramified) and depth m
    unram: np.ndarray     # (B, n + 1) eigenvalues by unramified degree d
    quad_ok: np.ndarray   # (B,) False where the row is flagged 'quad'
    unram_ok: np.ndarray  # (B,) False where it is flagged 'unram'


def batch_census(polys, p: int, N: int) -> CensusCounts:
    """The census of a batch of monic rows mod p^N, constant term first,
    equal row by row, in its certified orbit and root counts and its flags,
    to the scalar census_of_poly of tests/oracles.py.

    Each distinct residue is factored once, and its simple factors are
    counted once and broadcast to its rows.  The repeated factors are
    lifted as int64 rows and resolved on batch_roots: the Z_p roots of the
    linear heads are divided off with batch_divmod_monic, a quadratic
    remainder is classified by the valuation of b^2 - 4c at the remainder's
    precision, other remainders are searched at d = 2 and the heads with
    d >= 2 at d; conjugate roots are paired row by row.
    """
    m = p ** N
    B, L = np.shape(polys)
    n = L - 1
    check_modulus_budget(max(n, 1), m)
    polys = np.asarray(polys, dtype=np.int64) % m
    _check_monic(polys)
    residues, inv = np.unique(polys % p, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    residues = [tuple(r) for r in residues.tolist()]
    factors = [factor_mod_p(r, p) for r in residues]
    heads = [tuple(e for e in fac if e[2] > 1) for fac in factors]
    simple = np.zeros((len(factors), n + 1), dtype=np.int32)
    for u, fac in enumerate(factors):
        for _, d, mult in fac:
            if mult == 1 and d >= 2:
                simple[u, d] += d
    out = CensusCounts(np.zeros((B, 2, N + 1), dtype=np.int32), simple[inv],
                       np.ones(B, dtype=bool), np.ones(B, dtype=bool))
    if n >= 2:
        # an irreducible residue quadratic: an unramified orbit at depth 0
        out.quad[:, 0, 0] = out.unram[:, 2] // 2
    idx = np.flatnonzero(np.array([bool(hd) for hd in heads])[inv])
    if not idx.size:
        return out
    starts = [_lift_start(r, p, hd) if hd else ()
              for r, hd in zip(residues, heads)]
    lifted, _ = _lift_rows(polys[idx], p, N, inv[idx], starts)
    rows, gs, ds, mults = [], [], [], []
    for j, g in enumerate(lifted):
        dm = np.array([hd[j][1:] if len(hd) > j else (0, 0) for hd in heads])
        dm = dm[inv[idx]]
        has = dm[:, 0] > 0
        rows.append(idx[has])
        gs.append(g[has])
        ds.append(dm[has, 0])
        mults.append(dm[has, 1])
    rows, gs, ds, mults = (np.concatenate(x) for x in (rows, gs, ds, mults))
    lin = ds == 1
    _census_linear_heads(out, rows[lin], gs[lin], mults[lin], p, N)
    for d in sorted(set(ds[~lin].tolist())):
        sel = ds == d
        _census_unram_heads(out, rows[sel], gs[sel], p, N, d)
    return out


def _census_linear_heads(out, rows, g, mult, p, N):
    """Split the Z_p roots off lifted heads F^mult, F linear, and resolve
    the remainders as the scalar census does."""
    m = p ** N
    G, L = g.shape
    roots = batch_roots(g[:, :, None], N, p)
    out.quad_ok[rows[~roots.ok]] = False
    count = np.bincount(roots.row, minlength=G)
    prec = np.full(G, N, dtype=np.int64)
    np.minimum.at(prec, roots.row, roots.prec)
    first = np.searchsorted(roots.row, np.arange(G))
    rem = g.copy()
    for t in range(int(count.max(initial=0))):
        sel = np.flatnonzero(count > t)
        r = roots.value[first[sel] + t, 0]
        lin = np.stack([(-r) % m, np.ones_like(r)], axis=1)
        q, _ = batch_divmod_monic(rem[sel], lin, m)
        rem[sel] = 0
        rem[sel, :L - 1] = q
    deg = np.maximum(mult - count, 0)
    ok = roots.ok
    short = ok & (prec < 2) & (deg >= 2)
    out.quad_ok[rows[short]] = False
    quad = ok & ~short & (deg == 2)
    if p == 2:
        out.quad_ok[rows[quad]] = False
    else:
        mod = p ** prec[quad]
        b, c = rem[quad, 1] % mod, rem[quad, 0] % mod
        disc = (b * b - 4 * c) % mod
        v = batch_valuation(disc, p, N)
        fine = (disc != 0) & (v < prec[quad] - 1)
        out.quad_ok[rows[quad][~fine]] = False
        # even valuation 2m: unramified at depth m; odd 2m + 1: ramified
        np.add.at(out.quad, (rows[quad][fine], v[fine] % 2, v[fine] // 2), 1)
    # cubic remainders hold no quadratic orbit; the rest are searched
    pair = np.flatnonzero(ok & ~short & ((deg == 1) | (deg >= 4)))
    if pair.size:
        coords = np.zeros((pair.size, L, 2), dtype=np.int64)
        coords[:, :, 0] = rem[pair]
        found = batch_roots(coords, prec[pair], p, 2)
        out.quad_ok[rows[pair[~found.ok]]] = False
        for e, ms in _conjugate_pairs(found, p):
            if ms is None or deg[pair[e]] - 2 * len(ms) >= 2:
                out.quad_ok[rows[pair[e]]] = False
            else:
                np.add.at(out.quad, (rows[pair[e]], 0, ms), 1)


def _census_unram_heads(out, rows, g, p, N, d):
    """Count the roots of lifted heads F^mult, deg F = d >= 2, in the
    unramified extension of degree d, and at d = 2 their conjugate pairs."""
    G, L = g.shape
    coords = np.zeros((G, L, d), dtype=np.int64)
    coords[:, :, 0] = g
    roots = batch_roots(coords, N, p, d)
    out.unram_ok[rows[~roots.ok]] = False
    if d == 2:
        out.quad_ok[rows[~roots.ok]] = False
    count = np.bincount(roots.row, minlength=G)
    np.add.at(out.unram[:, d], rows[roots.ok], count[roots.ok])
    if d == 2:
        for e, ms in _conjugate_pairs(roots, p):
            if ms is None:
                out.quad_ok[rows[e]] = False
            else:
                np.add.at(out.quad, (rows[e], 0, ms), 1)


def _conjugate_pairs(roots, p):
    """(row, depths) per certified row of a d = 2 batch_roots result: the
    depth of each conjugate pair of _pair_unram_quadratic, or None when
    its pairing fails."""
    bounds = np.searchsorted(roots.row, np.arange(roots.ok.size + 1))
    value, prec = roots.value.tolist(), roots.prec.tolist()
    for e in np.flatnonzero(roots.ok).tolist():
        lo, hi = bounds[e], bounds[e + 1]
        orbits = []
        rts = [(tuple(v), k) for v, k in zip(value[lo:hi], prec[lo:hi])]
        if _pair_unram_quadratic(rts, p, orbits) is None:
            yield e, None
        else:
            yield e, [m for _, m in orbits]
