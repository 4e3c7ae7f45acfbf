"""Scalar reference implementations of the package's batched kernels.

Each routine here does one sample's work with plain ints and coefficient
lists; no run path calls them.  The tests compare the engines against
them:

- berkowitz_charpoly and det_mod against batched.batch_charpoly,
  batch_charpoly_quad and batch_det, over Z/m or over QuotientRing, the
  ring Z/p^N[x]/(Z); resultant and discriminant against
  root_census.classify_quadratic;
- _rank_mod_p against batched.batch_rank_mod_p, smith_parts_raw and
  smith_parts_quadratic against batched.batch_smith_parts and
  batch_smith_parts_quad;
- _zp_roots_raw and _unram_roots_raw, the recursive residue refinements,
  against root_census.batch_roots root for root, and census_of_poly with
  _lift_factors against root_census.batch_census row by row.

The package keeps the names that its tracer wraps (zp_roots,
_zp_roots_raw, unramified_roots, census_of_poly, hensel_split,
smith_parts_raw, smith_parts_quadratic, det_mod) as one-row facades over
the engines; the scalar versions of those names live here.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from padicstats.batched import check_modulus_budget
from padicstats.padic_core import (
    PadicPoly,
    SATURATED,
    poly_bezout,
    poly_divmod,
    poly_mul,
    poly_trim,
    raw_valuation,
)
from padicstats.root_census import (
    Census,
    PrecisionExhausted,
    QUAD_UNRAMIFIED,
    UnsupportedPrime,
    _check_monic,
    _decode_residue,
    _lift_rows,
    _lift_start,
    _pair_unram_quadratic,
    classify_quadratic,
    factor_mod_p,
    unramified_modulus,
)


# ---------------------------------------------------------------------------
# Residues, division-free linear algebra and quotient rings over Z/p^N.
#
# Z/p^N and its monic quotient rings have zero divisors, so Gaussian
# elimination and remainder sequences are unsound there.  The Samuelson-
# Berkowitz recurrence computes characteristic polynomials using ring
# addition and multiplication only.
# ---------------------------------------------------------------------------


class NonUnitDivision(ArithmeticError):
    """Division in Z/p^N is defined only by units."""


def inverse_mod(value: int, p: int, modulus: int) -> int:
    """Inverse of a unit in Z/p^N.  Raises NonUnitDivision otherwise."""
    if value % p == 0:
        raise NonUnitDivision(f"{value} is not a unit mod {p}^N")
    return pow(value, -1, modulus)


def berkowitz_charpoly(entries, add, mul, neg, zero, one):
    """Characteristic polynomial det(xI - A) over a commutative ring.

    ``entries`` is a square list-of-lists of ring elements; the ring is
    described by the supplied operations.  Returns the coefficient list
    [c_n, ..., c_0] ordered from the leading (monic) coefficient down to
    the constant term.
    """
    n = len(entries)
    coeffs = [one]
    for k in range(1, n + 1):
        a = entries[k - 1][k - 1]
        row = entries[k - 1][:k - 1]
        col = [entries[i][k - 1] for i in range(k - 1)]
        # t[j] coefficients of the Toeplitz factor: 1, -a, -R S, -R M S, ...
        t = [one, neg(a)]
        vec = col
        for j in range(2, k + 1):
            acc = zero
            for r, v in zip(row, vec):
                acc = add(acc, mul(r, v))
            t.append(neg(acc))
            if j < k:
                vec = [
                    _dot(entries[i][:k - 1], vec, add, mul, zero)
                    for i in range(k - 1)
                ]
        new = []
        for i in range(k + 1):
            acc = zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc = add(acc, mul(t[i - j], coeffs[j]))
            new.append(acc)
        coeffs = new
    return coeffs


def _dot(xs, ys, add, mul, zero):
    acc = zero
    for x, y in zip(xs, ys):
        acc = add(acc, mul(x, y))
    return acc


def det_mod(entries, modulus: int) -> int:
    """Determinant of an integer matrix in Z/modulus, division-free."""
    n = len(entries)
    if n == 0:
        return 1 % modulus
    coeffs = berkowitz_charpoly(
        entries,
        add=lambda x, y: (x + y) % modulus,
        mul=lambda x, y: (x * y) % modulus,
        neg=lambda x: (-x) % modulus,
        zero=0,
        one=1 % modulus,
    )
    # charpoly(0) = (-1)^n det(A)
    det = coeffs[-1] if n % 2 == 0 else -coeffs[-1]
    return det % modulus


def poly_horner(a, x: int, m: int) -> int:
    """The value of a at x in Z/m."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def resultant(f: PadicPoly, g: PadicPoly) -> int:
    """Resultant of f and g over Z/p^N: the residue mod p^N of their
    Sylvester determinant, computed division-free.  Its valuation measures
    the p-adic distance between the root sets of f and g.
    """
    m = f.modulus
    if not f.coeffs or not g.coeffs:
        return 0
    d1, d2 = f.degree, g.degree
    if d1 == 0:
        return pow(f.coeffs[0], d2, m)
    if d2 == 0:
        return pow(g.coeffs[0], d1, m)
    size = d1 + d2
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = []
    for i in range(d2):
        rows.append([0] * i + fc + [0] * (size - d1 - 1 - i))
    for i in range(d1):
        rows.append([0] * i + gc + [0] * (size - d2 - 1 - i))
    return det_mod(rows, m)


def discriminant(f: PadicPoly) -> int:
    """Discriminant (-1)^{d(d-1)/2} Res(f, f') / lc(f) as a residue mod
    p^N.  A leading coefficient that is not a unit raises NonUnitDivision."""
    if f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    m = f.modulus
    inv = inverse_mod(f.coeffs[-1], f.p, m)
    deriv = PadicPoly(f.p, f.precision, tuple(i * c for i, c in enumerate(f.coeffs))[1:])
    d = f.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, deriv) * inv % m


class QuotientRing:
    """Z/p^N[x] modulo a monic polynomial Z; elements are coefficient
    tuples of length deg Z on the basis 1, x, ..., x^(deg Z - 1)."""

    def __init__(self, p: int, precision: int, modpoly):
        self.p = p
        self.precision = precision
        self.modulus = p ** precision
        self.modpoly = tuple(poly_trim(c % self.modulus for c in modpoly))
        if not self.modpoly or self.modpoly[-1] != 1:
            raise ValueError("quotient modulus must be monic")
        self.deg = len(self.modpoly) - 1
        self.zero = (0,) * self.deg
        self.one = self.coerce(1)

    def add(self, a, b):
        m = self.modulus
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b):
        m = self.modulus
        return tuple((x - y) % m for x, y in zip(a, b))

    def mul(self, a, b):
        m = self.modulus
        rem = poly_divmod(poly_mul(a, b, m), self.modpoly, m)[1]
        return tuple(rem) + (0,) * (self.deg - len(rem))

    def coerce(self, a):
        """An element from an int or a coefficient sequence."""
        if isinstance(a, int):
            a = (a,)
        vals = [int(x) % self.modulus for x in a]
        if len(vals) > self.deg:
            raise ValueError("entry exceeds quotient degree")
        return tuple(vals + [0] * (self.deg - len(vals)))

    def val(self, a):
        """Least coefficient valuation; SATURATED for the zero element."""
        vals = [raw_valuation(x, self.p, self.modulus) for x in a]
        finite = [v for v in vals if v is not SATURATED]
        return min(finite) if finite else SATURATED

    def inverse(self, a):
        """Inverse of a unit: Bezout over F_p, then Newton lifting."""
        if not any(x % self.p for x in a):
            raise ZeroDivisionError("not a unit")
        s, _ = poly_bezout(a, self.modpoly, self.p)
        x = self.coerce(s)
        # x <- x (2 - a x) doubles the number of correct digits
        two = self.coerce(2)
        for _ in range(max(1, (self.precision - 1).bit_length() + 1)):
            x = self.mul(x, self.sub(two, self.mul(a, x)))
        return x


# ---------------------------------------------------------------------------
# Ranks over F_p and Smith forms over Z_p and quadratic rings of integers.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Hensel lifting, certified roots by recursive residue refinement, and the
# census of one polynomial.  Unramified elements are coefficient tuples on
# the basis 1, w, ..., w^{d-1} where w lifts a generator of F_{p^d}.
# ---------------------------------------------------------------------------


def _lift_factors(polys, p: int, N: int, heads) -> tuple:
    """Hensel-lift the given residue factors off a batch of monic polys.

    ``polys`` holds equal-length coefficient rows over Z/p^N, constant
    term first, and heads[i] distinct (F, d, mult) entries of row i's
    residue factorization.  Returns (lifted, cofactors): lifted[i] holds
    one (monic factor, d, mult) per entry, the factor reducing to F^mult
    mod p; cofactors[i] is the int64 row of the monic cofactor that
    completes the product to the poly exactly mod p^N.
    Each head step lifts its rows with one int64 kernel call per
    (deg F^mult, deg rest) group; a modulus past that kernel's budget
    raises ValueError before any work.
    """
    check_modulus_budget(max(len(polys[0]) - 1, 1), p ** N)
    polys = np.array(polys, dtype=np.int64) % p ** N
    _check_monic(polys)
    keys = {}
    inv = np.array([keys.setdefault((tuple(r), tuple(hd)), len(keys))
                    for r, hd in zip((polys % p).tolist(), heads)],
                   dtype=np.int64)
    starts = [_lift_start(r, p, hd) if hd else () for r, hd in keys]
    factors, rest = _lift_rows(polys, p, N, inv, starts)
    lifted = [[(PadicPoly.from_ints(p, N, rows[i].tolist()), d, m)
               for rows, (_, d, m) in zip(factors, hd)]
              for i, hd in enumerate(heads)]
    return lifted, rest


def _taylor_shift(coeffs, a, m):
    """Coefficients of f(a + x) mod m, by the in-place Horner shift."""
    res = [c % m for c in coeffs]
    n = len(res)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            res[j] = (res[j] + a * res[j + 1]) % m
    return res


def _newton_refine(coeffs, dcoeffs, p, N, x0):
    """Refine a root whose residue x0 has a unit derivative to p^N."""
    modulus = p ** N
    x = x0 % modulus
    for _ in range(N + 4):
        fx = poly_horner(coeffs, x, modulus)
        if fx == 0:
            break
        fpx = poly_horner(dcoeffs, x, modulus)
        step = (fx * inverse_mod(fpx, p, modulus)) % modulus
        if step == 0:
            break
        x = (x - step) % modulus
    return x


def _zp_roots_raw(coeffs, p, N):
    """Certified roots of a (not necessarily monic) poly over Z/p^N.

    Returns (roots, ok): roots as (value, known_precision) pairs, ok False
    when some branch could not be certified within the precision budget.
    """
    modulus = p ** N
    coeffs = [c % modulus for c in coeffs]
    if all(c == 0 for c in coeffs):
        return [], False
    dcoeffs = [(i * c) % modulus for i, c in enumerate(coeffs)][1:]
    roots = []
    ok = True
    for a in range(p):
        if poly_horner(coeffs, a, p) != 0:
            continue
        fpa = poly_horner(dcoeffs, a, modulus)
        # a unit derivative certifies exactly one root in the whole class
        # a + pZ_p; any weaker certificate can miss a second root hiding
        # deeper in the same class, so everything else recurses
        if fpa % p != 0:
            root = _newton_refine(coeffs, dcoeffs, p, N, a)
            roots.append((root, N))
            continue
        if N < 2:
            # a vanishing residue with non-unit derivative cannot be
            # refined further at one digit of precision
            ok = False
            continue
        # unresolved: refine the residue disk a + pZ_p
        shifted = _taylor_shift(coeffs, a, modulus)
        scaled = [(c * pow(p, i, modulus)) % modulus for i, c in enumerate(shifted)]
        vals = [raw_valuation(c, p, modulus) for c in scaled]
        finite = [v for v in vals if v is not SATURATED]
        if not finite:
            ok = False
            continue
        content = min(finite)
        sub_n = N - content
        if sub_n < 1:
            ok = False
            continue
        sub = [c // p ** content for c in scaled]
        sub_roots, sub_ok = _zp_roots_raw(sub, p, sub_n)
        ok = ok and sub_ok
        for r, k in sub_roots:
            prec = min(N, k + 1)
            roots.append(((a + p * r) % p ** prec, prec))
    return roots, ok


def zp_roots(f: PadicPoly):
    """Certified roots of f in Z_p with their known precisions.

    Raises PrecisionExhausted when a branch cannot be settled at this
    precision; callers escalate N or discard the sample.
    """
    roots, ok = _zp_roots_raw(list(f.coeffs), f.p, f.precision)
    if not ok:
        raise PrecisionExhausted("root census not certified at this precision")
    return roots


def _unram_poly_eval(coeffs, x, ring):
    acc = ring.zero
    for c in reversed(coeffs):
        acc = ring.add(ring.mul(acc, x), c)
    return acc


class _ResidueField:
    """F_q = F_p[x]/(Z mod p), q = p^d, by Zech logarithms (Lidl &
    Niederreiter, *Finite Fields*, 2.5).

    An element is coded as sum c_j p^j over its coordinates, the order of
    _decode_residue.  For a primitive g, log[code] is the k with g^k equal
    to the element (None for 0), and zech[k] is the log of 1 + g^k (None
    when that is 0), so g^x + g^y = g^(y + zech[x - y]) is one lookup.  Each
    table has O(q) entries.
    """

    def __init__(self, p: int, modres: tuple):
        d = len(modres) - 1
        q = p ** d
        self.p, self.q1 = p, q - 1
        self.weights = [p ** j for j in range(d)]
        for cand in range(1, q):  # the first primitive element in code order
            g = _decode_residue(cand, p, d)
            antilog, e = [], [1]
            for _ in range(q - 1):
                antilog.append(self.code(e))
                e = poly_divmod(poly_mul(e, g, p), modres, p)[1]
            if len(set(antilog)) == q - 1:
                break
        else:
            raise ValueError(f"{modres} is not irreducible mod {p}")
        self.log = [None] * q
        for k, c in enumerate(antilog):
            self.log[c] = k
        # 1 + g^k: add one to the constant coordinate
        self.zech = [self.log[c - c % p + (c + 1) % p] for c in antilog]

    def code(self, c) -> int:
        return sum((x % self.p) * w for x, w in zip(c, self.weights))

    def logs(self, coeffs) -> list:
        """The log of each coefficient's residue, None for a zero one."""
        log = self.log
        return [log[self.code(c)] for c in coeffs]

    def value(self, logs, code):
        """A log of f(a), None when f(a) = 0: f given by its coefficient
        logs, a by its code."""
        if code == 0:
            return logs[0] if logs else None
        alpha, q1, zech = self.log[code], self.q1, self.zech
        acc = None
        for lc in reversed(logs):  # Horner: acc <- acc a + c
            if acc is not None:
                acc += alpha
            if lc is None:
                continue
            if acc is None:
                acc = lc
            else:
                z = zech[(acc - lc) % q1]
                acc = None if z is None else lc + z
        return acc

    def roots(self, logs) -> list:
        """Codes of the roots in F_q of a residue poly, in code order."""
        return [code for code in range(self.q1 + 1)
                if self.value(logs, code) is None]


@lru_cache(maxsize=None)
def _residue_field(p: int, modres: tuple) -> _ResidueField:
    return _ResidueField(p, modres)


def _unram_taylor_shift(coeffs, a, ring):
    res = list(coeffs)
    n = len(res)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            res[j] = ring.add(res[j], ring.mul(a, res[j + 1]))
    return res


def _unram_roots_raw(coeffs, ring):
    """Certified roots of a poly with coefficients in an unramified ring.

    Only the residue of the poly decides which residues a can be roots and
    which have a unit derivative, so both screens run in F_{p^d}.
    """
    p, N, d = ring.p, ring.precision, ring.deg
    if all(all(x == 0 for x in c) for c in coeffs):
        return [], False
    dcoeffs = [tuple((i * x) % ring.modulus for x in c) for i, c in enumerate(coeffs)][1:]
    field = _residue_field(p, tuple(x % p for x in ring.modpoly))
    dlogs = field.logs(dcoeffs)
    roots = []
    ok = True
    for code in field.roots(field.logs(coeffs)):
        a = _decode_residue(code, p, d)
        # unit derivative: exactly one root in the residue class (see the
        # base-ring variant for why weaker certificates undercount)
        if field.value(dlogs, code) is not None:
            root = _unram_newton(coeffs, dcoeffs, a, ring)
            roots.append((root, N))
            continue
        if N < 2:
            ok = False
            continue
        shifted = _unram_taylor_shift(coeffs, a, ring)
        scaled = [
            tuple((x * pow(p, i, ring.modulus)) % ring.modulus for x in c)
            for i, c in enumerate(shifted)
        ]
        vals = [ring.val(c) for c in scaled]
        finite = [v for v in vals if v is not SATURATED]
        if not finite:
            ok = False
            continue
        content = min(finite)
        sub_n = N - content
        if sub_n < 1:
            ok = False
            continue
        sub_ring = QuotientRing(p, sub_n, ring.modpoly)
        sub = [
            tuple(x // p ** content % sub_ring.modulus for x in c) for c in scaled
        ]
        sub_roots, sub_ok = _unram_roots_raw(sub, sub_ring)
        ok = ok and sub_ok
        for r, k in sub_roots:
            prec = min(N, k + 1)
            mod = p ** prec
            comp = tuple((x + p * y) % mod for x, y in zip(a, r))
            roots.append((comp, prec))
    return roots, ok


def _unram_newton(coeffs, dcoeffs, x0, ring):
    """Refine a root whose residue x0 has a unit derivative to full precision."""
    x = x0
    for _ in range(ring.precision + 4):
        fx = _unram_poly_eval(coeffs, x, ring)
        if all(v == 0 for v in fx):
            break
        step = ring.mul(fx, ring.inverse(_unram_poly_eval(dcoeffs, x, ring)))
        if all(v == 0 for v in step):
            break
        x = ring.sub(x, step)
    return x


def unramified_roots(f: PadicPoly, d: int):
    """Certified roots of f in the unramified extension of degree d,
    returned as coefficient tuples on the fixed basis with their precision."""
    ring = QuotientRing(f.p, f.precision, unramified_modulus(f.p, d))
    coeffs = [ring.coerce(c) for c in f.coeffs]
    roots, ok = _unram_roots_raw(coeffs, ring)
    if not ok:
        raise PrecisionExhausted("extension root census not certified")
    return roots


def census_of_poly(f: PadicPoly, lifted: list) -> Census:
    """Resolve a monic polynomial into its certified eigenvalue orbits in
    extensions; its Z_p roots come from zp_roots.

    A simple residue factor of degree d >= 2 holds d unramified eigenvalues.
    Per repeated factor: its Z_p roots are split off, then quadratic orbits
    by discriminant parity and root counts in the matching unramified
    extension.  ``lifted`` is f's entry of census_lifts.  Unresolvable
    mass raises no error; it sets component flags so estimators can
    discard the sample and report the rate.
    """
    p, N = f.p, f.precision
    quad_orbits = []
    unram_counts = {}
    flags = set()
    for _, d, mult in factor_mod_p(f.coeffs, p):
        if mult == 1 and d >= 2:
            if d == 2:
                # irreducible residue => unramified quadratic at depth 0
                quad_orbits.append((QUAD_UNRAMIFIED, 0))
            unram_counts[d] = unram_counts.get(d, 0) + d
    for g, d, _ in lifted:
        # repeated residue factor F^mult
        if d == 1:
            try:
                rts = zp_roots(g)
            except PrecisionExhausted:
                flags.add("quad")
                continue
            # split the certified roots off; accuracy of the cofactor is
            # limited by the least-known root
            remaining = list(g.coeffs)
            prec_rem = N
            for r, k in rts:
                prec_rem = min(prec_rem, k)
                remaining = poly_divmod(remaining, [-r, 1], p ** N)[0]
            rem_deg = len(remaining) - 1 if remaining else 0
            if prec_rem < 2 and rem_deg >= 2:
                flags.add("quad")
            elif rem_deg == 0:
                pass
            elif rem_deg == 2:
                try:
                    quad_orbits.append(
                        classify_quadratic(PadicPoly.from_ints(p, prec_rem, remaining)))
                except (PrecisionExhausted, UnsupportedPrime):
                    flags.add("quad")
            elif rem_deg == 3:
                pass  # a single cubic orbit; cannot contain a quadratic one
            else:
                # look for unramified-quadratic pairs inside the remainder
                resolved = _resolve_unram_pairs(remaining, p, prec_rem, quad_orbits)
                if not resolved:
                    flags.add("quad")
        else:
            try:
                rts = unramified_roots(g, d)
            except PrecisionExhausted:
                flags.add("unram")
                if d == 2:
                    flags.add("quad")
                continue
            if d == 2 and _pair_unram_quadratic(rts, p, quad_orbits) is None:
                flags.add("quad")
            unram_counts[d] = unram_counts.get(d, 0) + len(rts)

    return Census(tuple(quad_orbits), unram_counts, frozenset(flags))


def _resolve_unram_pairs(coeffs, p, N, quad_orbits):
    """Count unramified-quadratic conjugate pairs inside a residue-power
    factor of degree >= 4.  Returns False when leftover degree could still
    hide unresolved quadratic orbits."""
    try:
        g = PadicPoly.from_ints(p, N, coeffs)
        rts = unramified_roots(g, 2)
    except PrecisionExhausted:
        return False
    pairs = _pair_unram_quadratic(rts, p, quad_orbits)
    return pairs is not None and (len(coeffs) - 1) - 2 * pairs < 2
