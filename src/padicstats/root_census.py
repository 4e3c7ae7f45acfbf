"""Root census of characteristic polynomials over Z/p^N.

Pipeline: factor the residue over F_p, then either certify the roots in
Z_p by recursive residue refinement (zp_roots, their one producer) or find
the eigenvalue orbits in extensions (the census): Hensel-lift the repeated
residue factors, read the simple ones off the factorization, and resolve
each lifted factor by quadratic orbits (root counts plus the parity of
val(b^2 - 4c)) and root counts in the unramified extension of its degree.

The lift runs batched: census_lifts lifts a whole chunk of polys at once
with the int64 quadratic Hensel kernel of ``batched``, one call per head
step and lift shape, from start data cached per residue.  Root search in
an unramified extension screens the residues a with Zech-logarithm tables
of F_{p^d}, so only the residue roots reach full-precision arithmetic.

Certification is explicit: a sample whose precision budget cannot settle a
branch is flagged, never silently miscounted, and callers discard flagged
samples against a reported discard rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .batched import batch_hensel_lift, check_modulus_budget
from .padic_core import (
    PadicPoly,
    QuotientRing,
    SATURATED,
    inverse_mod,
    poly_add,
    poly_bezout,
    poly_divmod,
    poly_horner,
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


def factor_mod_p(coeffs, p: int) -> tuple:
    """Complete monic irreducible factorization of a nonzero poly over F_p,
    as the sorted tuple ((coeffs, degree, multiplicity), ...).

    The result depends on the residue alone, so it is cached on
    (residue, p).
    """
    f = tuple(poly_trim([int(c) % p for c in coeffs]))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    return _factor(f, p)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor(f: tuple, p: int) -> tuple:
    found = {}
    for sf, mult in _squarefree_decomposition(f, p):
        for prod, d in _distinct_degree(sf, p):
            for irr in _equal_degree_split(prod, d, p):
                key = tuple(irr)
                found[key] = (len(irr) - 1, found.get(key, (0, 0))[1] + mult)
    return tuple(sorted((k, d, m) for k, (d, m) in found.items()))


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
    rest = np.array(polys, dtype=np.int64) % p ** N
    if not (rest[:, -1] == 1).all():
        raise ValueError("hensel lifting needs monic polynomials")
    residues, inv = np.unique(rest % p, axis=0, return_inverse=True)
    residues = [tuple(r) for r in residues.tolist()]
    starts = [_lift_start(residues[k], p, tuple(hd)) if hd else ()
              for k, hd in zip(inv.reshape(-1).tolist(), heads)]
    factors = []
    for j in range(max(map(len, starts), default=0)):
        rows = np.zeros_like(rest)
        groups = {}
        for i, st in enumerate(starts):
            if len(st) > j:
                groups.setdefault((len(st[j][0]), len(st[j][1])), []).append(i)
        for (lg, lh), idx in groups.items():
            data = (np.array(col, dtype=np.int64)
                    for col in zip(*(starts[i][j] for i in idx)))
            g, h = batch_hensel_lift(rest[idx, :lg + lh - 1], *data, p, N)
            rows[idx, :lg] = g
            rest[idx, :lh] = h
            rest[idx, lh:] = 0
        factors.append(rows)
    lifted = [[(PadicPoly.from_ints(p, N, rows[i].tolist()), d, m)
               for rows, (_, d, m) in zip(factors, hd)]
              for i, hd in enumerate(heads)]
    return lifted, rest


def census_lifts(polys, p: int, N: int) -> list:
    """The lifts census_of_poly reads, for a batch of monic polys given as
    equal-length coefficient rows (constant term first): entry i lists
    row i's repeated residue factors, lifted, as (monic factor, d, mult).
    Rows with none are not lifted."""
    check_modulus_budget(max(len(polys[0]) - 1, 1), p ** N)
    polys = np.asarray(polys, dtype=np.int64)
    residues, inv = np.unique(polys % p, axis=0, return_inverse=True)
    heads = [tuple(e for e in factor_mod_p(r, p) if e[2] > 1)
             for r in residues.tolist()]
    return _lift_factors(polys, p, N, [heads[k] for k in inv.reshape(-1).tolist()])[0]


def hensel_split(f: PadicPoly) -> list:
    """Split a monic f into monic factors, one per distinct irreducible
    residue factor, with the product reconstituting f exactly mod p^N."""
    heads = factor_mod_p(f.coeffs, f.p)[:-1]
    lifted, cofactors = _lift_factors([f.coeffs], f.p, f.precision, [heads])
    cofactor = PadicPoly.from_ints(f.p, f.precision, cofactors[0].tolist())
    return [g for g, _, _ in lifted[0]] + [cofactor]


# ---------------------------------------------------------------------------
# Certified roots in Z_p by recursive residue refinement.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The census.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """Certified eigenvalue orbits in extensions of one polynomial.  Its
    Z_p roots come from zp_roots (registry._zp_stats for a whole chunk),
    and the island counts of the matrix laws from the batched primary
    multiplicities."""

    quad_orbits: tuple       # (label, m) per certified quadratic orbit
    unram_counts: dict       # residue degree d >= 2 -> certified eigenvalue count
    flags: frozenset         # subset of {'quad','unram'}


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
