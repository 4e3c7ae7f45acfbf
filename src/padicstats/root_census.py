"""Root census of characteristic polynomials over Z/p^N.

Pipeline: factor the residue over F_p, lift the coprime grouping by Hensel
iterations, then resolve each lifted factor: certified roots in Z_p by
recursive residue refinement, quadratic orbits by root counts plus
discriminant valuation parity, and repeated-residue factors by root
counting in the unramified extension of matching residue degree.

Certification is explicit: a sample whose precision budget cannot settle a
branch is flagged, never silently miscounted, and callers discard flagged
samples against a reported discard rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic_core import (
    PadicPoly,
    QuotientRing,
    SATURATED,
    discriminant,
    inverse_mod,
    is_prime,
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


QP = "Qp"
QUAD_UNRAMIFIED = "QUAD_UNRAMIFIED"
QUAD_RAMIFIED = "QUAD_RAMIFIED"
UNRAMIFIED = "UNRAMIFIED"
OTHER = "OTHER"


@dataclass(frozen=True)
class ExtensionDescriptor:
    """Invariants of the extension housing an eigenvalue orbit."""

    degree: int
    ram_index: int
    res_degree: int
    disc_val: int
    label: str
    m: int

    def __post_init__(self):
        if self.degree != self.ram_index * self.res_degree:
            raise ValueError("degree must equal e * f")

    def disc_norm(self, p: int) -> float:
        return float(p) ** (-self.disc_val)


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


def _equal_degree_split(f, d, p, rng=None):
    """Cantor-Zassenhaus split of a squarefree product of degree-d factors.

    Falls back to a deterministic sweep of trial polynomials when no random
    stream is supplied or the randomized step stalls, so fixed seeds give
    reproducible factorizations.
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
        if rng is not None:
            for _ in range(32):
                yield [int(x) for x in rng.integers(0, p, size=n)]
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
            return _equal_degree_split(part, d, p, rng) + _equal_degree_split(rest, d, p, rng)
    raise RuntimeError("equal-degree factorization stalled")  # pragma: no cover


@dataclass(frozen=True)
class ResidueFactorization:
    """Irreducible factorization over F_p: ((coeffs, degree, multiplicity), ...)."""

    p: int
    factors: tuple

    def __post_init__(self):
        total = sum(d * m for _, d, m in self.factors)
        object.__setattr__(self, "_total_degree", total)

    @property
    def total_degree(self) -> int:
        return self._total_degree


def factor_mod_p(coeffs, p: int, rng=None) -> ResidueFactorization:
    """Complete monic irreducible factorization of a nonzero poly over F_p."""
    f = poly_trim([int(c) % p for c in coeffs])
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    found = {}
    for sf, mult in _squarefree_decomposition(f, p):
        for prod, d in _distinct_degree(sf, p):
            for irr in _equal_degree_split(prod, d, p, rng):
                key = tuple(irr)
                found[key] = (len(irr) - 1, found.get(key, (0, 0))[1] + mult)
    factors = tuple(
        sorted((k, d, m) for k, (d, m) in found.items())
    )
    return ResidueFactorization(p, factors)


# ---------------------------------------------------------------------------
# Hensel lifting of coprime residue factorizations.
# ---------------------------------------------------------------------------


def _hensel_pair(f, g1, h1, s1, t1, p, target_exp):
    """Quadratic Hensel iteration: lift f = g*h from mod p to mod p^target.

    f, g, h are monic; s, t satisfy s g + t h = 1 at the current modulus.
    Because the defect e = f - g h vanishes at the current modulus, Bezout
    data at that modulus already supports one squared-modulus step; both
    corrections come out as exact divisions by the monic h.
    """
    g, h, s, t = list(g1), list(h1), list(s1), list(t1)
    exp = 1
    while exp < target_exp:
        exp = min(2 * exp, target_exp)
        m = p ** exp
        e = poly_sub(f, poly_mul(g, h, m), m)
        _, dh = poly_divmod(poly_mul(e, s, m), h, m)
        dg, rem = poly_divmod(poly_sub(e, poly_mul(g, dh, m), m), h, m)
        if rem:  # pragma: no cover
            raise AssertionError("hensel correction not exact")
        g = poly_add(g, dg, m)
        h = poly_add(h, dh, m)
        if exp >= target_exp:
            break
        # refresh Bezout data to the new modulus
        b = poly_sub(poly_add(poly_mul(s, g, m), poly_mul(t, h, m), m), [1], m)
        _, d = poly_divmod(poly_mul(s, b, m), h, m)
        s = poly_sub(s, d, m)
        t, rem = poly_divmod(poly_sub([1], poly_mul(s, g, m), m), h, m)
        if rem:  # pragma: no cover
            raise AssertionError("bezout refresh not exact")
    return g, h


def _lift_factors(f: PadicPoly, fact: ResidueFactorization) -> list:
    """Hensel-lift the residue factorization of a monic f.

    Returns one (monic factor, residue degree d, multiplicity) per
    irreducible residue factor F of ``fact``: the factor reduces to F^mult
    mod p, and the factors multiply to f exactly mod p^N.
    """
    if not f.monic:
        raise ValueError("hensel lifting needs a monic polynomial")
    if not fact.factors:
        return []
    p, N = f.p, f.precision
    *head, (_, d_last, m_last) = fact.factors
    out = []
    rest = list(f.coeffs)
    for k, d, m in head:
        gbar = [1]
        for _ in range(m):
            gbar = poly_mul(gbar, k, p)
        hbar = poly_divmod(poly_trim(c % p for c in rest), gbar, p)[0]
        s, t = poly_bezout(gbar, hbar, p)
        g, rest = _hensel_pair(rest, gbar, hbar, s, t, p, N)
        out.append((PadicPoly.from_ints(p, N, g), d, m))
    out.append((PadicPoly.from_ints(p, N, rest), d_last, m_last))
    return out


def hensel_split(f: PadicPoly, rng=None) -> list:
    """Split a monic f into monic factors, one per distinct irreducible
    residue factor, with the product reconstituting f exactly mod p^N."""
    parts = _lift_factors(f, factor_mod_p(f.coeffs, f.p, rng))
    return [g for g, _, _ in parts] or [f]


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


def _newton_refine(coeffs, dcoeffs, p, N, x0, v2):
    """Refine a Hensel-certified approximate root to the full precision.

    The derivative has stable valuation v2 near the root; the root is
    determined mod p^{N - v2}.
    """
    modulus = p ** N
    pv = p ** v2
    res_mod = p ** (N - v2)
    x = x0 % modulus
    for _ in range(N + 4):
        fx = poly_horner(coeffs, x, modulus)
        if fx == 0:
            break
        fpx = poly_horner(dcoeffs, x, modulus)
        u = (fpx // pv) % res_mod
        step = ((fx // pv) * inverse_mod(u, p, res_mod)) % res_mod
        if step == 0:
            break
        x = (x - step) % modulus
    return x % res_mod


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
            root = _newton_refine(coeffs, dcoeffs, p, N, a, 0)
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


def count_roots_in_zp(f: PadicPoly) -> int:
    """The number of roots of a monic f in Z_p, each Hensel-certified."""
    return len(zp_roots(f))


def island_multiplicities(f: PadicPoly, rng=None) -> dict:
    """Multiplicity of each irreducible residue factor of a monic f; the
    number of eigenvalues on the island of F is deg(F) * multiplicity."""
    return {k: m for k, _, m in factor_mod_p(f.coeffs, f.p, rng).factors}


def classify_quadratic(g: PadicPoly) -> ExtensionDescriptor:
    """Sort an irreducible monic quadratic by its discriminant valuation.

    Even valuation 2m means the roots lie in the unramified quadratic
    extension at depth m; odd valuation 2m+1 means a ramified quadratic at
    depth m.  Odd p only.
    """
    if g.p == 2:
        raise UnsupportedPrime("quadratic classification needs odd p")
    if g.degree != 2 or not g.monic:
        raise ValueError("expected a monic quadratic")
    disc = discriminant(g)
    if disc.is_saturated or disc.valuation >= g.precision - 1:
        raise PrecisionExhausted("discriminant valuation not determined")
    v = disc.valuation
    if v % 2 == 0:
        return ExtensionDescriptor(2, 1, 2, 0, QUAD_UNRAMIFIED, v // 2)
    return ExtensionDescriptor(2, 2, 1, 1, QUAD_RAMIFIED, (v - 1) // 2)


# ---------------------------------------------------------------------------
# Roots in unramified extensions: elements are coefficient tuples on the
# basis 1, w, ..., w^{d-1} where w lifts a generator of F_{p^d}.
# ---------------------------------------------------------------------------

# fixed monic lifts of irreducible polynomials defining the unramified
# extension of degree d; chosen once so conjugation is reproducible
_UNRAMIFIED_MODULI = {}


def unramified_modulus(p: int, d: int) -> tuple:
    """A monic degree-d lift whose residue is irreducible over F_p."""
    key = (p, d)
    if key not in _UNRAMIFIED_MODULI:
        # the first irreducible x^d + c_{d-1} x^{d-1} + ... + c_0 in code order
        for code in range(p ** d):
            cand = _decode_residue(code, p, d) + (1,)
            if _fp_is_irreducible(cand, p):
                _UNRAMIFIED_MODULI[key] = cand
                break
        else:  # pragma: no cover
            raise RuntimeError("no irreducible polynomial found")
    return _UNRAMIFIED_MODULI[key]


def _fp_is_irreducible(f, p):
    """Rabin's test: x^(p^d) = x mod f, and x^(p^(d/q)) - x is coprime to
    f for every prime q dividing d = deg f."""
    d = len(f) - 1
    if d < 1:
        return False

    def frobenius_minus_x(k):
        # x^(p^k) - x, reduced mod f
        xpk = _fp_powmod([0, 1], p ** k, f, p)
        return poly_divmod(poly_sub(xpk, [0, 1], p), f, p)[1]

    if frobenius_minus_x(d):
        return False
    return all(
        len(_fp_gcd(frobenius_minus_x(d // q), f, p)) <= 1
        for q in range(2, d + 1) if d % q == 0 and is_prime(q)
    )


def _unram_poly_eval(coeffs, x, ring):
    acc = ring.zero
    for c in reversed(coeffs):
        acc = ring.add(ring.mul(acc, x), c)
    return acc


def _unram_taylor_shift(coeffs, a, ring):
    res = list(coeffs)
    n = len(res)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            res[j] = ring.add(res[j], ring.mul(a, res[j + 1]))
    return res


def _unram_roots_raw(coeffs, ring):
    """Certified roots of a poly with coefficients in an unramified ring."""
    p, N, d = ring.p, ring.precision, ring.deg
    if all(all(x == 0 for x in c) for c in coeffs):
        return [], False
    dcoeffs = [tuple((i * x) % ring.modulus for x in c) for i, c in enumerate(coeffs)][1:]
    roots = []
    ok = True
    for code in range(p ** d):
        a = _decode_residue(code, p, d)
        fa = _unram_poly_eval(coeffs, a, ring)
        if ring.val(fa) == 0:
            continue
        fpa = _unram_poly_eval(dcoeffs, a, ring)
        # unit derivative: exactly one root in the residue class (see the
        # base-ring variant for why weaker certificates undercount)
        if ring.val(fpa) == 0:
            root = _unram_newton(coeffs, dcoeffs, a, 0, ring)
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


def _unram_newton(coeffs, dcoeffs, x0, v2, ring):
    p, N = ring.p, ring.precision
    res_mod = p ** (N - v2)
    x = x0
    for _ in range(N + 4):
        fx = _unram_poly_eval(coeffs, x, ring)
        if all(v == 0 for v in fx):
            break
        fpx = _unram_poly_eval(dcoeffs, x, ring)
        sub_ring = QuotientRing(p, N - v2, ring.modpoly)
        u = tuple(x2 // p ** v2 % sub_ring.modulus for x2 in fpx)
        fv = tuple(x2 // p ** v2 % sub_ring.modulus for x2 in fx)
        step = sub_ring.mul(fv, sub_ring.inverse(u))
        if all(v == 0 for v in step):
            break
        x = tuple((a - b) % ring.modulus for a, b in zip(x, step))
    return tuple(v % res_mod for v in x)


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
    """Certified eigenvalue statistics assembled from one polynomial."""

    p: int
    precision: int
    degree: int
    zp_roots: tuple          # (value, known_precision) pairs
    pairwise_valuations: tuple
    quad_orbits: tuple       # (label, m) per certified quadratic orbit
    island_map: dict         # residue factor coeffs -> multiplicity
    unram_counts: dict       # residue degree d >= 2 -> certified eigenvalue count
    flags: frozenset         # subset of {'zp','pairs','quad','unram'}

    @property
    def zp_count(self) -> int:
        return len(self.zp_roots)

    @property
    def quad_counts(self) -> dict:
        out = {}
        for label, m in self.quad_orbits:
            out[(label, m)] = out.get((label, m), 0) + 1
        return out


def census_of_poly(f: PadicPoly, rng=None) -> Census:
    """Resolve a monic polynomial into certified eigenvalue statistics.

    Splits f by residue factors, then per factor: Z_p roots by refinement,
    quadratic orbits by discriminant parity, repeated-residue factors by
    root counts in the matching unramified extension.  Unresolvable mass
    raises no error; it sets component flags so estimators can discard the
    sample and report the rate.
    """
    p, N = f.p, f.precision
    fact = factor_mod_p(f.coeffs, p, rng)
    zp_root_list = []
    quad_orbits = []
    unram_counts = {}
    flags = set()
    for g, d, mult in _lift_factors(f, fact):
        if mult == 1:
            if d == 1:
                try:
                    rts = zp_roots(g)
                    zp_root_list.extend(rts)
                except PrecisionExhausted:
                    flags.update({"zp", "pairs"})
            elif d == 2:
                # irreducible residue => unramified quadratic at depth 0
                quad_orbits.append((QUAD_UNRAMIFIED, 0))
                unram_counts[2] = unram_counts.get(2, 0) + 2
            else:
                unram_counts[d] = unram_counts.get(d, 0) + d
            continue
        # repeated residue factor F^mult
        if d == 1:
            try:
                rts = zp_roots(g)
            except PrecisionExhausted:
                flags.update({"zp", "pairs", "quad"})
                continue
            zp_root_list.extend(rts)
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
                    quad_orbits.append(_classify_from_list(remaining, p, prec_rem))
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
            if d == 2:
                pairs = _pair_unram_quadratic(rts, p, N, d)
                if pairs is None:
                    flags.add("quad")
                else:
                    for m in pairs:
                        quad_orbits.append((QUAD_UNRAMIFIED, m))
                unram_counts[2] = unram_counts.get(2, 0) + len(rts)
            else:
                unram_counts[d] = unram_counts.get(d, 0) + len(rts)

    # pairwise valuations between certified Z_p roots
    pair_vals = []
    for i in range(len(zp_root_list)):
        for j in range(i + 1, len(zp_root_list)):
            r1, k1 = zp_root_list[i]
            r2, k2 = zp_root_list[j]
            k = min(k1, k2)
            diff = (r1 - r2) % p ** k
            v = raw_valuation(diff, p, p ** k)
            if v is SATURATED:
                flags.add("pairs")
            else:
                pair_vals.append(v)
    return Census(
        p=p,
        precision=N,
        degree=f.degree,
        zp_roots=tuple(zp_root_list),
        pairwise_valuations=tuple(sorted(pair_vals)),
        quad_orbits=tuple(quad_orbits),
        island_map={k: m for k, _, m in fact.factors},
        unram_counts=unram_counts,
        flags=frozenset(flags),
    )


def _classify_from_list(coeffs, p, N):
    g = PadicPoly.from_ints(p, N, coeffs)
    lc = g.coeffs[-1] if g.coeffs else 0
    if lc != 1:
        # normalize by the (unit) leading coefficient
        inv = inverse_mod(lc, p, p ** N)
        g = PadicPoly.from_ints(p, N, [(c * inv) % p ** N for c in g.coeffs])
    desc = classify_quadratic(g)
    return (desc.label, desc.m)


def _resolve_unram_pairs(coeffs, p, N, quad_orbits):
    """Count unramified-quadratic conjugate pairs inside a residue-power
    factor of degree >= 4.  Returns False when leftover degree could still
    hide unresolved quadratic orbits."""
    try:
        g = PadicPoly.from_ints(p, N, coeffs)
        rts = unramified_roots(g, 2)
    except PrecisionExhausted:
        return False
    pairs = _pair_unram_quadratic(rts, p, N, 2)
    if pairs is None:
        return False
    for m in pairs:
        quad_orbits.append((QUAD_UNRAMIFIED, m))
    leftover = (len(coeffs) - 1) - 2 * len(pairs)
    return leftover < 2


def _pair_unram_quadratic(roots, p, N, d):
    """Pair conjugate roots in the degree-2 unramified ring and return the
    depth m of each orbit, or None if pairing fails."""
    if d != 2:
        return None
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
    return ms


def eigenvalue_census(A, rng=None) -> Census:
    """Census of the eigenvalues of a base-ring matrix."""
    from .matrix_lab import charpoly

    return census_of_poly(charpoly(A), rng)
