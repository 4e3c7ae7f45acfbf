"""Exact arithmetic in Z/p^N: residues, dense polynomials and monic
quotient rings.

Everything in this module is computed exactly in the finite quotient ring
Z/p^N.  A residue that vanishes mod p^N carries no finite valuation
information: its valuation is reported as the ``SATURATED`` marker and
callers must either raise the working precision or branch.  Division is
allowed only by units; Z/p^N has zero divisors, so all determinant-style
computations here are division-free.  Residues are plain ints and
polynomials coefficient lists; ``PadicPoly`` only tags a coefficient tuple
with (p, N) for the root census.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class NonUnitDivision(ArithmeticError):
    """Division in Z/p^N is defined only by units."""


class _SaturatedMarker:
    """Singleton marker for valuations that exceed the working precision."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "SATURATED"

    def __reduce__(self):
        return (_SaturatedMarker, ())


SATURATED = _SaturatedMarker()


def is_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def raw_valuation(value: int, p: int, modulus: int):
    """Valuation of ``value`` in Z/modulus, or SATURATED for the zero residue."""
    value %= modulus
    if value == 0:
        return SATURATED
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def inverse_mod(value: int, p: int, modulus: int) -> int:
    """Inverse of a unit in Z/p^N.  Raises NonUnitDivision otherwise."""
    if value % p == 0:
        raise NonUnitDivision(f"{value} is not a unit mod {p}^N")
    return pow(value, -1, modulus)


# ---------------------------------------------------------------------------
# Division-free linear algebra over a commutative ring.
#
# Z/p^N and its monic quotient rings have zero divisors, so Gaussian
# elimination and remainder sequences are unsound there.  The Samuelson-
# Berkowitz recurrence computes characteristic polynomials using ring
# addition and multiplication only.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Dense polynomials over Z/m: coefficient lists, constant coefficient first,
# trailing zeros trimmed.  F_p is the case m = p; PadicPoly, the quotient
# ring below and the factorization code in root_census all use these.
# ---------------------------------------------------------------------------


def poly_trim(a) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(a, b, m: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = [x % m for x in a]
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % m
    return poly_trim(out)


def poly_sub(a, b, m: int) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x % m
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % m
    return poly_trim(out)


def poly_mul(a, b, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return poly_trim(out)


def poly_divmod(a, b, m: int):
    """Quotient and remainder of a by a trimmed b whose leading
    coefficient is a unit mod m."""
    a = [x % m for x in a]
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], poly_trim(a)
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, m)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * inv) % m
        if c:
            q[i - db] = c
            for j, y in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * y) % m
    return poly_trim(q), poly_trim(a)


def poly_horner(a, x: int, m: int) -> int:
    """The value of a at x in Z/m."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def poly_bezout(a, b, p: int):
    """s, t with s a + t b = 1 over F_p, for a and b coprime mod p."""
    r0 = poly_trim(x % p for x in a)
    r1 = poly_trim(x % p for x in b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("inputs not coprime")
    inv = pow(r0[0], -1, p)
    return [(x * inv) % p for x in s0], [(x * inv) % p for x in t0]


@dataclass(frozen=True)
class PadicPoly:
    """Dense polynomial over Z/p^N, constant coefficient first.

    Trailing zero residues are trimmed, so the degree is the index of the
    last stored coefficient; the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    p: int
    precision: int
    coeffs: tuple

    def __post_init__(self):
        m = self.p ** self.precision
        coeffs = poly_trim(c % m for c in self.coeffs)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def from_ints(cls, p: int, precision: int, coeffs) -> "PadicPoly":
        return cls(p, precision, tuple(coeffs))

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.precision

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self):
        return f"PadicPoly(p={self.p}, N={self.precision}, coeffs={self.coeffs})"


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


# ---------------------------------------------------------------------------
# Monic quotient rings Z/p^N[x]/(Z).
# ---------------------------------------------------------------------------


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
