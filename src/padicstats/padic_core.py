"""Exact arithmetic in Z/p^N: residues and dense polynomials.

A residue that vanishes mod p^N carries no finite valuation information:
its valuation is reported as the ``SATURATED`` marker and callers must
either raise the working precision or branch.  Residues are plain ints and
polynomials coefficient lists; ``PadicPoly`` only tags a coefficient tuple
with (p, N) for the root census.  ``det_mod`` is a one-matrix facade over
``batched.batch_det``.  The scalar Berkowitz recurrence, the monic
quotient rings and the resultant are test oracles, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .batched import batch_det, check_modulus_budget


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


def det_mod(entries, modulus: int) -> int:
    """Determinant of an n x n integer matrix in Z/modulus: batch_det of a
    one-matrix batch.  A modulus past its int64 budget raises ValueError."""
    check_modulus_budget(max(len(entries), 1), modulus)
    return int(batch_det(_one_batch(entries, modulus), modulus)[0])


def _one_batch(rows, modulus: int) -> np.ndarray:
    """An n x n integer matrix reduced mod modulus, as a (1, n, n) int64
    batch; the caller has checked the modulus against its kernel's budget."""
    n = len(rows)
    return np.array([[x % modulus for x in row] for row in rows],
                    dtype=np.int64).reshape(1, n, n)


# ---------------------------------------------------------------------------
# Dense polynomials over Z/m: coefficient lists, constant coefficient first,
# trailing zeros trimmed.  F_p is the case m = p; PadicPoly and the
# factorization code in root_census use these.
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
