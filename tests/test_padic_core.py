from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from padicstats.padic_core import (
    PadicPoly,
    SATURATED,
    det_mod,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_sub,
    raw_valuation,
)
from padicstats.matrix_lab import Rng

import oracles
from oracles import (
    NonUnitDivision,
    berkowitz_charpoly,
    discriminant,
    inverse_mod,
    poly_horner,
    resultant,
)


def test_valuation_examples():
    assert raw_valuation(18, 3, 3 ** 4) == 2
    assert raw_valuation(0, 2, 2 ** 5) is SATURATED
    assert raw_valuation(7, 5, 5 ** 3) == 0


def test_scalar_arithmetic_and_errors():
    # residues of Z/p^N are ints; only units have inverses
    assert 7 * inverse_mod(7, 5, 125) % 125 == 1
    assert 2 * inverse_mod(2, 3, 3 ** 20) % 3 ** 20 == 1
    with pytest.raises(NonUnitDivision):
        inverse_mod(5, 5, 125)


@given(
    p=st.sampled_from([2, 3, 5]),
    x=st.integers(min_value=0, max_value=10 ** 6),
    y=st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=200, deadline=None)
def test_valuation_additivity(p, x, y):
    N = 8
    m = p ** N
    va, vb = raw_valuation(x, p, m), raw_valuation(y, p, m)
    if va is SATURATED or vb is SATURATED:
        return
    if va + vb >= N:
        return
    assert raw_valuation(x * y, p, m) == va + vb


def test_poly_eval_examples():
    assert poly_horner([-1, 0, 1], 3, 25) == 8
    assert raw_valuation(poly_horner([0, 1], 0, 16), 2, 16) is SATURATED
    assert poly_horner([-1, 1], 1, 27) == 0


def test_poly_shape():
    f = PadicPoly.from_ints(3, 2, (1, 2, 9))  # leading 9 = 0 mod 9
    assert f.degree == 1
    assert not f.monic
    assert PadicPoly.from_ints(3, 2, (1, 2, 1)).monic
    z = PadicPoly.from_ints(3, 2, (0, 0))
    assert z.coeffs == () and z.degree == -1


def test_resultant_examples():
    p, N = 3, 4
    m = p ** N
    f = PadicPoly.from_ints(p, N, (0, 1))          # x
    g = PadicPoly.from_ints(p, N, (-1, 1))         # x - 1
    r = resultant(f, g)
    assert r == (-1) % m and raw_valuation(r, p, m) == 0
    assert resultant(f, f) == 0
    h = PadicPoly.from_ints(p, N, (-3, 0, 1))      # x^2 - 3
    r = resultant(h, f)
    assert r == (-3) % m and raw_valuation(r, p, m) == 1


def test_resultant_degenerate_degrees():
    p, N = 5, 3
    const = PadicPoly.from_ints(p, N, (2,))
    g = PadicPoly.from_ints(p, N, (1, 4, 1))
    assert resultant(const, g) == pow(2, 2, 125)
    zero = PadicPoly.from_ints(p, N, ())
    assert resultant(zero, g) == 0


def test_discriminant_examples():
    # x^2 - c has discriminant 4c
    for p, c in ((7, 3), (5, 2), (3, 2)):
        f = PadicPoly.from_ints(p, 4, (-c, 0, 1))
        assert discriminant(f) == (4 * c) % p ** 4
    # x^2 - x
    f = PadicPoly.from_ints(5, 3, (0, -1, 1))
    assert discriminant(f) == 1
    # x(x-1)(x+1) = x^3 - x: expanding prod (r_i - r_j)^2 over roots
    # {0, 1, -1} gives ((0-1)(0+1)(1+1))^2 = 4
    f = PadicPoly.from_ints(5, 3, (0, -1, 0, 1))
    d = discriminant(f)
    assert d == 4 and raw_valuation(d, 5, 125) == 0
    with pytest.raises(NonUnitDivision):
        discriminant(PadicPoly.from_ints(5, 3, (1, 5)))


def _random_monic(gen, p, N, deg):
    coeffs = [int(x) for x in gen.integers(0, p ** N, size=deg)] + [1]
    return PadicPoly.from_ints(p, N, coeffs)


def _mul(f, g):
    return PadicPoly(f.p, f.precision, tuple(poly_mul(f.coeffs, g.coeffs, f.modulus)))


def test_resultant_multiplicativity_200_cases():
    gen = Rng(2024).generator()
    cases = 0
    while cases < 200:
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 7))
        df, dg, dh = (int(x) for x in gen.integers(1, 5, size=3))
        f = _random_monic(gen, p, N, df)
        g = _random_monic(gen, p, N, dg)
        h = _random_monic(gen, p, N, dh)
        lhs = resultant(_mul(f, g), h)
        rhs = resultant(f, h) * resultant(g, h) % p ** N
        assert lhs == rhs
        cases += 1


def _shift(f, g, h):
    """f - g h over Z/p^N."""
    m = f.modulus
    return PadicPoly(f.p, f.precision,
                     tuple(poly_sub(f.coeffs, poly_mul(g.coeffs, h.coeffs, m), m)))


def test_resultant_shift_rule():
    # reducing f mod a monic h preserves the resultant up to the sign
    # (-1)^(deg change * deg h); the norm is always preserved, which is
    # what downstream valuation arguments rely on
    gen = Rng(77).generator()
    for _ in range(100):
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 6))
        f = _random_monic(gen, p, N, int(gen.integers(1, 5)))
        g = _random_monic(gen, p, N, int(gen.integers(1, 3)))
        h = _random_monic(gen, p, N, int(gen.integers(1, 4)))
        shifted = _shift(f, g, h)
        r1 = resultant(f, h)
        r2 = resultant(shifted, h)
        sign = (-1) ** ((shifted.degree - f.degree) * h.degree)
        assert r1 == (sign * r2) % p ** N
        v1 = raw_valuation(r1, p, p ** N)
        if v1 is not SATURATED:
            assert v1 == raw_valuation(r2, p, p ** N)


def test_resultant_shift_rule_exact_when_degree_preserved():
    gen = Rng(78).generator()
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 6))
        h = _random_monic(gen, p, N, int(gen.integers(1, 4)))
        g = _random_monic(gen, p, N, int(gen.integers(1, 3)))
        # choose f of strictly larger degree than g*h so subtraction
        # keeps the degree and the identity is exact
        f = _random_monic(gen, p, N, g.degree + h.degree + 1)
        assert resultant(f, h) == resultant(_shift(f, g, h), h)


def test_resultant_residue_power_rule():
    # monic f whose residue is a power of an irreducible F of degree d:
    # val Res(f, g) is a multiple of d when finite
    gen = Rng(31).generator()
    irreducibles = {
        2: ((1, 1, 1), 2),       # x^2+x+1 over F_2
        3: ((1, 0, 1), 2),       # x^2+1 over F_3
        5: ((2, 0, 1), 2),       # x^2+2 over F_5
    }
    for _ in range(100):
        p = int(gen.choice([2, 3, 5]))
        N = 6
        m = p ** N
        fcoeffs, d = irreducibles[p]
        k = int(gen.integers(1, 3))
        f = reduce(lambda a, _: poly_mul(a, fcoeffs, m), range(k - 1), list(fcoeffs))
        # perturb by p * (random of lower degree), keeping the residue
        pert = [int(x) * p for x in gen.integers(0, p ** (N - 1), size=len(f) - 1)]
        f = PadicPoly.from_ints(p, N, poly_add(f, pert, m))
        g = _random_monic(gen, p, N, int(gen.integers(1, 4)))
        r = raw_valuation(resultant(f, g), p, m)
        if r is SATURATED:
            continue
        assert r % d == 0


def test_divmod_monic():
    gen = Rng(5).generator()
    for _ in range(50):
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 6))
        m = p ** N
        f = _random_monic(gen, p, N, int(gen.integers(1, 6)))
        h = _random_monic(gen, p, N, int(gen.integers(1, 4)))
        q, r = poly_divmod(f.coeffs, h.coeffs, m)
        assert poly_add(poly_mul(q, h.coeffs, m), r, m) == list(f.coeffs)
        assert len(r) - 1 < h.degree


def test_poly_from_roots_and_eval():
    m = 7 ** 3
    f = reduce(lambda a, r: poly_mul(a, [-r % m, 1], m), (1, 2, 4), [1])
    for r in (1, 2, 4):
        assert poly_horner(f, r, m) == 0
    assert f[-1] == 1 and len(f) - 1 == 3


def test_det_mod_cofactor_oracle():
    def cofactor(rows, m):
        n = len(rows)
        if n == 1:
            return rows[0][0] % m
        tot = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            s = 1 if j % 2 == 0 else -1
            tot += s * rows[0][j] * cofactor(minor, m)
        return tot % m

    gen = Rng(11).generator()
    for _ in range(50):
        n = int(gen.integers(1, 5))
        m = int(gen.choice([8, 27, 125, 3 ** 5]))
        rows = [[int(x) for x in gen.integers(0, m, size=n)] for _ in range(n)]
        assert det_mod(rows, m) == oracles.det_mod(rows, m) == cofactor(rows, m)


def test_berkowitz_charpoly_known():
    # det(xI - [[a, b], [c, d]]) = x^2 - (a+d) x + (ad - bc)
    m = 97
    coeffs = berkowitz_charpoly(
        [[2, 3], [5, 7]],
        add=lambda x, y: (x + y) % m,
        mul=lambda x, y: (x * y) % m,
        neg=lambda x: -x % m,
        zero=0,
        one=1,
    )
    assert coeffs == [1, (-9) % m, (14 - 15) % m]
