from itertools import product

import pytest

from padicstats.matrix_lab import GL, MAT, PadicMatrix, Rng, charpoly, sample_matrix
from padicstats import root_census
from padicstats.padic_core import (
    PadicPoly,
    SATURATED,
    inverse_mod,
    poly_from_roots,
    poly_mul,
    poly_trim,
    raw_valuation,
)
from padicstats.root_census import (
    PrecisionExhausted,
    QUAD_RAMIFIED,
    QUAD_UNRAMIFIED,
    UnsupportedPrime,
    census_of_poly,
    classify_quadratic,
    count_roots_in_zp,
    eigenvalue_census,
    factor_mod_p,
    hensel_split,
    island_multiplicities,
    unramified_modulus,
    unramified_roots,
    zp_roots,
    _fp_gcd,
    _lift_factors,
    _zp_roots_raw,
)


def test_factor_mod_p_examples():
    f = factor_mod_p((-1, 0, 1), 3)
    assert f.factors == (((1, 1), 1, 1), ((2, 1), 1, 1))
    f = factor_mod_p((1, 0, 1), 3)
    assert f.factors == (((1, 0, 1), 2, 1),)
    f = factor_mod_p((0, 0, 0, 1), 2)
    assert f.factors == (((0, 1), 1, 3),)
    assert f.total_degree == 3


def test_factor_mod_p_exhaustive_reconstitution():
    for p, maxdeg in ((2, 7), (3, 5), (5, 3)):
        for deg in range(1, maxdeg + 1):
            for code in range(p ** deg):
                c, v = [], code
                for _ in range(deg):
                    c.append(v % p)
                    v //= p
                f = c + [1]
                fact = factor_mod_p(f, p)
                prod_ = [1]
                for k, d, mult in fact.factors:
                    assert len(k) - 1 == d
                    for _ in range(mult):
                        prod_ = poly_mul(prod_, list(k), p)
                assert prod_ == poly_trim(f)
                assert fact.total_degree == deg


def test_factor_mod_p_factors_are_irreducible():
    # any nontrivial factorization of a reported factor would show up as a
    # common divisor with x^(p^j) - x for some j below its degree
    from padicstats.root_census import _fp_powmod

    gen = Rng(14).generator()
    for _ in range(80):
        p = int(gen.choice([2, 3, 5]))
        deg = int(gen.integers(2, 7))
        coeffs = [int(x) for x in gen.integers(0, p, size=deg)] + [1]
        for k, d, mult in factor_mod_p(coeffs, p).factors:
            for j in range(1, d):
                xp = _fp_powmod([0, 1], p ** j, list(k), p)
                diff = list(xp) + [0] * max(0, 2 - len(xp))
                diff[1] = (diff[1] - 1) % p
                assert len(_fp_gcd(diff, list(k), p)) <= 1


def test_hensel_split_examples():
    g = PadicPoly.from_ints(3, 4, (0, -1, 1))
    parts = hensel_split(g)
    assert sorted(h.coeffs for h in parts) == [(0, 1), (80, 1)]
    g = PadicPoly.from_ints(5, 3, (2, 3, 1))
    parts = hensel_split(g)
    prod_ = parts[0] * parts[1]
    assert prod_.coeffs == g.coeffs
    assert sorted(h.coeffs for h in parts) == [(1, 1), (2, 1)]
    g = PadicPoly.from_ints(3, 4, (1, 0, 1))
    assert [h.coeffs for h in hensel_split(g)] == [g.coeffs]


def test_hensel_split_reconstitutes_random():
    gen = Rng(23).generator()
    for _ in range(200):
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 10))
        deg = int(gen.integers(2, 7))
        coeffs = [int(x) for x in gen.integers(0, p ** N, size=deg)] + [1]
        f = PadicPoly.from_ints(p, N, coeffs)
        parts = hensel_split(f)
        prod_ = parts[0]
        for h in parts[1:]:
            prod_ = prod_ * h
        assert prod_.coeffs == f.coeffs
        lifted = _lift_factors(f, factor_mod_p(f.coeffs, p))
        assert [g for g, _, _ in lifted] == parts
        for h, d, mult in lifted:
            assert h.monic
            ((k, dk, mk),) = factor_mod_p(h.coeffs, p).factors
            assert (dk, mk) == (d, mult)
            assert h.degree == d * mult


def test_count_roots_examples():
    assert count_roots_in_zp(PadicPoly.from_ints(3, 6, (0, -1, 1))) == 2
    assert count_roots_in_zp(PadicPoly.from_ints(3, 6, (-3, 0, 1))) == 0
    f = PadicPoly.from_ints(5, 6, (-6, 0, 1))
    assert count_roots_in_zp(f) == 2
    for r, k in zp_roots(f):
        assert (r * r - 6) % 5 ** k == 0


def test_count_roots_same_class_regressions():
    # two roots hiding in one residue class at unequal depths
    assert count_roots_in_zp(PadicPoly.from_ints(3, 10, (0, -9, 1))) == 2
    assert count_roots_in_zp(PadicPoly.from_ints(3, 10, (0, -36, 0, 1))) == 3
    f = poly_from_roots(5, 12, [1, 26, 126])
    assert count_roots_in_zp(f) == 3


def test_count_roots_additivity():
    gen = Rng(66).generator()
    checked = 0
    while checked < 200:
        p = int(gen.choice([2, 3, 5]))
        N = 8
        c1 = [int(x) for x in gen.integers(0, p ** N, size=2)] + [1]
        c2 = [int(x) for x in gen.integers(0, p ** N, size=2)] + [1]
        f1 = PadicPoly.from_ints(p, N, c1)
        f2 = PadicPoly.from_ints(p, N, c2)
        r1, r2 = list(f1.residue()), list(f2.residue())
        if len(_fp_gcd(r1, r2, p)) > 1:
            continue
        try:
            assert count_roots_in_zp(f1 * f2) == count_roots_in_zp(f1) + count_roots_in_zp(f2)
        except PrecisionExhausted:
            continue
        checked += 1


def test_precision_exhausted_on_true_double_root():
    f = PadicPoly.from_ints(3, 6, (0, 0, 1))  # x^2
    with pytest.raises(PrecisionExhausted):
        count_roots_in_zp(f)


def test_island_multiplicities():
    f = poly_from_roots(3, 3, [0, 3, 4])
    assert island_multiplicities(f) == {(0, 1): 2, (2, 1): 1}
    f = PadicPoly.from_ints(3, 3, (1, 0, 0, 1))  # residue x^3 + 1 = (x+1)^3
    assert island_multiplicities(f) == {(1, 1): 3}


def test_island_degree_conservation():
    gen = Rng(3).generator()
    for _ in range(150):
        n = int(gen.integers(2, 6))
        p = int(gen.choice([2, 3]))
        A = sample_matrix(n, p, 6, MAT, gen)
        cen = eigenvalue_census(A)
        assert sum((len(k) - 1) * m for k, m in cen.island_map.items()) == n


def test_gl_samples_never_touch_the_zero_island():
    gen = Rng(19).generator()
    for _ in range(300):
        n = int(gen.integers(1, 5))
        p = int(gen.choice([2, 3]))
        A = sample_matrix(n, p, 4, GL, gen)
        f = charpoly(A)
        assert (0, 1) not in island_multiplicities(f)


def test_classify_quadratic():
    g = PadicPoly.from_ints(5, 4, (-2, 0, 1))
    d = classify_quadratic(g)
    assert d.label == QUAD_UNRAMIFIED and d.m == 0
    assert d.disc_norm(5) == 1.0
    g = PadicPoly.from_ints(3, 4, (-3, 0, 1))
    d = classify_quadratic(g)
    assert d.label == QUAD_RAMIFIED and d.m == 0
    assert d.disc_norm(3) == pytest.approx(1 / 3)
    g = PadicPoly.from_ints(3, 6, (-18, 0, 1))
    d = classify_quadratic(g)
    assert d.label == QUAD_UNRAMIFIED and d.m == 1
    with pytest.raises(UnsupportedPrime):
        classify_quadratic(PadicPoly.from_ints(2, 6, (1, 1, 1)))
    with pytest.raises(PrecisionExhausted):
        classify_quadratic(PadicPoly.from_ints(3, 3, (-27, 0, 1)))


def test_classify_quadratic_root_difference_matches_depth():
    # x^2 - p^2 c has roots +-p sqrt(c); their difference has valuation 1,
    # matching the reported depth m = 1
    g = PadicPoly.from_ints(3, 8, (-9 * 2, 0, 1))
    d = classify_quadratic(g)
    assert d.m == 1
    roots = unramified_roots(g, 2)
    assert len(roots) == 2
    (u1, v1), k1 = roots[0]
    (u2, v2), k2 = roots[1]
    diff_v = (v1 - v2) % 3 ** min(k1, k2)
    assert raw_valuation(diff_v, 3, 3 ** min(k1, k2)) == 1


def test_unramified_roots_counts():
    f = PadicPoly.from_ints(5, 6, (-2, 0, 1))
    assert len(unramified_roots(f, 2)) == 2
    # a Z_p-split polynomial has its roots in every unramified ring
    f = PadicPoly.from_ints(5, 6, (-1, 0, 1))
    assert len(unramified_roots(f, 2)) == 2
    # no roots of a ramified minimal polynomial in the unramified quadratic
    f = PadicPoly.from_ints(5, 6, (-5, 0, 1))
    assert len(unramified_roots(f, 2)) == 0
    # quartic with two conjugate pairs on the same island
    f = PadicPoly.from_ints(5, 10, (-2, 0, 1)) * PadicPoly.from_ints(5, 10, (-27, 0, 1))
    assert len(unramified_roots(f, 2)) == 4


def test_unramified_modulus_is_stable():
    assert unramified_modulus(3, 2) == unramified_modulus(3, 2)
    w = unramified_modulus(2, 3)
    assert len(w) == 4 and w[-1] == 1
    for p in (2, 3, 5):
        assert unramified_modulus(p, 1) == (0, 1)


def test_degree_one_unramified_roots_match_zp_roots():
    gen = Rng(41).generator()
    for _ in range(150):
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 8))
        deg = int(gen.integers(1, 6))
        coeffs = [int(x) for x in gen.integers(0, p ** N, size=deg)] + [1]
        f = PadicPoly.from_ints(p, N, coeffs)
        try:
            want = sorted(zp_roots(f))
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                unramified_roots(f, 1)
            continue
        got = sorted((r, k) for (r,), k in unramified_roots(f, 1))
        assert got == want, (coeffs, p, N)


def test_census_factors_each_residue_once(monkeypatch):
    calls = []
    real = root_census.factor_mod_p

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(root_census, "factor_mod_p", counting)
    gen = Rng(57).generator()
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(2, 7))
        f = charpoly(sample_matrix(n, p, 8, MAT, gen))
        calls.clear()
        census_of_poly(f)
        assert len(calls) == 1


def test_census_examples():
    A = PadicMatrix.from_rows(3, 6, [[0, 0], [0, 1]])
    c = eigenvalue_census(A)
    assert c.zp_count == 2 and c.pairwise_valuations == (0,) and not c.flags
    A = PadicMatrix.from_rows(5, 6, [[0, 2], [1, 0]])
    c = eigenvalue_census(A)
    assert c.zp_count == 0
    assert c.quad_counts == {(QUAD_UNRAMIFIED, 0): 1}


def test_census_depth_one_quadratics():
    f = PadicPoly.from_ints(3, 10, (-18, 0, 1)) * PadicPoly.from_ints(3, 10, (-1, 1))
    c = census_of_poly(f)
    assert c.zp_count == 1
    assert c.quad_counts == {(QUAD_UNRAMIFIED, 1): 1}
    assert not c.flags
    f = PadicPoly.from_ints(3, 10, (-27, 0, 1)) * PadicPoly.from_ints(3, 10, (-1, 1))
    c = census_of_poly(f)
    assert c.quad_counts == {(QUAD_RAMIFIED, 1): 1}


def test_census_resolves_shared_island_pairs():
    f = PadicPoly.from_ints(3, 12, (-18, 0, 1)) * PadicPoly.from_ints(3, 12, (-180, 0, 1))
    c = census_of_poly(f)
    assert c.quad_counts == {(QUAD_UNRAMIFIED, 1): 2}
    assert not c.flags
    f = PadicPoly.from_ints(5, 10, (-2, 0, 1)) * PadicPoly.from_ints(5, 10, (-27, 0, 1))
    c = census_of_poly(f)
    assert c.quad_counts == {(QUAD_UNRAMIFIED, 0): 2}
    assert c.unram_counts.get(2) == 4


def test_census_flags_unresolvable_ramified_pairs():
    f = PadicPoly.from_ints(3, 12, (-3, 0, 1)) * PadicPoly.from_ints(3, 12, (-12, 0, 1))
    c = census_of_poly(f)
    assert "quad" in c.flags
    assert c.quad_counts == {}


def test_census_cubic_orbits():
    f = PadicPoly.from_ints(3, 12, (-3, 0, 0, 1))  # ramified cubic
    c = census_of_poly(f)
    assert c.zp_count == 0 and not c.quad_counts
    f = PadicPoly.from_ints(2, 8, (1, 1, 0, 1))  # unramified cubic
    c = census_of_poly(f)
    assert c.unram_counts == {3: 3}


def test_census_brute_force_equivalence_4096():
    """Census counts agree with flat residue substitution on every matrix
    in Mat_2(Z/2^3), or both sides flag."""
    p, N = 2, 3
    m = p ** N

    def oracle(coeffs):
        dcoeffs = [(i * c) % m for i, c in enumerate(coeffs)][1:]

        def ev(cs, x):
            acc = 0
            for c in reversed(cs):
                acc = (acc * x + c) % m
            return acc

        found = []
        flagged = False
        for a in range(m):
            if ev(coeffs, a) != 0:
                continue
            v1 = raw_valuation(ev(coeffs, a), p, m)
            v2 = raw_valuation(ev(dcoeffs, a), p, m)
            v1n = N if v1 is SATURATED else v1
            if v2 is SATURATED or v1n <= 2 * v2:
                flagged = True
                continue
            x = a
            res_mod = p ** (N - v2)
            for _ in range(8):
                fx = ev(coeffs, x)
                if fx == 0:
                    break
                u = (ev(dcoeffs, x) // p ** v2) % res_mod
                x = (x - (fx // p ** v2) * inverse_mod(u, p, res_mod)) % m
            cand = (x % res_mod, res_mod)
            if all((cand[0] - r) % min(cand[1], mod) != 0 for r, mod in found):
                found.append(cand)
        return len(found), flagged

    agree = both = 0
    for code in product(range(m), repeat=4):
        A = PadicMatrix.from_rows(p, N, [[code[0], code[1]], [code[2], code[3]]])
        coeffs = list(charpoly(A).coeffs)
        roots, ok = _zp_roots_raw(coeffs, p, N)
        count, flagged = oracle(coeffs)
        if ok and not flagged:
            assert len(roots) == count, (coeffs, roots, count)
            agree += 1
        else:
            assert (not ok) and flagged, (coeffs, ok, flagged)
            both += 1
    assert agree + both == 4096 and agree > 3000


def test_census_pairwise_valuation_precision_flag():
    # roots closer than the known precision flag the pair statistics
    f = poly_from_roots(3, 4, [0, 81])  # indistinguishable at N = 4
    c = census_of_poly(f)
    assert "pairs" in c.flags or c.pairwise_valuations
