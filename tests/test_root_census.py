import sys
import threading
from collections import Counter
from functools import reduce
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padicstats.batched import batch_charpoly, check_modulus_budget, sample_matrices
from padicstats.matrix_lab import MAT, Rng
from padicstats.registry import _census_chunk, _charpolys
from padicstats import matrix_lab, padic_core, root_census
from padicstats.matrix_lab import smith_parts_quadratic, smith_parts_raw
from padicstats.padic_core import (
    PadicPoly,
    SATURATED,
    det_mod,
    poly_mul,
    poly_trim,
    raw_valuation,
)
from padicstats.root_census import (
    PrecisionExhausted,
    QUAD_RAMIFIED,
    QUAD_UNRAMIFIED,
    UnsupportedPrime,
    classify_quadratic,
    factor_mod_p,
    hensel_split,
    island_multiplicities,
    unramified_modulus,
    unramified_roots,
    zp_roots,
    _decode_residue,
    _fp_gcd,
    _zp_roots_raw,
)

import oracles
from oracles import (
    QuotientRing,
    _lift_factors,
    _residue_field,
    _unram_poly_eval,
    census_of_poly,
    discriminant,
    inverse_mod,
)


def _poly(p, N, *factors):
    """The product of coefficient lists (constant term first) over Z/p^N."""
    return PadicPoly(p, N, tuple(reduce(lambda a, b: poly_mul(a, b, p ** N), factors, [1])))


def _from_roots(p, N, roots):
    return _poly(p, N, *([-r, 1] for r in roots))


def _charpoly(A, p, N):
    """det(xI - A) over Z/p^N by batch_charpoly."""
    row = batch_charpoly(np.array([A], dtype=np.int64) % p ** N, p ** N)[0]
    return PadicPoly(p, N, tuple(row[::-1].tolist()))


def _sampled_charpoly(gen, n, p, N, gl=False):
    return _charpoly(sample_matrices(gen, 1, n, p, N, gl)[0], p, N)


def census_lifts(polys, p, N):
    """The lifts census_of_poly reads, for a batch of monic polys given as
    equal-length coefficient rows (constant term first): entry i lists
    row i's repeated residue factors, lifted, as (monic factor, d, mult)."""
    check_modulus_budget(max(len(polys[0]) - 1, 1), p ** N)
    polys = np.asarray(polys, dtype=np.int64)
    residues, inv = np.unique(polys % p, axis=0, return_inverse=True)
    heads = [tuple(e for e in root_census.factor_mod_p(r, p) if e[2] > 1)
             for r in residues.tolist()]
    return oracles._lift_factors(
        polys, p, N, [heads[k] for k in inv.reshape(-1).tolist()])[0]


def _census(f):
    """census_of_poly on f's entry of a one-row census_lifts batch.  The
    package's one-row census of f gives the same flags and, where
    certified, the same counts."""
    c = census_of_poly(f, census_lifts([f.coeffs], f.p, f.precision)[0])
    got = root_census.census_of_poly(f)
    assert got.flags == c.flags
    if "quad" not in c.flags:
        assert Counter(got.quad_orbits) == Counter(c.quad_orbits)
    if "unram" not in c.flags:
        assert got.unram_counts == {d: k for d, k in c.unram_counts.items() if k}
    return c


def _quad_counts(c):
    """The certified quadratic orbits of a census, counted per (label, m)."""
    return dict(Counter(c.quad_orbits))


def test_factor_mod_p_examples():
    f = factor_mod_p((-1, 0, 1), 3)
    assert f == (((1, 1), 1, 1), ((2, 1), 1, 1))
    f = factor_mod_p((1, 0, 1), 3)
    assert f == (((1, 0, 1), 2, 1),)
    f = factor_mod_p((0, 0, 0, 1), 2)
    assert f == (((0, 1), 1, 3),)
    assert sum(d * mult for _, d, mult in f) == 3


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
                for k, d, mult in fact:
                    assert len(k) - 1 == d
                    for _ in range(mult):
                        prod_ = poly_mul(prod_, list(k), p)
                assert prod_ == poly_trim(f)
                assert sum(d * mult for _, d, mult in fact) == deg


@st.composite
def _residues(draw):
    """(p, coefficients low-first) of a poly with a unit leading residue;
    coefficients are drawn past p so the cache key must reduce them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    deg = draw(st.integers(0, 8))
    low = draw(st.lists(st.integers(0, p ** 3), min_size=deg, max_size=deg))
    lead = draw(st.integers(1, p - 1)) + p * draw(st.integers(0, 3))
    return p, low + [lead]


@settings(max_examples=300, deadline=None)
@given(_residues())
def test_factor_mod_p_cache_matches_uncached(case):
    p, coeffs = case
    residue = tuple(poly_trim([c % p for c in coeffs]))
    fact = factor_mod_p(coeffs, p)
    assert fact == root_census._factor.__wrapped__(residue, p)
    assert factor_mod_p(coeffs, p) is fact  # the second call is a cache hit
    prod_ = [1]
    for k, d, mult in fact:
        assert isinstance(k, tuple) and len(k) - 1 == d
        for _ in range(mult):
            prod_ = poly_mul(prod_, list(k), p)
    inv = pow(residue[-1], -1, p)
    assert prod_ == [(c * inv) % p for c in residue]


def _chain(f, p):
    return root_census._factor.__wrapped__(f, p)


def _monic(code, p, k):
    """The code-th monic residue of degree k, in the factor table's order."""
    return _decode_residue(code, p, k) + (1,)


@pytest.mark.parametrize("p, n", [(2, 10), (3, 7), (5, 4), (7, 3)])
def test_factor_table_matches_the_chain(p, n):
    # every monic residue of degree 1..n, order of the factors included
    table = root_census._factor_table(p, n)
    assert table[0] == ((),)
    for k in range(1, n + 1):
        assert len(table[k]) == p ** k
        assert list(table[k]) == [_chain(_monic(c, p, k), p)
                                  for c in range(p ** k)]


def test_factor_table_budget_edges():
    budget = root_census.FACTOR_TABLE_BUDGET
    # p = 11: every residue of the largest degree n with 11^n within the
    # budget is read from the table, and degree n + 1 takes the chain and
    # builds no table level
    p = 11
    n = max(k for k in range(1, 64) if p ** k <= budget)
    table = root_census._factor_table(p, n)
    for code in range(p ** n):
        f = _monic(code, p, n)
        assert factor_mod_p(f, p) is table[n][code]
        assert table[n][code] == _chain(f, p)
    f = _monic(p ** n + 1, p, n + 1)
    calls = sum(root_census._factor.cache_info()[:2])
    fact = factor_mod_p(f, p)
    assert fact == _chain(f, p)
    assert len(root_census._factor_tables[p]) == n + 1
    assert sum(root_census._factor.cache_info()[:2]) == calls + 1
    assert factor_mod_p(f, p) is fact  # the chain's cache hit
    # at p = 2 the largest degree within the budget, where 2^k meets it,
    # is read from the table too
    k = max(k for k in range(1, 64) if 2 ** k <= budget)
    for code in (0, 1, 2 ** k - 1):
        f = _monic(code, 2, k)
        assert factor_mod_p(f, 2) is root_census._factor_table(2, k)[k][code]
        assert factor_mod_p(f, 2) == _chain(f, 2)


def test_factor_table_takes_non_monic_residues_past_p():
    # (2x^2 + 1) mod 3 = 2 (x^2 + 2) = 2 (x + 1)(x + 2): coefficients given
    # past p, or a leading coefficient other than 1, reach the monic entry
    want = (((1, 1), 1, 1), ((2, 1), 1, 1))
    assert factor_mod_p((4, 3, -1), 3) == want
    assert factor_mod_p((1, 0, 2), 3) is factor_mod_p((7, 0, 5), 3)
    gen = Rng(27).generator()
    for _ in range(200):
        p = int(gen.choice([2, 3, 5, 7]))
        k = int(gen.integers(0, 5))
        coeffs = [int(c) for c in gen.integers(-p ** 3, p ** 3, size=k)]
        coeffs.append(int(gen.integers(1, p)) + p * int(gen.integers(-3, 4)))
        residue = tuple(c % p for c in coeffs)
        assert factor_mod_p(coeffs, p) == _chain(residue, p)
        code = sum(c * pow(residue[-1], -1, p) % p * p ** i
                   for i, c in enumerate(residue[:-1]))
        assert factor_mod_p(coeffs, p) is root_census._factor_table(p, k)[k][code]


def test_factor_table_is_built_once_under_threads(monkeypatch):
    monkeypatch.setattr(root_census, "_factor_tables", {})
    builds = []
    real = root_census._sieve_degree

    def counting(table, p, k):
        builds.append((p, k))
        return real(table, p, k)

    monkeypatch.setattr(root_census, "_sieve_degree", counting)
    f = (1, 2, 0, 1, 1, 2, 1)
    barrier = threading.Barrier(8, timeout=30)
    results = [None] * 8

    def first_call(i):
        barrier.wait()
        results[i] = factor_mod_p(f, 3)

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [(3, k) for k in range(1, 7)]
    assert all(r is results[0] for r in results)
    assert results[0] == _chain(f, 3)


def test_factor_mod_p_factors_are_irreducible():
    # any nontrivial factorization of a reported factor would show up as a
    # common divisor with x^(p^j) - x for some j below its degree
    from padicstats.root_census import _fp_powmod

    gen = Rng(14).generator()
    for _ in range(80):
        p = int(gen.choice([2, 3, 5]))
        deg = int(gen.integers(2, 7))
        coeffs = [int(x) for x in gen.integers(0, p, size=deg)] + [1]
        for k, d, mult in factor_mod_p(coeffs, p):
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
    assert _poly(5, 3, *(h.coeffs for h in parts)) == g
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
        assert _poly(p, N, *(h.coeffs for h in parts)) == f
        fact = factor_mod_p(f.coeffs, p)
        lifted, cofactors = _lift_factors([f.coeffs], p, N, [fact[:-1]])
        lifted = lifted[0]
        cofactor = PadicPoly.from_ints(p, N, cofactors[0].tolist())
        assert [g for g, _, _ in lifted] + [cofactor] == parts
        for h, d, mult in lifted + [(cofactor, *fact[-1][1:])]:
            assert h.monic
            ((k, dk, mk),) = factor_mod_p(h.coeffs, p)
            assert (dk, mk) == (d, mult)
            assert h.degree == d * mult


@st.composite
def _lift_batches(draw):
    """(p, N, polys, heads): equal-degree monic polys over Z/p^N whose
    residues carry repeated factors, with census-style heads (the repeated
    factors) or hensel_split-style heads (all but the last) per poly."""
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(2, 12))
    n = draw(st.integers(2, 7))
    m = p ** N
    polys, heads = [], []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, min(3, n)))
        gdeg = draw(st.integers(1, n // k))
        g = draw(st.lists(st.integers(0, p - 1), min_size=gdeg, max_size=gdeg)) + [1]
        f = [1]
        for _ in range(k):
            f = poly_mul(f, g, m)
        rdeg = n - len(f) + 1
        f = poly_mul(f, draw(st.lists(st.integers(0, m - 1), min_size=rdeg,
                                      max_size=rdeg)) + [1], m)
        noise = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        f = [(c + p * e) % m for c, e in zip(f, noise + [0])]
        factors = factor_mod_p(f, p)
        if draw(st.booleans()):
            heads.append(tuple(e for e in factors if e[2] > 1))
        else:
            heads.append(factors[:-1])
        polys.append(f)
    return p, N, polys, heads


@settings(max_examples=200, deadline=None)
@given(_lift_batches())
def test_batched_lift_is_invariant_to_grouping(case):
    p, N, polys, heads = case
    lifted, cofactors = _lift_factors(polys, p, N, heads)
    for i, (f, hd) in enumerate(zip(polys, heads)):
        alone, alone_cofactors = _lift_factors([f], p, N, [hd])
        assert lifted[i] == alone[0]
        assert cofactors[i].tolist() == alone_cofactors[0].tolist()
        for (g, d, mult), (k, dk, mk) in zip(lifted[i], hd):
            assert (d, mult) == (dk, mk) and g.monic and g.degree == d * mult
            assert factor_mod_p(g.coeffs, p) == ((k, d, mult),)
        factors = [g.coeffs for g, _, _ in lifted[i]]
        assert _poly(p, N, cofactors[i].tolist(), *factors) == _poly(p, N, f)


def test_lift_past_the_int64_budget_is_refused(monkeypatch):
    # 2 (101^10 - 1)^2 > 2^62: refused before any lifting
    f = PadicPoly.from_ints(101, 10, (0, -1, 1))
    with pytest.raises(ValueError, match="int64"):
        hensel_split(f)
    with pytest.raises(ValueError, match="int64"):
        _census(f)
    with pytest.raises(ValueError, match="monic"):
        hensel_split(PadicPoly.from_ints(3, 4, (0, -1, 3)))

    # the one-row facades refuse it before their kernels start
    def no_work(*args):
        raise AssertionError("work started before the budget check")

    for module, kernel in [(root_census, "_lift_rows"),
                           (root_census, "batch_roots"),
                           (root_census, "batch_census"),
                           (matrix_lab, "batch_smith_parts"),
                           (matrix_lab, "batch_smith_parts_quad"),
                           (padic_core, "batch_det")]:
        monkeypatch.setattr(module, kernel, no_work)
    m = f.modulus
    A = [[1, m - 1], [3, 4]]
    for refused in (lambda: hensel_split(f), lambda: zp_roots(f),
                    lambda: unramified_roots(f, 2),
                    lambda: root_census.census_of_poly(f),
                    lambda: smith_parts_raw(A, 101, 10),
                    lambda: smith_parts_quadratic(A, A, 101, 10, False, 2),
                    lambda: det_mod(A, m)):
        with pytest.raises(ValueError, match="int64"):
            refused()


def test_count_roots_examples():
    assert len(zp_roots(PadicPoly.from_ints(3, 6, (0, -1, 1)))) == 2
    assert len(zp_roots(PadicPoly.from_ints(3, 6, (-3, 0, 1)))) == 0
    f = PadicPoly.from_ints(5, 6, (-6, 0, 1))
    assert len(zp_roots(f)) == 2
    for r, k in zp_roots(f):
        assert (r * r - 6) % 5 ** k == 0


def test_count_roots_same_class_regressions():
    # two roots hiding in one residue class at unequal depths
    assert len(zp_roots(PadicPoly.from_ints(3, 10, (0, -9, 1)))) == 2
    assert len(zp_roots(PadicPoly.from_ints(3, 10, (0, -36, 0, 1)))) == 3
    assert len(zp_roots(_from_roots(5, 12, [1, 26, 126]))) == 3


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
        r1, r2 = (poly_trim(c % p for c in f.coeffs) for f in (f1, f2))
        if len(_fp_gcd(r1, r2, p)) > 1:
            continue
        try:
            both = len(zp_roots(_poly(p, N, c1, c2)))
            assert both == len(zp_roots(f1)) + len(zp_roots(f2))
        except PrecisionExhausted:
            continue
        checked += 1


def test_precision_exhausted_on_true_double_root():
    f = PadicPoly.from_ints(3, 6, (0, 0, 1))  # x^2
    with pytest.raises(PrecisionExhausted):
        zp_roots(f)


def test_island_multiplicities():
    f = _from_roots(3, 3, [0, 3, 4])
    assert island_multiplicities(f) == {(0, 1): 2, (2, 1): 1}
    f = PadicPoly.from_ints(3, 3, (1, 0, 0, 1))  # residue x^3 + 1 = (x+1)^3
    assert island_multiplicities(f) == {(1, 1): 3}


def test_island_degree_conservation():
    gen = Rng(3).generator()
    for _ in range(150):
        n = int(gen.integers(2, 6))
        p = int(gen.choice([2, 3]))
        islands = island_multiplicities(_sampled_charpoly(gen, n, p, 6))
        assert sum((len(k) - 1) * m for k, m in islands.items()) == n


def test_gl_samples_never_touch_the_zero_island():
    gen = Rng(19).generator()
    for _ in range(300):
        n = int(gen.integers(1, 5))
        p = int(gen.choice([2, 3]))
        f = _sampled_charpoly(gen, n, p, 4, gl=True)
        assert (0, 1) not in island_multiplicities(f)


def test_classify_quadratic():
    g = PadicPoly.from_ints(5, 4, (-2, 0, 1))
    label, m = classify_quadratic(g)
    assert label == QUAD_UNRAMIFIED and m == 0
    g = PadicPoly.from_ints(3, 4, (-3, 0, 1))
    label, m = classify_quadratic(g)
    assert label == QUAD_RAMIFIED and m == 0
    g = PadicPoly.from_ints(3, 6, (-18, 0, 1))
    label, m = classify_quadratic(g)
    assert label == QUAD_UNRAMIFIED and m == 1
    with pytest.raises(UnsupportedPrime):
        classify_quadratic(PadicPoly.from_ints(2, 6, (1, 1, 1)))
    with pytest.raises(PrecisionExhausted):
        classify_quadratic(PadicPoly.from_ints(3, 3, (-27, 0, 1)))


def test_classify_quadratic_root_difference_matches_depth():
    # x^2 - p^2 c has roots +-p sqrt(c); their difference has valuation 1,
    # matching the reported depth m = 1
    g = PadicPoly.from_ints(3, 8, (-9 * 2, 0, 1))
    _, m = classify_quadratic(g)
    assert m == 1
    roots = unramified_roots(g, 2)
    assert len(roots) == 2
    (u1, v1), k1 = roots[0]
    (u2, v2), k2 = roots[1]
    diff_v = (v1 - v2) % 3 ** min(k1, k2)
    assert raw_valuation(diff_v, 3, 3 ** min(k1, k2)) == 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(2, 8), st.integers(0, 10 ** 6),
       st.integers(0, 8), st.integers(0, 10 ** 6), st.integers(0, 8))
@example(p=3, N=4, b=0, kb=0, c=1, kc=3)  # v = N - 1: not determined
@example(p=3, N=4, b=0, kb=0, c=1, kc=2)  # v = N - 2: unramified, m = 1
@example(p=5, N=3, b=1, kb=0, c=0, kc=0)  # v = 0
@example(p=5, N=3, b=0, kb=0, c=0, kc=0)  # discriminant 0 mod p^N
def test_classify_quadratic_matches_discriminant(p, N, b, kb, c, kc):
    # b^2 - 4c classifies x^2 + bx + c exactly as the valuation of the
    # Sylvester-resultant discriminant does, refusals included
    m = p ** N
    g = PadicPoly.from_ints(p, N, (c * p ** kc % m, b * p ** kb % m, 1))
    v = raw_valuation(discriminant(g), p, m)
    if v is SATURATED or v >= N - 1:
        with pytest.raises(PrecisionExhausted):
            classify_quadratic(g)
        return
    got = classify_quadratic(g)
    if v % 2 == 0:
        assert got == (QUAD_UNRAMIFIED, v // 2)
    else:
        assert got == (QUAD_RAMIFIED, (v - 1) // 2)


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
    f = _poly(5, 10, (-2, 0, 1), (-27, 0, 1))
    assert len(unramified_roots(f, 2)) == 4


def test_unramified_modulus_is_stable():
    assert unramified_modulus(3, 2) == unramified_modulus(3, 2)
    # the first irreducible lift in code order, constant term first
    pinned = {
        (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (3, 2): (1, 0, 1),
        (3, 3): (1, 2, 0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    }
    for (p, d), w in pinned.items():
        assert unramified_modulus(p, d) == w
    w = unramified_modulus(2, 3)
    assert len(w) == 4 and w[-1] == 1
    for p in (2, 3, 5):
        assert unramified_modulus(p, 1) == (0, 1)
    with pytest.raises(ValueError, match="not irreducible"):
        _residue_field(3, (1, 0, 1, 1))  # x = 1 is a root


def test_degree_one_unramified_roots_match_zp_roots():
    gen = Rng(41).generator()
    for _ in range(150):
        p = int(gen.choice([2, 3, 5]))
        N = int(gen.integers(2, 8))
        deg = int(gen.integers(1, 6))
        coeffs = [int(x) for x in gen.integers(0, p ** N, size=deg)] + [1]
        f = PadicPoly.from_ints(p, N, coeffs)
        try:
            want = sorted(oracles.zp_roots(f))
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                oracles.unramified_roots(f, 1)
            continue
        got = sorted((r, k) for (r,), k in oracles.unramified_roots(f, 1))
        assert got == want, (coeffs, p, N)


@st.composite
def _unram_polys(draw):
    """(p, d, ring, coeffs): a poly over the degree-d unramified ring with
    planted roots (some sharing a residue) times a random cofactor."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(1, 4))
    ring = QuotientRing(p, N, unramified_modulus(p, d))
    elem = st.lists(st.integers(0, ring.modulus - 1), min_size=d, max_size=d)
    coeffs = [ring.coerce(c) for c in draw(st.lists(elem, max_size=3))] + [ring.one]
    for r in draw(st.lists(elem, max_size=3)):
        # multiply by (x - r)
        shifted = [ring.zero] + coeffs
        scaled = [ring.mul(ring.coerce(r), c) for c in coeffs] + [ring.zero]
        coeffs = [ring.sub(a, b) for a, b in zip(shifted, scaled)]
    if draw(st.booleans()):  # a non-monic residue, possibly constant
        coeffs = [ring.coerce([p * x for x in c]) for c in coeffs[:-1]] + [
            ring.coerce(draw(elem))]
    return p, d, ring, coeffs


@settings(max_examples=300, deadline=None)
@given(_unram_polys())
def test_residue_screen_matches_full_precision_evaluation(case):
    p, d, ring, coeffs = case
    field = _residue_field(p, tuple(x % p for x in ring.modpoly))
    want = [code for code in range(p ** d)
            if ring.val(_unram_poly_eval(coeffs, _decode_residue(code, p, d),
                                         ring)) != 0]
    assert field.roots(field.logs(coeffs)) == want


def test_census_factors_each_residue_once(monkeypatch):
    calls = []
    real = root_census.factor_mod_p

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for p, d in product((2, 3, 5), (1, 2, 3)):
        unramified_modulus(p, d)  # its first call factors candidates
    monkeypatch.setattr(root_census, "factor_mod_p", counting)
    gen = Rng(57).generator()
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(2, 7))
        f = _sampled_charpoly(gen, n, p, 8)
        calls.clear()
        root_census.census_of_poly(f)
        assert len(calls) == 1
    # the chunk path factors each distinct residue of a chunk once: chunk
    # 0 of the quad_census defaults (p = 3, n = 6, N = 12) at seed 1
    spec = SimpleNamespace(p=3, n=6, precision=12, mode=MAT)
    cps = _charpolys(Rng(1, 0).generator(), 4096, 3, 6, 12, MAT)
    distinct = len(np.unique(cps % 3, axis=0))
    calls.clear()
    _census_chunk(spec, Rng(1, 0).generator(), 4096)
    assert len(calls) == distinct == 722
    assert len(set(map(tuple, calls))) == distinct


def test_census_lifts_only_repeated_residue_factors(monkeypatch):
    heads = []
    real = oracles._lift_factors

    def counting(polys, p, N, hds):
        heads.extend(e for hd in hds for e in hd)
        return real(polys, p, N, hds)

    monkeypatch.setattr(oracles, "_lift_factors", counting)
    # squarefree residue x (x - 1) (x^2 + 1) over F_3: nothing is lifted
    squarefree = _poly(3, 8, (-3, 1), (-4, 1), (1, 0, 1))
    c = _census(squarefree)
    assert heads == []
    assert c.unram_counts == {2: 2}
    assert _quad_counts(c) == {(QUAD_UNRAMIFIED, 0): 1} and not c.flags
    # residue x^2 (x - 1) (x - 2): only the repeated factor x^2 is lifted
    f = _from_roots(3, 8, [0, 9, 1, 2])
    c = _census(f)
    assert heads == [((0, 1), 1, 2)]
    assert not _quad_counts(c) and not c.unram_counts and not c.flags
    # a two-row chunk hands census_of_poly the same lifts as f alone
    lifts = census_lifts([squarefree.coeffs, f.coeffs], 3, 8)
    assert census_of_poly(f, lifts[1]) == c
    assert heads[1:] == [((0, 1), 1, 2)]


@st.composite
def _planted_roots(draw):
    """A monic poly over Z/p^N whose roots include several in one residue
    class, times a random monic cofactor."""
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(2, 9))
    a = draw(st.integers(0, p - 1))
    deep = draw(st.lists(st.integers(0, p ** (N - 1) - 1), min_size=2, max_size=4))
    other = draw(st.lists(st.integers(0, p ** N - 1), max_size=2))
    rest = draw(st.lists(st.integers(0, p ** N - 1), max_size=3))
    return _poly(p, N, *([-x, 1] for x in [a + p * r for r in deep] + other), rest + [1])


@settings(max_examples=300, deadline=None)
@given(_planted_roots())
@example(_from_roots(3, 10, [0, 9, 36]))
def test_certified_roots_are_separated_at_their_precision(f):
    # roots of different residues differ by a unit; two roots of one disk
    # a + pZ_p differ at 1 + v(r - r'), below 1 + min(k, k') by induction,
    # so every pair valuation the Z_p statistics read is finite
    roots, _ = _zp_roots_raw(list(f.coeffs), f.p, f.precision)
    for (r1, k1), (r2, k2) in combinations(roots, 2):
        assert raw_valuation(r1 - r2, f.p, f.p ** min(k1, k2)) is not SATURATED


def test_census_searches_only_lifted_linear_heads(monkeypatch):
    # Z_p roots are split off each repeated linear residue factor, and the
    # cofactor's roots are never searched
    calls = []
    real = oracles.zp_roots

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(oracles, "zp_roots", counting)
    gen = Rng(58).generator()
    searched = 0
    for _ in range(80):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(2, 7))
        f = _sampled_charpoly(gen, n, p, 8)
        heads = [(e,) for e in factor_mod_p(f.coeffs, p)
                 if e[1] == 1 and e[2] > 1]
        calls.clear()
        _census(f)
        assert [factor_mod_p(g.coeffs, p) for g in calls] == heads
        searched += len(calls)
    assert searched > 10


def test_census_matches_unramified_root_search():
    # with no flag set, the census's count in the unramified extension of
    # degree d is the number of its roots there with residue outside F_p,
    # and at d = 2 its unramified quadratic orbits at depth m are half the
    # roots whose w-coordinate has valuation m
    gen = Rng(71).generator()
    checked = Counter()
    for _ in range(200):
        p = int(gen.choice([3, 5]))
        n = int(gen.integers(2, 7))
        f = _sampled_charpoly(gen, n, p, 8)
        c = _census(f)
        if c.flags:
            continue
        for d in (2, 3):
            try:
                roots = unramified_roots(f, d)
            except PrecisionExhausted:
                continue
            outside = [x for x, _ in roots if any(y % p for y in x[1:])]
            assert c.unram_counts.get(d, 0) == len(outside)
            if d == 2:
                depths = Counter(raw_valuation(x[1], p, p ** k) for x, k in roots)
                depths.pop(SATURATED, None)  # the roots in Z_p
                assert {m: 2 * k for (label, m), k in _quad_counts(c).items()
                        if label == QUAD_UNRAMIFIED} == dict(depths)
            checked[d] += 1
    assert min(checked[2], checked[3]) > 100


def test_census_examples():
    f = _charpoly([[0, 0], [0, 1]], 3, 6)
    c = _census(f)
    assert sorted(r for r, _ in zp_roots(f)) == [0, 1]
    assert not _quad_counts(c) and not c.flags
    f = _charpoly([[0, 2], [1, 0]], 5, 6)
    c = _census(f)
    assert len(zp_roots(f)) == 0
    assert _quad_counts(c) == {(QUAD_UNRAMIFIED, 0): 1}


def test_census_depth_one_quadratics():
    f = _poly(3, 10, (-18, 0, 1), (-1, 1))
    c = _census(f)
    assert len(zp_roots(f)) == 1
    assert _quad_counts(c) == {(QUAD_UNRAMIFIED, 1): 1}
    assert not c.flags
    f = _poly(3, 10, (-27, 0, 1), (-1, 1))
    c = _census(f)
    assert _quad_counts(c) == {(QUAD_RAMIFIED, 1): 1}


def test_census_resolves_shared_island_pairs():
    f = _poly(3, 12, (-18, 0, 1), (-180, 0, 1))
    c = _census(f)
    assert _quad_counts(c) == {(QUAD_UNRAMIFIED, 1): 2}
    assert not c.flags
    f = _poly(5, 10, (-2, 0, 1), (-27, 0, 1))
    c = _census(f)
    assert _quad_counts(c) == {(QUAD_UNRAMIFIED, 0): 2}
    assert c.unram_counts.get(2) == 4


def test_census_flags_unresolvable_ramified_pairs():
    f = _poly(3, 12, (-3, 0, 1), (-12, 0, 1))
    c = _census(f)
    assert "quad" in c.flags
    assert _quad_counts(c) == {}


def test_census_cubic_orbits():
    f = PadicPoly.from_ints(3, 12, (-3, 0, 0, 1))  # ramified cubic
    c = _census(f)
    assert len(zp_roots(f)) == 0 and not _quad_counts(c)
    f = PadicPoly.from_ints(2, 8, (1, 1, 0, 1))  # unramified cubic
    c = _census(f)
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
    mats = np.array(list(product(range(m), repeat=4)), dtype=np.int64).reshape(-1, 2, 2)
    for row in batch_charpoly(mats, m):
        coeffs = poly_trim(row[::-1].tolist())
        roots, ok = _zp_roots_raw(coeffs, p, N)
        count, flagged = oracle(coeffs)
        if ok and not flagged:
            assert len(roots) == count, (coeffs, roots, count)
            agree += 1
        else:
            assert (not ok) and flagged, (coeffs, ok, flagged)
            both += 1
    assert agree + both == 4096 and agree > 3000
