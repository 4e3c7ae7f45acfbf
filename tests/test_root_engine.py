"""The batched residue-disk root engine against its scalar oracles.

batch_roots must list the roots of _zp_roots_raw (d = 1) and of
_unram_roots_raw (d >= 2) in their order, with their precisions and ok
flags; batch_census must give census_of_poly's counts and flags (all three
the scalar recursions of oracles.py); and the chunk functions of the Z_p
and census experiments must give the stats of the row loops they replaced,
kept here as oracles.
"""

from functools import reduce
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicstats import root_census
from padicstats.batched import check_modulus_budget
from padicstats.matrix_lab import GL, MAT, Rng
from padicstats.padic_core import PadicPoly, poly_mul, raw_valuation
from padicstats.registry import (
    PAIR_CELLS,
    POLY,
    QUAD_CELLS,
    _census_chunk,
    _charpolys,
    _zp_stats,
)
from padicstats.root_census import (
    QUAD_RAMIFIED,
    QUAD_UNRAMIFIED,
    batch_census,
    batch_roots,
    factor_mod_p,
    unramified_modulus,
)

from oracles import (
    QuotientRing,
    _lift_factors,
    _unram_roots_raw,
    _zp_roots_raw,
    census_of_poly,
)


def _oracle(rows, prec, p, d):
    """(roots, ok) per row from the scalar routines, roots as (coordinate
    tuple, precision) pairs."""
    out = []
    for row, k in zip(rows.tolist(), np.broadcast_to(prec, len(rows)).tolist()):
        if d == 1:
            roots, ok = _zp_roots_raw([c[0] for c in row], p, k)
            roots = [((v,), kk) for v, kk in roots]
        else:
            ring = QuotientRing(p, k, unramified_modulus(p, d))
            roots, ok = _unram_roots_raw([ring.coerce(c) for c in row], ring)
        out.append((roots, ok))
    return out


def _kernel(rows, prec, p, d):
    found = batch_roots(rows, prec, p, d)
    out = [([], ok) for ok in found.ok.tolist()]
    for i, v, k in zip(found.row.tolist(), found.value.tolist(),
                       found.prec.tolist()):
        out[i][0].append((tuple(v), k))
    return out


@st.composite
def _root_batches(draw):
    """(p, d, rows (R, n + 1, d), precisions): rows of one degree bound
    mixing products of (x - a_i) whose roots agree to high valuation,
    powers of irreducible residues, all-zero rows and random rows, each
    at its own precision in 1..N."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.sampled_from([1, 1, 2, 3]))
    N = draw(st.integers(1, 9 if d == 1 else 6))
    n = draw(st.integers(1, 6 if d == 1 else 4))
    m = p ** N
    digits = st.integers(0, m - 1)
    rows, precs = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["cluster", "power", "zero", "random"]))
        if kind == "cluster":
            a = draw(st.integers(0, p - 1))
            roots = [a + p ** draw(st.integers(1, N)) * draw(digits)
                     for _ in range(n)]
            f = reduce(lambda g, r: poly_mul(g, [-r, 1], m), roots, [1])
        elif kind == "power":
            e = draw(st.integers(1, min(3, n)))
            F = list(unramified_modulus(p, e)) if draw(st.booleans()) else \
                draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)) + [1]
            f = [1]
            for _ in range(n // e):
                f = poly_mul(f, F, m)
            f = poly_mul(f, draw(st.lists(digits, min_size=n % e,
                                          max_size=n % e)) + [1], m)
            noise = draw(st.lists(digits, min_size=len(f), max_size=len(f)))
            f = [(c + p * z) % m for c, z in zip(f, noise)]
        elif kind == "zero":
            f = [0] * (n + 1)
        else:
            f = draw(st.lists(digits, min_size=n + 1, max_size=n + 1))
        row = np.zeros((n + 1, d), dtype=np.int64)
        row[:len(f), 0] = f
        if d > 1 and kind == "random" and draw(st.booleans()):
            size = (n + 1) * (d - 1)  # coordinates off Z_p
            extra = draw(st.lists(digits, min_size=size, max_size=size))
            row[:, 1:] = np.reshape(extra, (n + 1, d - 1))
        rows.append(row)
        precs.append(draw(st.integers(1, N)))
    return p, d, np.array(rows), np.array(precs)


@settings(max_examples=250, deadline=None)
@given(_root_batches())
def test_batch_roots_matches_the_scalar_oracles(case):
    p, d, rows, prec = case
    assert _kernel(rows, prec, p, d) == _oracle(rows, prec, p, d)


def test_batch_roots_examples():
    # a double root, roots agreeing mod 3^2, and the zero row
    rows = np.zeros((3, 4, 1), dtype=np.int64)
    rows[0, :3, 0] = (0, 0, 1)
    rows[1, :, 0] = PadicPoly(3, 6, tuple(reduce(
        lambda g, r: poly_mul(g, [-r, 1], 3 ** 6), (1, 10, 2), [1]))).coeffs
    found = _kernel(rows, 6, 3, 1)
    assert found == _oracle(rows, 6, 3, 1)
    assert found[0] == ([], False)
    assert [v % 9 for (v,), _ in found[1][0]] == [1, 1, 2] and found[1][1]
    assert found[2] == ([], False)


@pytest.mark.parametrize("d", [1, 2])
def test_batch_roots_at_the_largest_admitted_precision(d, monkeypatch):
    # p = 3, n = 6: N = 18 is the largest N with 6 (3^N - 1)^2 <= 2^62, the
    # charpoly budget of every census and Z_p experiment at that size
    p, n = 3, 6
    check_modulus_budget(n, p ** 18)
    with pytest.raises(ValueError):
        check_modulus_budget(n, p ** 19)
    cps = _charpolys(Rng(3).generator(), 300, p, n, 18, MAT)
    rows = np.zeros((300, n + 1, d), dtype=np.int64)
    rows[:, :, 0] = cps[:, ::-1]
    rows[:4, :, 0] = 0
    rows[:4, :3, 0] = [(0, 0, 1), (-1, 0, 1), (9, -6, 1), (1, 0, 1)]
    rows[:4, :, 0] %= p ** 18
    assert _kernel(rows, 18, p, d) == _oracle(rows, 18, p, d)

    def no_work(*args):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(root_census, "_screen", no_work)
    monkeypatch.setattr(root_census, "unramified_modulus", no_work)
    with pytest.raises(ValueError, match="int64"):
        batch_roots(rows, 19, p, d)
    with pytest.raises(ValueError, match="int64"):
        batch_census(cps[:, ::-1], p, 19)


def test_coefficients_past_int64_meet_the_budget_check():
    # 101^10 - 1 overflows int64: the budget refuses the modulus from the
    # input's shape before the coefficients are converted
    m = 101 ** 10
    with pytest.raises(ValueError, match="modulus .* too large"):
        batch_census([[0, m - 1, 1]], 101, 10)
    with pytest.raises(ValueError, match="modulus .* too large"):
        batch_roots([[[0], [m - 1], [1]]], 10, 101)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 6), (5, 4), (7, 3), (101, 2)])
def test_batch_roots_admits_every_charpoly_budget(p, n):
    # the kernel's check is the charpoly budget at the row's degree, so no
    # modulus a spec passes can be refused at degree <= n
    N = max(k for k in range(1, 64) if n * (p ** k - 1) ** 2 <= 2 ** 62)
    rows = np.zeros((1, n + 1, 2), dtype=np.int64)
    rows[0, :2, 0] = (p - 1, 1)
    rows[0, n, 0] = 1
    for d in (1, 2):
        batch_roots(rows[:, :, :d], N, p, d)
    batch_census(rows[:, :, 0], p, N)


def test_census_at_the_largest_admitted_precision():
    p, n, N = 3, 6, 18
    polys = _charpolys(Rng(4).generator(), 200, p, n, N, MAT)[:, ::-1]
    _assert_census_matches(batch_census(polys, p, N), polys, p, N)


# ---------------------------------------------------------------------------
# batch_census and the census chunk against census_of_poly.
# ---------------------------------------------------------------------------


def _census_rows(polys, p, N):
    """census_of_poly of each row, on its census lift."""
    polys = np.asarray(polys, dtype=np.int64)
    heads = [tuple(e for e in factor_mod_p(r, p) if e[2] > 1)
             for r in (polys % p).tolist()]
    lifted = _lift_factors(polys, p, N, heads)[0]
    return [census_of_poly(PadicPoly.from_ints(p, N, row), lift)
            for row, lift in zip(polys.tolist(), lifted)]


def _assert_census_matches(counts, polys, p, N):
    label = {QUAD_UNRAMIFIED: 0, QUAD_RAMIFIED: 1}
    for i, c in enumerate(_census_rows(polys, p, N)):
        assert counts.quad_ok[i] == ("quad" not in c.flags)
        assert counts.unram_ok[i] == ("unram" not in c.flags)
        if "quad" not in c.flags:
            want = np.zeros_like(counts.quad[i])
            for lab, m in c.quad_orbits:
                want[label[lab], m] += 1
            assert counts.quad[i].tolist() == want.tolist()
        if "unram" not in c.flags:
            want = [c.unram_counts.get(d, 0)
                    for d in range(counts.unram.shape[1])]
            assert counts.unram[i].tolist() == want


# Z_p cases: small n at p = 2, the Z_p experiments' sizes, GL and POLY
ZP_CASES = [(2, 2, 10, MAT), (2, 3, 10, MAT), (2, 4, 10, MAT),
            (3, 6, 10, MAT), (3, 8, 12, MAT), (3, 6, 10, GL),
            (3, 2, 10, POLY)]


def _census_chunk_oracle(spec, gen, size):
    """The census chunk's former row loop over census_of_poly."""
    p, n, N = spec.p, spec.n, spec.precision
    cps = _charpolys(gen, size, p, n, N, spec.mode)
    ncell = len(QUAD_CELLS)
    out = {
        "quad_sum": np.zeros(ncell + 2), "quad_sumsq": np.zeros(ncell + 2),
        "quad_used": 0,
        "unram3_sum": 0.0, "unram3_sumsq": 0.0, "unram3_used": 0,
    }
    for census in _census_rows(cps[:, ::-1], p, N):
        if "quad" not in census.flags:
            orbits = census.quad_orbits
            labels = [label for label, _ in orbits]
            cells = 2.0 * np.array([orbits.count(cell) for cell in QUAD_CELLS]
                                   + [labels.count(QUAD_UNRAMIFIED),
                                      labels.count(QUAD_RAMIFIED)])
            out["quad_sum"] += cells
            out["quad_sumsq"] += cells * cells
            out["quad_used"] += 1
        if "unram" not in census.flags:
            c3 = float(census.unram_counts.get(3, 0))
            out["unram3_sum"] += c3
            out["unram3_sumsq"] += c3 * c3
            out["unram3_used"] += 1
    return out


def _assert_same_stats(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        assert np.array_equal(got[key], value), key




# the census defaults and two other primes, GL and POLY, then the Z_p cases
CENSUS_CASES = [(3, 6, 12, MAT, 4096), (5, 4, 8, MAT, 2048),
                (2, 6, 10, MAT, 2048), (3, 6, 12, GL, 2048),
                (3, 5, 8, POLY, 2048), (3, 8, 10, MAT, 1024)]


@pytest.mark.parametrize("p, n, N, mode, size", CENSUS_CASES + [
    (p, n, N, mode, 1024) for p, n, N, mode in ZP_CASES])
def test_census_chunk_matches_the_row_loop(p, n, N, mode, size):
    spec = SimpleNamespace(p=p, n=n, precision=N, mode=mode)
    got = _census_chunk(spec, Rng(1, 0).generator(), size)
    want = _census_chunk_oracle(spec, Rng(1, 0).generator(), size)
    _assert_same_stats(got, want)
    if p == 2:
        # a quadratic remainder is flagged, never classified, at p = 2
        cps = _charpolys(Rng(1, 0).generator(), size, p, n, N, mode)
        counts = batch_census(cps[:, ::-1], p, N)
        assert not counts.quad[:, 1].any() and not counts.quad_ok.all()


@st.composite
def _census_heads(draw):
    """(p, N, rows (B, n + 1)): monic rows of one degree n built from
    clustered linear factors, close pairs (x - a)^2 - p^j c, residue-
    irreducible quadratics and cubics, and squares of the quadratics, so
    that repeated residue factors of every kind reach the census."""
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(1, 12 if p < 5 else 9))
    n = draw(st.integers(2, 8))
    m = p ** N
    digits = st.integers(0, m - 1)
    unit_shift = st.integers(1, N)

    def quadratic():
        if draw(st.booleans()):
            F = list(unramified_modulus(p, 2))
            noise = draw(st.lists(digits, min_size=2, max_size=2))
            return [(c + p * z) % m for c, z in zip(F, noise)] + [1]
        a = draw(st.integers(0, p - 1))
        c = draw(digits)
        return [(a * a - p ** draw(unit_shift) * c) % m, (-2 * a) % m, 1]

    rows = []
    for _ in range(draw(st.integers(1, 4))):
        f = [1]
        while len(f) - 1 < n:
            room = n - (len(f) - 1)
            kind = draw(st.sampled_from(
                ["linear", "linear", "quad", "square", "cubic"]))
            if kind == "quad" and room >= 2:
                g = quadratic()
            elif kind == "square" and room >= 4:
                g = quadratic()
                g = poly_mul(g, g, m)
            elif kind == "cubic" and room >= 3:
                g = list(unramified_modulus(p, 3))
            else:
                a = draw(st.integers(0, p - 1))
                g = [(-a - p ** draw(unit_shift) * draw(digits)) % m, 1]
            f = poly_mul(f, g, m)
        if draw(st.booleans()):
            j = draw(unit_shift)  # an approximation of the product
            noise = draw(st.lists(digits, min_size=n, max_size=n))
            f = [(c + p ** j * z) % m for c, z in zip(f[:-1], noise)] + [1]
        rows.append(f)
    return p, N, np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_census_heads())
def test_batch_census_matches_census_of_poly_on_constructed_heads(case):
    p, N, polys = case
    _assert_census_matches(batch_census(polys, p, N), polys, p, N)


def test_census_flags_a_remainder_whose_pair_search_fails():
    # x (x^2 + 9)^2 at p = 3: the Z_p root 0 is found at precision 8, but
    # the remainder (x^2 + 9)^2 has double roots +-3w whose search fails
    p, N = 3, 12
    f = poly_mul([0, 1], poly_mul([9, 0, 1], [9, 0, 1], p ** N), p ** N)
    polys = np.array([f], dtype=np.int64)
    counts = batch_census(polys, p, N)
    assert not counts.quad_ok[0] and counts.unram_ok[0]
    _assert_census_matches(counts, polys, p, N)


def test_batch_census_matches_census_of_poly_row_by_row():
    gen = Rng(72).generator()
    for p, n, N in [(3, 6, 8), (5, 4, 6), (2, 6, 8), (3, 4, 3), (3, 2, 1)]:
        polys = _charpolys(gen, 400, p, n, N, MAT)[:, ::-1]
        _assert_census_matches(batch_census(polys, p, N), polys, p, N)


# ---------------------------------------------------------------------------
# _zp_stats against its former row loop.
# ---------------------------------------------------------------------------


def _zp_stats_oracle(cps, p, n, N):
    """The Z_p statistics' former row loop over _zp_roots_raw."""
    out = {
        "sum": 0.0, "sumsq": 0.0, "used": 0,
        "var_sum": 0.0, "var_sumsq": 0.0,
        "all_in": 0,
    }
    pair_sum, pair_sumsq = [0] * PAIR_CELLS, [0] * PAIR_CELLS
    for row in cps.tolist():
        roots, ok = _zp_roots_raw(row[::-1], p, N)
        if not ok:
            continue
        c = len(roots)
        out["used"] += 1
        out["sum"] += c
        out["sumsq"] += c * c
        v = c * (c - 1)
        out["var_sum"] += v
        out["var_sumsq"] += v * v
        if c == n:
            out["all_in"] += 1
        vals = [raw_valuation(r1 - r2, p, p ** min(k1, k2))
                for (r1, k1), (r2, k2) in combinations(roots, 2)]
        for m in range(PAIR_CELLS):
            x = 2 * vals.count(m)  # ordered pairs
            pair_sum[m] += x
            pair_sumsq[m] += x * x
    out["pair_sum"] = np.array(pair_sum, dtype=np.float64)
    out["pair_sumsq"] = np.array(pair_sumsq, dtype=np.float64)
    return out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("p, n, N, mode", ZP_CASES)
def test_zp_stats_matches_the_row_loop(p, n, N, mode, seed):
    cps = _charpolys(Rng(seed, 0).generator(), 2048, p, n, N, mode)
    got = _zp_stats(cps, p, n, N)
    _assert_same_stats(got, _zp_stats_oracle(cps, p, n, N))
    assert got["pair_sum"].any() and got["used"] > 0
