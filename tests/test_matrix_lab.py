import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicstats.batched import (
    batch_charpoly,
    batch_charpoly_quad,
    batch_det,
    batch_smith_parts,
    batch_valuation,
    sample_matrices,
)
from padicstats.matrix_lab import Rng, smith_parts_quadratic, smith_parts_raw
from padicstats.padic_core import poly_mul

import oracles
from oracles import _rank_mod_p, berkowitz_charpoly


def _cofactor_det(rows, m):
    n = len(rows)
    if n == 1:
        return rows[0][0] % m
    tot = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        s = 1 if j % 2 == 0 else -1
        tot += s * rows[0][j] * _cofactor_det(minor, m)
    return tot % m


def _invert_mod(rows, m):
    n = len(rows)
    d = _cofactor_det(rows, m)
    dinv = pow(d, -1, m)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            s = 1 if (i + j) % 2 == 0 else -1
            adj[i][j] = (s * _cofactor_det(minor, m)) % m
    return [[(adj[i][j] * dinv) % m for j in range(n)] for i in range(n)]


def _matmul_mod(a, b, m):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n)]
        for i in range(n)
    ]


def _charpoly(A, m):
    """det(xI - A) mod m, constant term first, by batch_charpoly."""
    return batch_charpoly(np.array([A], dtype=np.int64), m)[0][::-1].tolist()


def _partition(A, p, N):
    """(cokernel partition, saturated) of one matrix by batch_smith_parts:
    the parts, largest first, with zeros dropped."""
    parts, sat = batch_smith_parts(np.array([A], dtype=np.int64), p, N)
    return tuple(sorted((x for x in parts[0].tolist() if x), reverse=True)), bool(sat[0])


def test_charpoly_examples():
    assert _charpoly([[0, 1], [1, 0]], 125) == [(-1) % 125, 0, 1]
    roots = reduce(lambda f, r: poly_mul(f, [-r, 1], 27), (2, 5, 1), [1])
    assert _charpoly([[2, 0, 0], [0, 5, 0], [0, 0, 1]], 27) == roots


def test_charpoly_constant_term_is_det_cofactor_oracle():
    gen = Rng(42).generator()
    for _ in range(50):
        rows = [[int(x) for x in gen.integers(0, 27, size=3)] for _ in range(3)]
        cp = _charpoly(rows, 27)
        det = _cofactor_det(rows, 27)
        assert batch_det(np.array([rows]), 27).tolist() == [det]
        assert cp[0] == (-det) % 27  # (-1)^n c_0 = det, n = 3


def test_conjugation_invariance():
    gen = Rng(11).generator()
    cases = 0
    while cases < 100:
        n = int(gen.integers(2, 5))
        p = int(gen.choice([2, 3, 5]))
        N = 3
        m = p ** N
        A = sample_matrices(gen, 1, n, p, N)[0].tolist()
        T = sample_matrices(gen, 1, n, p, N, gl=True)[0].tolist()
        b = _matmul_mod(_matmul_mod(T, A, m), _invert_mod(T, m), m)
        assert _charpoly(b, m) == _charpoly(A, m)
        cases += 1


def test_smith_partition_examples():
    assert _partition([[3, 0], [0, 1]], 3, 4) == ((1,), False)
    assert _partition([[9, 0, 0], [0, 3, 0], [0, 0, 1]], 3, 4) == ((2, 1), False)
    parts, sat = _partition([[2, 0], [0, 2]], 2, 3)
    assert parts == (1, 1) and not sat
    assert sum(x >= 1 for x in parts) == 2 and sum(x >= 2 for x in parts) == 0
    assert _partition([[0, 0], [0, 0]], 2, 2) == ((2, 2), True)


def test_partition_determinant_consistency():
    # |partition| = val(charpoly at 0) whenever both are determined; entries
    # scaled by random p^k give pivots near saturation
    gen = Rng(9).generator()
    checked = 0
    for _ in range(700):
        n = int(gen.integers(1, 5))
        p = int(gen.choice([2, 3]))
        N = 6
        rows = gen.integers(0, p ** N, size=(n, n)) * p ** gen.integers(0, 4, size=(n, n))
        parts, sat = _partition(rows % p ** N, p, N)
        det = batch_det(rows[None] % p ** N, p ** N)
        if sat or det[0] == 0:
            continue
        assert sum(parts) == batch_valuation(det, p, N)[0]
        checked += 1
    assert checked >= 500


def test_quotient_charpoly_against_padicpoly_arithmetic():
    # the quotient-ring characteristic polynomial of diag(x, x) is (y - x)^2
    U = np.zeros((1, 2, 2), dtype=np.int64)
    V = np.eye(2, dtype=np.int64)[None]
    cu, cv = batch_charpoly_quad(U, V, 2, 81)
    # y^2 - 2x y + x^2 with x^2 = 2
    assert list(zip(cu[0].tolist(), cv[0].tolist())) == [(1, 0), (0, (-2) % 81), (2, 0)]


def test_sampling_determinism_and_gl():
    a = sample_matrices(Rng(7).generator(), 1, 2, 2, 3)
    b = sample_matrices(Rng(7).generator(), 1, 2, 2, 3)
    assert (a == b).all()
    c = sample_matrices(Rng(8).generator(), 1, 2, 2, 3)
    assert (a != c).any()
    g = sample_matrices(Rng(9).generator(), 1, 1, 2, 1, gl=True)
    assert g.tolist() == [[[1]]]


def _gl_full_rerank(gen, B, n, p, N):
    """GL rejection that re-ranks the whole batch every round: the oracle
    of sample_matrices(gl=True), which re-ranks only the rows it redrew."""
    from padicstats.batched import batch_rank_mod_p

    m = p ** N
    out = gen.integers(0, m, size=(B, n, n), dtype=np.int64)
    while True:
        bad = np.flatnonzero(batch_rank_mod_p(out, p) < n)
        if bad.size == 0:
            return out
        out[bad] = gen.integers(0, m, size=(bad.size, n, n), dtype=np.int64)


@pytest.mark.parametrize("p,n,N", [(3, 6, 10), (5, 6, 8), (2, 4, 10), (2, 2, 10)])
def test_gl_rejection_matches_full_rerank(p, n, N):
    for seed in (1, 7):
        gen, oracle = Rng(seed).generator(), Rng(seed).generator()
        got = sample_matrices(gen, 1024, n, p, N, gl=True)
        assert np.array_equal(got, _gl_full_rerank(oracle, 1024, n, p, N))
        # both consumed the same stream
        assert gen.integers(0, 2 ** 62) == oracle.integers(0, 2 ** 62)


def test_gl_acceptance_rate():
    # fraction of invertible 2x2 residue matrices is |GL_2(F_2)|/16 = 6/16
    gen = Rng(100).generator()
    trials = 100_000
    raw = gen.integers(0, 2, size=(trials, 2, 2))
    hits = sum(1 for i in range(trials) if _rank_mod_p(raw[i].tolist(), 2) == 2)
    want = 6 / 16
    se = math.sqrt(want * (1 - want) / trials)
    assert abs(hits / trials - want) < 3 * se


def _exact_cap(n, d):
    """The least cap_pow with 2^cap_pow >= n / d: the primary-multiplicity
    kernels count exactly at this cap."""
    return max(1, (max(n // d, 1) - 1).bit_length())


def _exact_multiplicity(A, coeffs, p):
    """n - rank F(A)^n over F_p, in Python integers: the exact reference."""
    n = len(A)

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) % p
                 for j in range(n)] for i in range(n)]

    F = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):  # Horner
        F = mul(F, A)
        for i in range(n):
            F[i][i] = (F[i][i] + c) % p
    power = F
    for _ in range(n - 1):
        power = mul(power, F)
    return n - _rank_mod_p(power, p)


def test_fp_primary_multiplicity_refuses_inexact_float64():
    from padicstats.batched import check_float64_budget, fp_primary_multiplicity
    from padicstats.padic_core import is_prime

    # the largest prime with 4 (p - 1)^2 <= 2^53; at n = 5 it is past the bound
    p = math.isqrt(2 ** 53 // 4) + 1
    while not is_prime(p):
        p -= 1
    assert 4 * (p - 1) ** 2 <= 2 ** 53 < 5 * (p - 1) ** 2
    gen = Rng(12).generator()
    mats = gen.integers(p - 2 ** 10, p, size=(6, 4, 4), dtype=np.int64)
    mats[:3, :, 0] = 0  # A e_0 = 0: a kernel for the factor x
    mats[3:, :, 0] = 0  # A e_0 = e_0: a kernel for the factor x - 1
    mats[3:, 0, 0] = 1
    for coeffs in ([0, 1], [p - 1, 1]):
        got = fp_primary_multiplicity(mats, coeffs, 1, p, _exact_cap(4, 1))
        want = [_exact_multiplicity(A, coeffs, p) for A in mats.tolist()]
        assert got.tolist() == want
    cap = _exact_cap(4, 1)
    assert min(fp_primary_multiplicity(mats[:3], [0, 1], 1, p, cap)) >= 1
    assert min(fp_primary_multiplicity(mats[3:], [p - 1, 1], 1, p, cap)) >= 1
    with pytest.raises(ValueError, match="inexact"):
        fp_primary_multiplicity(np.zeros((1, 5, 5), dtype=np.int64), [0, 1], 1, p,
                                _exact_cap(5, 1))
    edge = 2 ** 53 // 1008 ** 2
    check_float64_budget(edge, 1009)
    with pytest.raises(ValueError, match="inexact"):
        check_float64_budget(edge + 1, 1009)


def test_fp_primary_multiplicity_exact_at_p1009_n60():
    # float32 products were inexact here: a planted nilpotent 3-block
    # came back as multiplicity 0
    from padicstats.batched import fp_primary_multiplicity

    p, n = 1009, 60
    gen = Rng(13).generator()
    mats = gen.integers(0, p, size=(4, n, n), dtype=np.int64)
    mats[:, :3, :] = 0
    mats[:, 3:, :3] = 0
    mats[:, 0, 1] = mats[:, 1, 2] = 1  # the Jordan block J_3(0)
    for A in mats:  # elementary similarities spread it over every entry
        for i, j, c in zip(gen.integers(0, n, 400), gen.integers(0, n, 400),
                           gen.integers(1, p, 400)):
            if i != j:
                A[i] = (A[i] + c * A[j]) % p
                A[:, j] = (A[:, j] - c * A[:, i]) % p
    assert (mats != 0).mean() > 0.99
    got = fp_primary_multiplicity(mats, [0, 1], 1, p, _exact_cap(n, 1))
    power = mats.copy()
    for _ in range(6):  # A^64, past the largest multiplicity
        power = np.matmul(power, power) % p
    want = [n - _rank_mod_p(A, p) for A in power.tolist()]
    assert got.tolist() == want
    assert min(want) >= 3


def test_fp_primary_multiplicity_frees_its_float_power_before_elimination(
        monkeypatch):
    # packed rows read the float32 power itself; the elimination copies its
    # input, so it is handed int8 residues and the float buffer is freed
    from padicstats import batched

    seen = []
    rank = batched.batch_rank_mod_p
    monkeypatch.setattr(batched, "batch_rank_mod_p", lambda M, p: (
        seen.append((p, M.shape[1], M.dtype)) or rank(M, p)))
    for p, n in ((3, 63), (3, 64), (5, 6)):
        mats = Rng(p * n).generator().integers(0, p, size=(3, n, n))
        got = batched.fp_primary_multiplicity(mats, [1, 1], 1, p,
                                              _exact_cap(n, 1))
        if n < 10:  # the scalar multiplicity is O(n^4)
            assert got.tolist() == [_exact_multiplicity(A, [1, 1], p)
                                    for A in mats.tolist()]
    assert seen == [(3, 63, np.float32), (3, 64, np.int8), (5, 6, np.int8)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_rank_mod_p_matches_scalar_rank(data):
    from padicstats.batched import batch_rank_mod_p

    # at p = 2^31 - 1 three unreduced update steps would pass 2^63, so the
    # trailing block is reduced before every other step
    p = data.draw(st.sampled_from([2, 3, 5, 1009, 2 ** 31 - 1]))
    n = data.draw(st.integers(1, 6))
    entry = st.one_of(st.integers(max(0, p - 4), p - 1), st.integers(0, p - 1))

    def planted(r):
        # L R with L n x r and R r x n has rank <= r
        L = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                               min_size=n, max_size=n))
        R = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=r, max_size=r))
        return [[sum(L[i][k] * R[k][j] for k in range(r)) % p
                 for j in range(n)] for i in range(n)]

    mats = [planted(data.draw(st.integers(0, n))) for _ in range(data.draw(st.integers(1, 4)))]
    mats.append([[p - 1] * n for _ in range(n)])
    arr = np.array(mats, dtype=np.int64)
    # unreduced entries are reduced first
    lift = data.draw(st.integers(0, 3))
    got = batch_rank_mod_p(arr + p * lift, p)
    assert got.tolist() == [_rank_mod_p(A, p) for A in mats]


def _check_p3_ranks(gen, n, count):
    """batch_rank_mod_p at p = 3 against the scalar rank, on `count`
    planted ranks L R and an all-(p - 1) matrix: as int64 residues, as the
    float32 residues fp_primary_multiplicity passes, and lifted by p times
    entries in [-3, 3]."""
    from padicstats.batched import batch_rank_mod_p

    p = 3
    mats = []
    for r in gen.integers(0, n + 1, size=count):
        L = gen.integers(0, p, size=(n, r), dtype=np.int64)
        R = gen.integers(0, p, size=(r, n), dtype=np.int64)
        mats.append(L @ R % p)
    mats.append(np.full((n, n), p - 1, dtype=np.int64))
    arr = np.array(mats)
    want = [_rank_mod_p(A, p) for A in arr.tolist()]
    assert batch_rank_mod_p(arr, p).tolist() == want
    assert batch_rank_mod_p(arr.astype(np.float32), p).tolist() == want
    lift = gen.integers(-3, 4, size=arr.shape)
    assert batch_rank_mod_p(arr + p * lift, p).tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_rank_mod_p_at_p3_matches_scalar_rank(data):
    # packed F_3 rows up to n = 63, the elimination at n = 64
    n = data.draw(st.integers(1, 64))
    gen = Rng(data.draw(st.integers(0, 2 ** 32 - 1))).generator()
    _check_p3_ranks(gen, n, data.draw(st.integers(1, 3)))


@pytest.mark.parametrize("p", [2, 3])
def test_batch_rank_mod_p_packs_rows_up_to_n63(p, monkeypatch):
    from padicstats import batched

    packed = []
    for name in ("f2_rank", "f3_rank"):
        kernel = getattr(batched, name)
        monkeypatch.setattr(batched, name, lambda *args, kernel=kernel: (
            packed.append(args[-1]) or kernel(*args)))
    for n in (63, 64):
        if p == 3:
            _check_p3_ranks(Rng(n).generator(), n, 2)
        else:
            mats = Rng(n).generator().integers(0, 2, size=(4, n, n))
            assert batched.batch_rank_mod_p(mats, p).tolist() == [
                _rank_mod_p(A, p) for A in mats.tolist()]
    assert set(packed) == {63}


def test_f3_add_and_subtract_on_every_residue_pair():
    # bit k of the planes holds pair k; the sum and difference of each pair
    # come back as residues, with neg within nz
    from padicstats.batched import batch_rank_mod_p, f3_add

    pairs = [(a, b) for a in range(3) for b in range(3)]

    def planes(vals):
        nz = sum(1 << k for k, v in enumerate(vals) if v)
        neg = sum(1 << k for k, v in enumerate(vals) if v == 2)
        return np.array([nz, neg], dtype=np.uint64)

    def residues(xn, xs):
        assert xs & ~xn == 0
        return [(int(xn) >> k & 1) * (1 + (int(xs) >> k & 1))
                for k in range(len(pairs))]

    y = planes([b for _, b in pairs])
    for sign, (yn, ys) in ((1, y), (-1, (y[0], y[1] ^ y[0]))):
        xn, xs = planes([a for a, _ in pairs])[:, None]
        f3_add(xn, xs, yn, ys)
        assert residues(xn[0], xs[0]) == [(a + sign * b) % 3 for a, b in pairs]
    # the elimination's r - v row_i, for every pivot u, value v and pair
    mats = np.array([[[u, a], [v, b]] for u in (1, 2) for v in (1, 2)
                     for a, b in pairs])
    assert batch_rank_mod_p(mats, 3).tolist() == [
        _rank_mod_p(A, 3) for A in mats.tolist()]


@pytest.mark.parametrize("p,coeffs", [
    (2, [0, 1]), (2, [1, 1, 1]), (3, [2, 1]), (3, [1, 0, 1]),
])
def test_primary_multiplicity_kernels_match_exact_reference(p, coeffs):
    from padicstats.batched import f2_primary_multiplicity, fp_primary_multiplicity

    d = len(coeffs) - 1
    mats = Rng(30 + p + d).generator().integers(0, p, size=(40, 8, 8),
                                                dtype=np.int64)
    mats[:10, :, :4] = 0  # x divides the characteristic polynomial
    cap = _exact_cap(8, d)
    if p == 2:
        got = f2_primary_multiplicity(mats, coeffs, d, cap)
    else:
        got = fp_primary_multiplicity(mats, coeffs, d, p, cap)
    want = [_exact_multiplicity(A, coeffs, p) // d for A in mats.tolist()]
    assert got.tolist() == want
    assert any(want)


def test_batch_rank_mod_p_reduces_before_int64_overflow():
    # at p = 2^31 - 1 three unreduced updates of a 16 x 16 elimination
    # would pass 2^63; planted dependent rows keep the ranks below 16
    from padicstats.batched import batch_rank_mod_p

    p = 2 ** 31 - 1
    gen = Rng(14).generator()
    mats = gen.integers(0, p, size=(8, 16, 16), dtype=np.int64)
    for b in range(4):
        mats[b, 8 + b:] = mats[b, : 8 - b] * 3 % p
    got = batch_rank_mod_p(mats, p)
    assert got.tolist() == [_rank_mod_p(A, p) for A in mats.tolist()]
    assert got.tolist() == [8 + b for b in range(4)] + [16] * 4


def _prime_at_most(x):
    from padicstats.padic_core import is_prime

    while not is_prime(x):
        x -= 1
    return x


def _prime_above(x):
    from padicstats.padic_core import is_prime

    x += 1
    while not is_prime(x):
        x += 1
    return x


def _rank_type_edges():
    """For each elimination type t: (the largest p whose steps (p - 1) p fit
    t, t) and (the next prime, the next wider type)."""
    edges = []
    types = [np.int8, np.int16, np.int32, np.int64]
    for t, wider in zip(types, types[1:] + [None]):
        top = np.iinfo(t).max
        p = _prime_at_most((1 + math.isqrt(1 + 4 * top)) // 2)
        assert (p - 1) * p <= top < p * _prime_above(p)
        edges += [(p, t), (_prime_above(p), wider)]
    return edges


@pytest.mark.parametrize("p,dtype", _rank_type_edges())
def test_batch_rank_mod_p_exact_at_each_type_edge(p, dtype):
    # the largest p of each type takes one unreduced step before it must
    # reduce, so at n = 12 the lazy reduction fires at every other step; the
    # next prime's first step would overflow that type, and runs in the next
    # wider one; past int64 the kernel refuses
    from padicstats.batched import _rank_dtype, batch_rank_mod_p

    if dtype is None:
        with pytest.raises(ValueError, match="too large"):
            batch_rank_mod_p(np.zeros((1, 2, 2), dtype=np.int64), p)
        return
    assert _rank_dtype(p) is dtype
    gen = Rng(p % 1000).generator()
    mats = p - 1 - gen.integers(0, min(p, 4), size=(8, 12, 12), dtype=np.int64)
    for b in range(4):  # repeated and negated rows keep the ranks below 12
        mats[b, 6 + b:] = mats[b, : 6 - b]
        mats[b, -1] = (p - mats[b, 0]) % p
    got = batch_rank_mod_p(mats, p)
    assert got.tolist() == [_rank_mod_p(A, p) for A in mats.tolist()]
    assert max(got[:4]) < 12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_f2_rank_matches_scalar_rank(data):
    # planted ranks L R, an all-ones matrix and a full top column, at every
    # packed width n = 1..63
    from padicstats.batched import f2_pack, f2_rank

    n = data.draw(st.integers(1, 63))
    gen = Rng(data.draw(st.integers(0, 2 ** 32 - 1))).generator()
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, n))
        L = gen.integers(0, 2, size=(n, r), dtype=np.int64)
        R = gen.integers(0, 2, size=(r, n), dtype=np.int64)
        mats.append(L @ R % 2)
    mats.append(np.ones((n, n), dtype=np.int64))
    top = mats[0].copy()
    top[:, n - 1] = 1
    mats.append(top)
    arr = np.array(mats)
    got = f2_rank(f2_pack(arr), n)
    assert got.tolist() == [_rank_mod_p(A, 2) for A in arr.tolist()]


def test_f2_rank_pivots_on_the_top_bit():
    # at n = 63 column 62 is the top bit of every packed row
    from padicstats.batched import f2_pack, f2_rank

    n = 63
    gen = Rng(15).generator()
    only_top = np.zeros((n, n), dtype=np.int64)
    only_top[:, 62] = 1
    last_row = np.zeros((n, n), dtype=np.int64)
    last_row[62, 62] = 1
    planted = gen.integers(0, 2, size=(n, 20)) @ gen.integers(0, 2, size=(20, n)) % 2
    planted[:, 62] = 1
    mats = np.array([only_top, last_row, np.eye(n, dtype=np.int64),
                     np.eye(n, dtype=np.int64)[::-1], planted])
    got = f2_rank(f2_pack(mats), n)
    assert got.tolist() == [_rank_mod_p(A, 2) for A in mats.tolist()]
    assert got.tolist()[:4] == [1, 1, 63, 63]


def _f2_matmul_rows(A, B, n):
    """Row-packed A @ B over F_2, one column of A at a time: the oracle of
    the Four-Russians batched.f2_matmul."""
    C = np.zeros_like(A)
    one = np.uint64(1)
    for j in range(n):
        mask = (A >> np.uint64(j)) & one
        C ^= mask * B[:, j][:, None]
    return C


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_f2_matmul_matches_the_row_loop(data):
    # every packed width n = 1..63 (n = 63 sets bit 62), batches of 1..64,
    # distinct factors and squarings; an all-ones pair sets every bit
    from padicstats.batched import f2_matmul, f2_pack

    n = data.draw(st.integers(1, 63))
    size = data.draw(st.integers(1, 64))
    gen = Rng(data.draw(st.integers(0, 2 ** 32 - 1))).generator()
    a = gen.integers(0, 2, size=(size, n, n), dtype=np.int64)
    b = gen.integers(0, 2, size=(size, n, n), dtype=np.int64)
    a[0] = b[0] = 1
    A, B = f2_pack(a), f2_pack(b)
    assert np.array_equal(f2_matmul(A, B, n), _f2_matmul_rows(A, B, n))
    assert np.array_equal(f2_matmul(A, A, n), _f2_matmul_rows(A, A, n))
    assert np.array_equal(f2_matmul(A, B, n), f2_pack(a @ b % 2))


@pytest.mark.parametrize("size", [1, 64])
def test_f2_matmul_at_the_widest_rows(size):
    from padicstats.batched import f2_matmul, f2_pack

    n = 63
    mats = Rng(size).generator().integers(0, 2, size=(size, n, n), dtype=np.int64)
    mats[:, :, n - 1] = 1  # bit 62 set in every row
    A = f2_pack(mats)
    assert np.array_equal(f2_matmul(A, A, n), _f2_matmul_rows(A, A, n))
    assert np.array_equal(f2_matmul(A, A, n), f2_pack(mats @ mats % 2))


@pytest.mark.parametrize("seed", [1, 7, 4242])
@pytest.mark.parametrize("chunk", [0, 3])
@pytest.mark.parametrize("size", [1, 17, 4096])
def test_f2_sampler_reads_the_int64_stream(seed, chunk, size):
    # the p = 2 island draws its bits as the top bits of 32-bit words; this
    # holds while numpy's bounded sampler spends one such word per entry
    # of a range-2 draw, so a change there fails here by name
    from padicstats.batched import sample_f2_matrices

    n = 50
    gen, ref = Rng(seed, chunk).generator(), Rng(seed, chunk).generator()
    bits = sample_f2_matrices(gen, size, n)
    want = ref.integers(0, 2, (size, n, n), dtype=np.int64) != 0
    assert bits.dtype == bool
    assert np.array_equal(bits, want)
    # and both streams stop at the same place
    assert gen.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)


@pytest.mark.parametrize("key", [(1, 0), (7, 3), (4242, 0)])
@pytest.mark.parametrize("size", [1, 209, 1024])
@pytest.mark.parametrize("p", [3, 5, 1009, 2 ** 31 - 1])
def test_int32_draw_reads_the_int64_stream(p, size, key):
    # the odd-p island draws its residues as int32; this holds while
    # numpy's bounded sampler takes the same 32-bit path for both types
    # below 2^31, so a change there fails here by name
    n = 50
    gen, ref = Rng(*key).generator(), Rng(*key).generator()
    got = gen.integers(0, p, size=(size, n, n), dtype=np.int32)
    want = ref.integers(0, p, size=(size, n, n), dtype=np.int64)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    # and both streams stop at the same place
    assert gen.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)


def _edge(bound, p_max):
    """A prime p <= p_max and the largest n with n (p - 1)^2 <= bound."""
    p = _prime_at_most(p_max)
    n = bound // (p - 1) ** 2
    assert n * (p - 1) ** 2 <= bound < (n + 1) * (p - 1) ** 2
    return p, n


_F32_EDGE = _edge(2 ** 24, 2 ** 11)  # p = 2039, n = 4
_F64_EDGE = _edge(2 ** 53, 2 ** 25)


@pytest.mark.parametrize("p,n,dtype", [
    pytest.param(p, n, dtype, id=f"{p}-{n}") for p, n, dtype in [
        (3, 50, np.float32), (*_F32_EDGE, np.float32),
        (_F32_EDGE[0], _F32_EDGE[1] + 1, np.float64),
        (1009, 60, np.float64), (*_F64_EDGE, np.float64),
    ]
])
def test_fp_poly_power_matches_a_power_reduced_at_every_step(p, n, dtype):
    from padicstats.batched import _fp_poly_power, check_float64_budget

    check_float64_budget(n, p)
    gen = Rng(16).generator()
    mats = gen.integers(max(0, p - 2 ** 10), p, size=(6, n, n), dtype=np.int64)
    for low in ([p - 1], [p - 2, p - 1], [1, 0], [1, 0, p - 1, 1]):
        # F = x^d + sum low[i] x^i by Horner, then 3 squarings, all in int64
        # with a reduction after every product
        M = mats.copy()
        M[:, range(n), range(n)] = (M[:, range(n), range(n)] + low[-1]) % p
        for c in reversed(low[:-1]):
            M = np.matmul(M, mats) % p
            M[:, range(n), range(n)] = (M[:, range(n), range(n)] + c) % p
        for _ in range(3):
            M = np.matmul(M, M) % p
        got = _fp_poly_power(mats, low, p, 3)
        assert got.dtype == dtype
        assert (got.astype(np.int64) == M).all()


@pytest.mark.parametrize("p,n", [(5, 61), (5801, 3)])
def test_fp_poly_power_reduces_before_the_first_inexact_square(p, n):
    # M = (p - 2) J squares to n (p - 2)^2 J and then to n^3 (p - 2)^4 J,
    # odd and within 4x past the exact bound: (2^24, 2^26] in float32 at
    # (5, 61), (2^53, 2^55] in float64 at (5801, 3).  Only a reduction
    # before the second square keeps it exact, and the bound that calls for
    # it, n top^2 with top = n (p - 1)^2, is also within 4x of the exact one.
    # (At p = 5003 the float64 rounding and the inexact reduction of the
    # rounded value cancel, so a loose bound went unseen there.)
    from padicstats.batched import (
        MAX_FLOAT32_EXACT, MAX_FLOAT64_EXACT, _fp_dtype, _fp_poly_power)

    dtype = _fp_dtype(n, p)
    exact = MAX_FLOAT32_EXACT if dtype is np.float32 else MAX_FLOAT64_EXACT
    fourth = n ** 3 * (p - 2) ** 4
    assert fourth % 2 == 1 and exact < fourth <= 4 * exact
    assert exact < n * (n * (p - 1) ** 2) ** 2 <= 4 * exact
    assert dtype is (np.float32 if p == 5 else np.float64)
    got = _fp_poly_power(np.full((2, n, n), p - 2), [0], p, 2)
    assert (got == fourth % p).all()


@pytest.mark.parametrize("p,n", [(3, 50), (5003, 3)])
def test_fp_poly_power_reduces_entries_outside_0_p(p, n):
    # negative entries and entries >= p, past float32's and float64's exact
    # range, are reduced before the cast; at cap 0 the off-diagonal entries
    # are returned as they are
    from padicstats.batched import _fp_poly_power, fp_primary_multiplicity

    gen = Rng(17).generator()
    mats = gen.integers(0, p, size=(4, n, n), dtype=np.int64)
    lift = gen.integers(-(2 ** 62 // p), 2 ** 62 // p, size=mats.shape)
    lifted = mats + p * lift
    assert lifted.min() < -2 ** 53 and lifted.max() > 2 ** 53
    for low, cap in (([p - 1], 0), ([p - 1], 3), ([1, 0, p - 1], 1)):
        want = _fp_poly_power(mats, low, p, cap)
        assert np.array_equal(_fp_poly_power(lifted, low, p, cap), want)
        assert 0 <= want.min() and want.max() < p
    assert np.array_equal(fp_primary_multiplicity(lifted, [0, 1], 1, p, 3),
                          fp_primary_multiplicity(mats, [0, 1], 1, p, 3))


def _planted_island_batch(p, seed):
    """16 x 16 matrices mod p, half with a nilpotent Jordan block of size
    10, so that x has multiplicity >= 10 there."""
    gen = Rng(seed).generator()
    mats = gen.integers(0, p, size=(64, 16, 16), dtype=np.int64)
    mats[:32, :10, :] = 0
    mats[:32, 10:, :10] = 0
    for i in range(9):
        mats[:32, i, i + 1] = 1
    return mats


@pytest.mark.parametrize("p", [2, 3])
def test_island_cap_keeps_the_capped_histogram(p):
    from padicstats.batched import f2_primary_multiplicity, fp_primary_multiplicity
    from padicstats.registry import ISLAND_CAP_POW, ISLAND_MAX_J

    assert 2 ** ISLAND_CAP_POW >= ISLAND_MAX_J + 1
    mats = _planted_island_batch(p, 20 + p)
    cap = _exact_cap(mats.shape[1], 1)
    if p == 2:
        full = f2_primary_multiplicity(mats, [0, 1], 1, cap)
        capped = f2_primary_multiplicity(mats, [0, 1], 1, ISLAND_CAP_POW)
    else:
        full = fp_primary_multiplicity(mats, [0, 1], 1, p, cap)
        capped = fp_primary_multiplicity(mats, [0, 1], 1, p, ISLAND_CAP_POW)
    assert (full[:32] >= 10).all()
    assert (capped[:32] < full[:32]).all()  # K = 8 cuts the 10-block short
    top = ISLAND_MAX_J + 1
    assert (np.minimum(capped, top) == np.minimum(full, top)).all()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_charpoly_exact_at_int64_budget_edge(data):
    from padicstats.batched import (
        MAX_INT64_PRODUCT,
        batch_charpoly,
        check_modulus_budget,
    )

    n = data.draw(st.integers(1, 6))
    # the largest modulus the budget admits at this n
    m = math.isqrt(MAX_INT64_PRODUCT // n) + 1
    assert n * (m - 1) ** 2 <= MAX_INT64_PRODUCT < n * m ** 2
    # entries near m - 1 make the products, and their sums, largest
    entry = st.one_of(st.integers(m - 2 ** 16, m - 1), st.integers(0, m - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    mats = data.draw(st.lists(st.lists(row, min_size=n, max_size=n),
                              min_size=1, max_size=3))
    mats.append([[m - 1] * n for _ in range(n)])  # the worst case
    got = batch_charpoly(np.array(mats, dtype=np.int64), m)
    for A, coeffs in zip(mats, got):
        want = berkowitz_charpoly(
            A, add=lambda a, b: (a + b) % m, mul=lambda a, b: (a * b) % m,
            neg=lambda a: (-a) % m, zero=0, one=1,
        )
        assert coeffs.tolist() == want
    # one past the edge is refused, not wrapped
    check_modulus_budget(n, m)
    with pytest.raises(ValueError, match="too large"):
        check_modulus_budget(n, m + 1)
    with pytest.raises(ValueError, match="too large"):
        batch_charpoly(np.zeros((1, n, n), dtype=np.int64), m + 1)


@pytest.mark.parametrize("dtype,top,p", [
    pytest.param(dtype, top, p, id=f"{dtype.__name__}-{p}")
    for dtype, top in [(np.float32, 2 ** 24), (np.float64, 2 ** 53)]
    # the largest prime p with 4 (p - 1)^2 <= top
    for p in (3, 1009, _prime_at_most(math.isqrt(top // 4) + 1))
])
def test_float_mod_inplace_is_exact(dtype, top, p):
    from padicstats.batched import float_mod_inplace

    gen = Rng(p).generator()
    ks = np.concatenate([
        np.arange(0, 64), gen.integers(0, top // p + 1, 2000),
        np.arange(top // p - 64, top // p + 1),
    ])
    vals = {int(v) for k in ks.tolist() for v in (k * p - 1, k * p, k * p + 1)}
    vals |= set(range(top - 256, top + 1))  # next to the type's bound
    vals |= set(gen.integers(0, top + 1, 2000).tolist())
    ints = sorted(v for v in vals if 0 <= v <= top)
    X = np.array(ints, dtype=dtype)
    assert X.astype(np.int64).tolist() == ints  # every input is exact
    scratch = np.full_like(X, np.nan)
    out = float_mod_inplace(X, p, scratch)
    assert out is X
    assert X.astype(np.int64).tolist() == [v % p for v in ints]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_charpoly_quad_exact_at_int64_budget_edge(data):
    from padicstats.batched import (
        MAX_INT64_PRODUCT,
        batch_charpoly_quad,
        check_quad_budget,
    )
    from oracles import QuotientRing

    n = data.draw(st.integers(1, 5))
    c = data.draw(st.integers(0, 40))
    # the largest modulus check_quad_budget admits for x^2 - c at this n
    m = math.isqrt(MAX_INT64_PRODUCT // (2 * n * (1 + c))) + 1
    assert c < m
    assert 2 * n * (1 + c) * (m - 1) ** 2 <= MAX_INT64_PRODUCT
    assert 2 * n * (1 + c) * m ** 2 > MAX_INT64_PRODUCT
    entry = st.one_of(st.integers(m - 2 ** 12, m - 1), st.integers(0, m - 1))
    row = st.lists(st.tuples(entry, entry), min_size=n, max_size=n)
    mats = data.draw(st.lists(st.lists(row, min_size=n, max_size=n),
                              min_size=1, max_size=3))
    mats.append([[(m - 1, m - 1)] * n for _ in range(n)])  # the worst case
    arr = np.array(mats, dtype=np.int64)
    cu, cv = batch_charpoly_quad(arr[..., 0], arr[..., 1], c, m)
    ring = QuotientRing(m, 1, (-c, 0, 1))  # Z/m[x]/(x^2 - c)
    for A, u, v in zip(mats, cu.tolist(), cv.tolist()):
        want = berkowitz_charpoly(
            A, add=ring.add, mul=ring.mul, neg=lambda a: ring.sub(ring.zero, a),
            zero=ring.zero, one=ring.one,
        )
        assert list(zip(u, v)) == want
    # one past the edge is refused, not wrapped
    check_quad_budget(n, c, m)
    with pytest.raises(ValueError, match="too large"):
        check_quad_budget(n, c, m + 1)
    zeros = np.zeros((1, n, n), dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        batch_charpoly_quad(zeros, zeros, c, m + 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_valuation_matches_raw_valuation(data):
    from padicstats.batched import batch_valuation
    from padicstats.padic_core import SATURATED, raw_valuation

    p = data.draw(st.sampled_from([2, 3, 5, 7, 1009]))
    top = 1
    while p ** (top + 1) <= 2 ** 62:
        top += 1
    N = data.draw(st.integers(1, top))
    m = p ** N
    # units times p^k, with k up to N + 2 so that some residues saturate
    planted = st.builds(lambda u, k, t: u * p ** k + t * m,
                        st.integers(1, 2 ** 20), st.integers(0, N + 2),
                        st.integers(-4, 4))
    raw = st.integers(-(2 ** 62), 2 ** 62)
    vals = data.draw(st.lists(st.one_of(planted, raw), min_size=1, max_size=40))
    vals = [v for v in vals if abs(v) < 2 ** 63] + [0, m, -m]
    got = batch_valuation(np.array(vals, dtype=np.int64), p, N)
    want = []
    for v in vals:
        r = raw_valuation(v, p, m)
        want.append(N if r is SATURATED else r)
    assert got.tolist() == want


def _smith_mats(data, p, N, n):
    """A batch mod p^N of entries scaled by random p^k, plus an all-zero
    and a rank-one matrix, so that pivots near and at saturation occur."""
    m = p ** N
    entry = st.builds(lambda u, k: u * p ** k % m,
                      st.integers(0, m - 1), st.integers(0, N))
    line = st.lists(entry, min_size=n, max_size=n)
    mats = data.draw(st.lists(st.lists(line, min_size=n, max_size=n),
                              min_size=1, max_size=8))
    col, row = data.draw(line), data.draw(line)
    mats.append([[0] * n for _ in range(n)])
    mats.append([[c * r % m for r in row] for c in col])
    return np.array(mats, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_smith_parts_matches_scalar_oracle(data):
    from padicstats.batched import batch_smith_parts

    p = data.draw(st.sampled_from([2, 3, 5]))
    N = data.draw(st.integers(1, 8))
    mats = _smith_mats(data, p, N, data.draw(st.integers(1, 5)))
    parts, sat = batch_smith_parts(mats, p, N)
    for A, got, s in zip(mats.tolist(), parts.tolist(), sat.tolist()):
        assert (got, s) == oracles.smith_parts_raw(A, p, N)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_smith_parts_quad_matches_scalar_oracle(data):
    from padicstats.batched import batch_smith_parts_quad

    p = data.draw(st.sampled_from([3, 5]))
    N = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 5))
    ramified = data.draw(st.booleans())
    gamma = p if ramified else 2  # 2 is a non-residue mod 3 and mod 5
    U, V = _smith_mats(data, p, N, n), _smith_mats(data, p, N, n)
    B = min(len(U), len(V))
    U, V = U[:B], V[:B]
    parts, sat = batch_smith_parts_quad(U, V, p, N, ramified, gamma)
    for u, v, got, s in zip(U.tolist(), V.tolist(), parts.tolist(), sat.tolist()):
        assert (got, s) == oracles.smith_parts_quadratic(u, v, p, N, ramified,
                                                         gamma)


@pytest.mark.parametrize("p,N,ramified,gamma", [
    (2, 31, None, 0),      # (2^31 - 1)^2 <= 2^62
    (3, 19, False, 2),     # 3 (3^19 - 1)^2 <= 2^62
    (3, 18, True, 3),      # 4 (3^18 - 1)^2 <= 2^62
])
def test_smith_kernels_exact_at_their_budget_edge(p, N, ramified, gamma):
    from padicstats.batched import (
        batch_smith_parts,
        batch_smith_parts_quad,
        check_smith_budget,
    )

    m = p ** N
    check_smith_budget(m, gamma)
    with pytest.raises(ValueError, match="too large"):
        check_smith_budget(p * m, gamma)
    # entries next to the modulus give the largest products
    gen = Rng(13).generator()
    U, V = ((m - 1 - gen.integers(0, 3, size=(64, 3, 3))) * p ** gen.integers(
        0, 2, size=(64, 3, 3)) % m for _ in range(2))
    if ramified is None:
        parts, sat = batch_smith_parts(U, p, N)
        want = [oracles.smith_parts_raw(A, p, N) for A in U.tolist()]
    else:
        parts, sat = batch_smith_parts_quad(U, V, p, N, ramified, gamma)
        want = [oracles.smith_parts_quadratic(u, v, p, N, ramified, gamma)
                for u, v in zip(U.tolist(), V.tolist())]
    assert list(zip(parts.tolist(), sat.tolist())) == want


def test_check_smith_budget_refuses_the_first_modulus_past_its_edge():
    from padicstats.batched import MAX_INT64_PRODUCT, check_smith_budget

    for gamma in (0, 2, 3, 7):
        # the largest modulus with (1 + gamma) (modulus - 1)^2 <= 2^62
        edge = math.isqrt(MAX_INT64_PRODUCT // (1 + gamma)) + 1
        check_smith_budget(edge, gamma)
        with pytest.raises(ValueError, match="too large"):
            check_smith_budget(edge + 1, gamma)


def test_smith_kernels_refuse_a_modulus_past_their_budget():
    # at 3^30 the kernels' products pass int64, so they refuse the batch
    # instead of returning parts computed from wrapped values
    from padicstats.batched import batch_smith_parts, batch_smith_parts_quad

    U = Rng(30).generator().integers(0, 3 ** 30, size=(200, 4, 4))
    with pytest.raises(ValueError, match="int64"):
        batch_smith_parts(U, 3, 30)
    with pytest.raises(ValueError, match="int64"):
        batch_smith_parts_quad(U[:, 1:, 1:], U[:, :3, :3], 3, 30, False, 2)


def test_rng_streams():
    g1 = Rng(5, stream_id=0).generator()
    g2 = Rng(5, stream_id=0).generator()
    g3 = Rng(5, stream_id=1).generator()
    x1 = g1.integers(0, 2 ** 40, size=8)
    x2 = g2.integers(0, 2 ** 40, size=8)
    x3 = g3.integers(0, 2 ** 40, size=8)
    assert (x1 == x2).all()
    assert (x1 != x3).any()


def test_smith_quadratic_block_oracle():
    # the quadratic ring embeds in 2n x 2n base matrices; partitions match
    gen = Rng(41).generator()
    p, N, c = 3, 8, 2
    checked_u = checked_r = 0
    for _ in range(150):
        n = 3
        # entries u + v g scaled by random 3^k give pivots near saturation
        scale = 3 ** gen.integers(0, N, size=(n, n))
        U, V = ((gen.integers(0, 3 ** N, size=(n, n), dtype=np.int64) * scale
                 % 3 ** N).tolist() for _ in range(2))

        def block(gamma):
            B = [[0] * (2 * n) for _ in range(2 * n)]
            for i in range(n):
                for j in range(n):
                    u, v = U[i][j], V[i][j]
                    B[2 * i][2 * j] = u
                    B[2 * i][2 * j + 1] = (gamma * v) % 3 ** N
                    B[2 * i + 1][2 * j] = v
                    B[2 * i + 1][2 * j + 1] = u
            return B

        parts, sat = smith_parts_quadratic(U, V, p, N, False, c)
        bparts, bsat = smith_parts_raw(block(c), p, N)
        if not sat and not bsat:
            assert sorted(x for x in parts for _ in range(2)) == sorted(bparts)
            checked_u += 1
        parts, sat = smith_parts_quadratic(U, V, p, N, True, 3)
        bparts, bsat = smith_parts_raw(block(3), p, N)
        if not sat and not bsat:
            want = sorted([x // 2 for x in parts] + [(x + 1) // 2 for x in parts])
            assert want == sorted(bparts)
            checked_r += 1
    assert checked_u > 100 and checked_r > 100


def test_cokernel_markov_law_smoke():
    # empirical first transition of the level-rank chain at p=2, n=3
    from padicstats import closed_forms as cf

    gen = Rng(55).generator()
    p, n, N, trials = 2, 3, 6, 30_000
    parts, _ = batch_smith_parts(sample_matrices(gen, trials, n, p, N), p, N)
    counts = np.bincount((parts >= 1).sum(axis=1), minlength=n + 1)
    mp = cf.MarkovParams(t=0.5, u=1.0)
    for a in range(n + 1):
        want = cf.markov_kernel_prob(mp, n, a).value
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(counts[a] / trials - want) < 4 * se + 1e-4
