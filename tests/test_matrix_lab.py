import math

import numpy as np
import pytest

from padicstats.matrix_lab import (
    GL,
    MAT,
    PadicMatrix,
    Partition,
    Rng,
    SaturatedDeterminant,
    charpoly,
    charpoly_coefficients,
    determinant,
    det_valuation,
    sample_matrix,
    smith_partition,
    smith_parts_quadratic,
    smith_parts_raw,
)
from padicstats.padic_core import PadicPoly, poly_from_roots


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


def test_partition_basics():
    lam = Partition((3, 1, 1, 0, 0))
    assert lam.parts == (3, 1, 1)
    assert lam.size == 5
    assert lam.conjugate_rank(1) == 3
    assert lam.conjugate_rank(2) == 1
    assert lam.conjugate().parts == (3, 1, 1)
    assert Partition(()).conjugate().parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_charpoly_examples():
    A = PadicMatrix.from_rows(5, 3, [[0, 1], [1, 0]])
    assert charpoly(A).coeffs == ((-1) % 125, 0, 1)
    diag = PadicMatrix.from_rows(3, 3, [[2, 0, 0], [0, 5, 0], [0, 0, 1]])
    assert charpoly(diag).coeffs == poly_from_roots(3, 3, [2, 5, 1]).coeffs


def test_charpoly_constant_term_is_det_cofactor_oracle():
    gen = Rng(42).generator()
    for _ in range(50):
        rows = [[int(x) for x in gen.integers(0, 27, size=3)] for _ in range(3)]
        A = PadicMatrix.from_rows(3, 3, rows)
        cp = charpoly(A)
        det = _cofactor_det(rows, 27)
        c0 = cp.coeffs[0] if cp.coeffs else 0
        assert determinant(A) == det
        assert c0 == (-det) % 27  # (-1)^n c_0 = det, n = 3


def test_conjugation_invariance():
    gen = Rng(11).generator()
    cases = 0
    while cases < 100:
        n = int(gen.integers(2, 5))
        p = int(gen.choice([2, 3, 5]))
        N = 3
        m = p ** N
        A = sample_matrix(n, p, N, MAT, gen)
        T = sample_matrix(n, p, N, GL, gen)
        t_rows = [list(r) for r in T.entries]
        tinv = _invert_mod(t_rows, m)
        b = _matmul_mod(_matmul_mod(t_rows, [list(r) for r in A.entries], m), tinv, m)
        assert charpoly(PadicMatrix.from_rows(p, N, b)).coeffs == charpoly(A).coeffs
        cases += 1


def test_smith_partition_examples():
    A = PadicMatrix.from_rows(3, 4, [[3, 0], [0, 1]])
    res = smith_partition(A)
    assert res.partition.parts == (1,) and not res.saturated
    A = PadicMatrix.from_rows(3, 4, [[9, 0, 0], [0, 3, 0], [0, 0, 1]])
    assert smith_partition(A).partition.parts == (2, 1)
    A = PadicMatrix.from_rows(2, 3, [[2, 0], [0, 2]])
    res = smith_partition(A)
    assert res.partition.parts == (1, 1)
    assert res.partition.conjugate_rank(1) == 2
    assert res.partition.conjugate_rank(2) == 0
    zero = PadicMatrix.from_rows(2, 2, [[0, 0], [0, 0]])
    res = smith_partition(zero)
    assert res.saturated and res.partition.parts == (2, 2)


def test_partition_determinant_consistency():
    # |partition| = val(charpoly at 0) whenever both are determined
    gen = Rng(9).generator()
    checked = 0
    for _ in range(700):
        n = int(gen.integers(1, 5))
        p = int(gen.choice([2, 3]))
        N = 6
        A = sample_matrix(n, p, N, MAT, gen)
        res = smith_partition(A)
        cp = charpoly(A)
        c0 = cp.coefficient(0)
        if res.saturated or c0.is_saturated:
            continue
        assert res.partition.size == c0.valuation
        assert det_valuation(A) == c0.valuation
        checked += 1
    assert checked >= 500


def test_det_valuation_base_and_saturation():
    A = PadicMatrix.from_rows(3, 4, [[3, 1], [0, 1]])
    assert det_valuation(A) == 1
    zero = PadicMatrix.from_rows(2, 2, [[0, 0], [0, 0]])
    with pytest.raises(SaturatedDeterminant):
        det_valuation(zero)


def test_det_valuation_quotient_ring():
    # 1x1 matrix [x] over Z/5^3[x]/(x^2 - 2): norm of det is Res(Z, x) = -2
    Z = PadicPoly.from_ints(5, 3, (-2, 0, 1))
    A = PadicMatrix.from_rows(5, 3, [[(0, 1)]], quotient=Z)
    assert det_valuation(A) == 0
    # [x] with Z = x^2 - 5: Res = -5, valuation 1
    Z = PadicPoly.from_ints(5, 3, (-5, 0, 1))
    A = PadicMatrix.from_rows(5, 3, [[(0, 1)]], quotient=Z)
    assert det_valuation(A) == 1


def test_quotient_charpoly_against_padicpoly_arithmetic():
    # the quotient-ring characteristic polynomial of diag(x, x) is (y - x)^2
    Z = PadicPoly.from_ints(3, 4, (-2, 0, 1))
    A = PadicMatrix.from_rows(3, 4, [[(0, 1), (0, 0)], [(0, 0), (0, 1)]], quotient=Z)
    coeffs = charpoly_coefficients(A)
    # y^2 - 2x y + x^2 with x^2 = 2
    assert coeffs[0] == (1, 0)
    assert coeffs[1] == (0, (-2) % 81)
    assert coeffs[2] == (2, 0)


def test_sampling_determinism_and_gl():
    a = sample_matrix(2, 2, 3, MAT, Rng(7))
    b = sample_matrix(2, 2, 3, MAT, Rng(7))
    assert a.entries == b.entries
    c = sample_matrix(2, 2, 3, MAT, Rng(8))
    assert a.entries != c.entries
    g = sample_matrix(1, 2, 1, GL, Rng(9))
    assert g.entries == ((1,),)


def test_gl_acceptance_rate():
    # fraction of invertible 2x2 residue matrices is |GL_2(F_2)|/16 = 6/16
    gen = Rng(100).generator()
    from padicstats.matrix_lab import _rank_mod_p

    trials = 100_000
    raw = gen.integers(0, 2, size=(trials, 2, 2))
    hits = sum(1 for i in range(trials) if _rank_mod_p(raw[i].tolist(), 2) == 2)
    want = 6 / 16
    se = math.sqrt(want * (1 - want) / trials)
    assert abs(hits / trials - want) < 3 * se


def test_fp_primary_multiplicity_refuses_inexact_float32():
    from padicstats.batched import batch_rank_mod_p, fp_primary_multiplicity

    # n (p - 1)^2 <= 2^24 holds up to n = 16 at p = 1009
    p = 1009
    gen = Rng(12).generator()
    mats = gen.integers(0, p, size=(3, 16, 16), dtype=np.int64)
    mats[:, :, :4] = 0  # a kernel of dimension >= 4 for the factor x
    got = fp_primary_multiplicity(mats, [0, 1], 1, p)
    power = mats.copy()
    for _ in range(4):  # A^16, past the largest multiplicity
        power = np.matmul(power, power) % p
    assert (got == 16 - batch_rank_mod_p(power, p)).all()
    assert (got >= 4).all()
    with pytest.raises(ValueError, match="inexact"):
        fp_primary_multiplicity(np.zeros((1, 17, 17), dtype=np.int64), [0, 1], 1, p)


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
        U = gen.integers(0, 3 ** N, size=(n, n), dtype=np.int64).tolist()
        V = gen.integers(0, 3 ** N, size=(n, n), dtype=np.int64).tolist()

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

        parts, sat = smith_parts_quadratic(
            [r[:] for r in U], [r[:] for r in V], p, N, False, c
        )
        bparts, bsat = smith_parts_raw(block(c), p, N)
        if not sat and not bsat:
            assert sorted(x for x in parts for _ in range(2)) == sorted(bparts)
            checked_u += 1
        parts, sat = smith_parts_quadratic(
            [r[:] for r in U], [r[:] for r in V], p, N, True, 3
        )
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
    counts = np.zeros(n + 1)
    for _ in range(trials):
        A = sample_matrix(n, p, N, MAT, gen)
        res = smith_partition(A)
        counts[res.partition.conjugate_rank(1)] += 1
    mp = cf.MarkovParams(t=0.5, u=1.0)
    for a in range(n + 1):
        want = cf.markov_kernel_prob(mp, n, a).value
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(counts[a] / trials - want) < 4 * se + 1e-4
