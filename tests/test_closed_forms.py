import math

import numpy as np
import pytest

from padicstats import closed_forms as cf, root_census
from padicstats.closed_forms import (
    INF,
    DivergentParameters,
    InvalidParams,
    MarkovParams,
    SingularConvention,
    UnknownFormula,
    andrews_gordon_expectation,
    eval_formula,
    markov_kernel_prob,
    markov_matrix_m,
    markov_sample_path,
    markov_spectral,
    markov_t_moment,
    qpoch,
    theta3,
)
from padicstats.matrix_lab import Rng

PARAM_GRID = [(0.5, 1.0), (1 / 3, 1.0), (0.5, 0.25), (1 / 3, 1.5)]


def test_qpoch_finite():
    # (a;t)_n = prod_{i=0}^{n-1} (1 - a t^i)
    assert qpoch(0.5, 0.5, 1).value == 0.5
    assert qpoch(0.5, 0.5, 2).value == 0.5 * 0.75
    assert qpoch(0.25, 0.5, 0).value == 1.0
    assert qpoch(0.0, 0.9).value == 1.0


def test_qpoch_infinite_against_direct_product():
    direct = 1.0
    for k in range(60):
        direct *= 1 - 0.5 * 0.5 ** k
    v = qpoch(0.5, 0.5)
    assert abs(v.value - direct) < 1e-12
    assert v.abs_tol <= 1e-12
    with pytest.raises(DivergentParameters):
        qpoch(0.5, 1.0)


def test_qpoch_negative_one_convention():
    # (a;t)_{-1} = 1/(1 - a/t); for a = u t this is 1/(1-u)
    u, t = 0.25, 0.5
    assert qpoch(u * t, t, -1).value == pytest.approx(1 / (1 - u))


def test_theta_forms_agree():
    s = theta3(-math.sqrt(2), 0.5)
    p = theta3(-math.sqrt(2), 0.5, form="product")
    assert abs(s.value - p.value) < 1e-12
    for z in (1.3, -0.7, 2.0):
        s = theta3(z, 0.3)
        pr = theta3(z, 0.3, form="product")
        assert abs(s.value - pr.value) < 1e-11


def test_theta_small_t_limit():
    assert theta3(1.3, 1e-13).value == pytest.approx(1.0, abs=1e-6)


def test_kernel_row_sums():
    for t, u in PARAM_GRID:
        mp = MarkovParams(t=t, u=u)
        for a in (0, 1, 2, 5, 17, 30):
            total = sum(markov_kernel_prob(mp, a, b).value for b in range(a + 1))
            assert abs(total - 1.0) < 1e-12
        total_inf = sum(markov_kernel_prob(mp, INF, b).value for b in range(200))
        assert abs(total_inf - 1.0) < 1e-12


def test_kernel_values():
    mp = MarkovParams(t=0.5, u=1.0)
    assert markov_kernel_prob(mp, 1, 0).value == pytest.approx(0.5)
    assert markov_kernel_prob(mp, 1, 1).value == pytest.approx(0.5)
    assert markov_kernel_prob(mp, 3, 3).value == pytest.approx(0.5 ** 9)
    assert markov_kernel_prob(mp, 2, 3).value == 0.0
    k0 = markov_kernel_prob(mp, INF, 0).value
    assert abs(k0 - qpoch(0.5, 0.5).value) < 1e-12


def test_spectral_decomposition():
    size = 30
    for t, u in PARAM_GRID:
        mp = MarkovParams(t=t, u=u)
        if u == 1.0:
            with pytest.raises(SingularConvention):
                markov_spectral(mp, size)
            continue
        U, E, Uinv = markov_spectral(mp, size)
        assert np.abs(U @ Uinv - np.eye(size)).max() < 1e-12
        M = markov_matrix_m(mp, size)
        assert np.abs(U @ E @ Uinv - M).max() < 1e-12
        assert U[7, 7] == pytest.approx(1.0 / cf._qp(u * t, t, 14))


def test_spectral_identity_effective_parameters():
    # the u = 1 chain is always consumed through the twisted parameter
    # u * xi < 1, where the convention entry is regular
    for t in (0.5, 1 / 3):
        mp = MarkovParams(t=t, u=t * t)  # u*xi with u=1, xi=t^2
        U, E, Uinv = markov_spectral(mp, 30)
        M = markov_matrix_m(mp, 30)
        assert np.abs(U @ E @ Uinv - M).max() < 1e-12


def _eigenbasis_functions(t):
    def qp(k):
        return cf._qp(t, t, k)

    def F(j, i):
        if i < j:
            return 0.0
        return 1.0 / (qp(i - j) * cf._qp(t ** 3, t, i + j))

    g1 = lambda l: ((1 - t) / (1 - t ** (l + 1))) ** 2 / qp(l) ** 2
    g2 = lambda l: ((1 - t) / (1 - t ** (l + 1))) / qp(l) ** 2
    g3 = lambda l: ((1 - t ** 2) / (1 - t ** (2 * l + 2))) / qp(l) ** 2
    c1 = lambda j: (-1) ** j * t ** (j * (j + 1) // 2) * (1 + t ** (j + 1)) / (1 + t)
    c2 = lambda j: t ** (j * j + j) * (1 - t ** (2 * j + 2)) / (1 - t ** 2)
    c3 = lambda j: t ** (j * (j + 1) // 2) * (1 - t ** (j + 1)) / (1 - t)
    return F, (g1, g2, g3), (c1, c2, c3)


def test_eigenbasis_expansions():
    for t in (0.5, 1 / 3):
        F, gs, cs = _eigenbasis_functions(t)
        for g, c in zip(gs, cs):
            for ell in range(26):
                rhs = sum(c(j) * F(j, ell) for j in range(ell + 1))
                assert abs(g(ell) - rhs) < 1e-10


def test_t_moment_closed_form():
    mp = MarkovParams(t=0.5, u=1.0)
    assert markov_t_moment(mp, 5, 0).value == 1.0
    assert markov_t_moment(mp, 1, 1).value == pytest.approx(2 / 3)
    assert markov_t_moment(mp, INF, 1).value == pytest.approx(0.5)


def _t_moment_dp(mp, n, k):
    """Independent oracle: fixed-point recursion over absorbing states."""
    t, u = mp.t, mp.u
    V = [1.0]
    for a in range(1, n + 1):
        num = sum(
            markov_kernel_prob(mp, a, b).value * t ** (k * b) * V[b]
            for b in range(a)
        )
        kaa = markov_kernel_prob(mp, a, a).value * t ** (k * a)
        V.append(num / (1 - kaa))
    return V[n]


def test_t_moment_against_dp_oracle():
    for t, u in PARAM_GRID:
        mp = MarkovParams(t=t, u=u)
        for n in range(1, 9):
            for k in range(1, 4):
                assert markov_t_moment(mp, n, k).value == pytest.approx(
                    _t_moment_dp(mp, n, k), abs=1e-10
                )


def test_sample_path():
    mp = MarkovParams(t=0.5, u=1.0)
    gen = Rng(6).generator()
    assert markov_sample_path(mp, 0, 5, gen) == [0, 0, 0, 0, 0]
    hits = 0
    trials = 100_000
    for _ in range(trials):
        hits += markov_sample_path(mp, 1, 1, gen)[0]
    se = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) < 3 * se
    zero_hits = 0
    for _ in range(trials // 10):
        zero_hits += markov_sample_path(mp, INF, 1, gen)[0] == 0
    want = qpoch(0.5, 0.5).value
    se = math.sqrt(want * (1 - want) / (trials // 10))
    assert abs(zero_hits / (trials // 10) - want) < 3 * se


def _ag_brute_force(t, m, f, cap=40):
    """m-fold sum over chain paths from the infinite start."""
    mp = MarkovParams(t=t, u=1.0)
    k_inf = [markov_kernel_prob(mp, INF, b).value for b in range(cap + 1)]
    kern = [
        [markov_kernel_prob(mp, a, b).value for b in range(a + 1)]
        for a in range(cap + 1)
    ]

    def rec(level, state, weight, tsum):
        if level == m:
            return weight * t ** (2 * tsum) * f(state)
        total = 0.0
        for b in range(state + 1):
            total += rec(level + 1, b, weight * kern[state][b], tsum + b)
        return total

    total = 0.0
    for lam1 in range(cap + 1):
        total += rec(1, lam1, k_inf[lam1], lam1)
    return total


@pytest.mark.parametrize("t", [0.5, 1 / 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_andrews_gordon_vs_brute_force(t, m):
    fs = {
        "SQ_INV": lambda l: ((1 - t) / (1 - t ** (l + 1))) ** 2,
        "INV": lambda l: (1 - t) / (1 - t ** (l + 1)),
        "INV2": lambda l: (1 - t ** 2) / (1 - t ** (2 * l + 2)),
    }
    for variant, f in fs.items():
        série = andrews_gordon_expectation(t, m, variant).value
        brute = _ag_brute_force(t, m, f, cap=26 if m == 3 else 40)
        assert abs(série - brute) < 1e-8


def test_andrews_gordon_leading_term():
    t = 0.5
    v = andrews_gordon_expectation(t, 30, "INV").value
    assert v == pytest.approx((1 - t) * (1 - t * t), abs=1e-6)


def test_pair_corr_theta_identity():
    for p in (2, 3, 5):
        for m in range(7):
            a = cf.pair_corr_zp(p, m).value
            b = cf.pair_corr_theta(p, m).value
            assert abs(a - b) < 1e-12


def test_one_point_and_catalog_values():
    assert eval_formula("one_point_zp").value == 1.0
    assert eval_formula("poly_variety", p=2, points=(0, 1)).value == 1.0
    v = eval_formula("points_on_variety_split", p=2, r=2, points=(0, 1))
    assert v.value == pytest.approx(1.5)
    assert eval_formula("det_moment", q=2, n=1, k=1).value == pytest.approx(2 / 3)
    assert eval_formula("orbital_quadratic", p=3, label="UNRAMIFIED", m=1).value == 5
    assert eval_formula("orbital_quadratic", p=3, label="RAMIFIED", m=1).value == 4
    assert eval_formula("orbital_quadratic", p=5, label="UNRAMIFIED", m=0).value == 1
    il = eval_formula("island_law", p=2, d=1, j=0)
    assert abs(il.value - qpoch(0.5, 0.5).value) < 1e-12
    assert eval_formula("en_relation_constant", p=3, n=2).value == pytest.approx(4 / 3)
    with pytest.raises(UnknownFormula):
        eval_formula("missing_entry")
    with pytest.raises(InvalidParams):
        eval_formula("poly_variety", p=2, points=(0, 0))
    with pytest.raises(InvalidParams):
        eval_formula("det_moment", q=2, wrong=1)
    # p must be prime and q a prime power >= 2
    assert eval_formula("det_moment", q=4, n=1, k=1).value == pytest.approx(0.8)
    for params in (dict(q=1), dict(q=0), dict(q=6)):
        with pytest.raises(InvalidParams):
            eval_formula("det_moment", n=1, k=1, **params)
    for name, params in (("island_law", dict(p=4, d=1, j=0)),
                         ("pair_corr_zp", dict(p=6, m=1)),
                         ("pair_corr_zp", dict(p=2.0, m=1))):
        with pytest.raises(InvalidParams, match="not prime"):
            eval_formula(name, **params)


def test_coulomb_and_variety_normalizations():
    # n = 2 at p = 2: constant (1-1/2)(1-1/4)/(1-1/2)^2 = 3/2
    v = eval_formula("coulomb_zp", p=2, n=2, points=(0, 1))
    assert v.value == pytest.approx(1.5)
    # distance shrinks the density
    v2 = eval_formula("coulomb_zp", p=2, n=2, points=(0, 2))
    assert v2.value == pytest.approx(0.75)
    gl = eval_formula("points_on_variety_split", p=3, r=2, points=(1, 2), gl=True)
    assert gl.value == pytest.approx(9 / 4)
    with pytest.raises(InvalidParams):
        eval_formula("points_on_variety_split", p=3, r=2, points=(0, 1), gl=True)


def test_var_zp_against_pair_density_sum():
    # independent route: the variance is the integral of the pair density,
    # i.e. sum_m measure(val(x-y) = m) * density at separation m
    for p in (2, 3, 5):
        direct = sum(
            (1 - 1 / p) * float(p) ** (-m) * cf.pair_corr_zp(p, m).value
            for m in range(80)
        )
        assert abs(cf.var_zp(p).value - direct) < 1e-10


def test_quad_density_consistency():
    # integrating the density over depth-m shells recovers the total count
    for p in (3, 5):
        for label in ("UNRAMIFIED", "RAMIFIED"):
            total = sum(
                (1 - 1 / p) * float(p) ** (-m) * cf.quad_density(p, label, m).value
                for m in range(120)
            )
            assert abs(cf.expected_quad(p, label).value - total) < 1e-10


def test_quad_det_expectation_degenerate_limits():
    for p in (3, 5):
        t = 1 / p
        assert cf.quad_det_expectation(p, "RAMIFIED", 0).value == pytest.approx(1 - t)
        assert cf.quad_det_expectation(p, "UNRAMIFIED", 0).value == pytest.approx(
            1 - t * t
        )
        lim = (1 - t) * (1 - t * t)
        assert cf.quad_det_expectation(p, "RAMIFIED", 40).value == pytest.approx(
            lim, abs=1e-9
        )
        assert cf.quad_det_expectation(p, "UNRAMIFIED", 40).value == pytest.approx(
            lim, abs=1e-9
        )


def test_quadratic_orbital_bound_sanity():
    for p in (3, 5):
        bound = cf.orbital_bound(p, 1).value
        for label in ("UNRAMIFIED", "RAMIFIED"):
            for m in range(1, 6):
                ratio = cf.orbital_quadratic(p, label, m).value / p ** (2 * m)
                assert ratio <= bound + 1e-12


def test_generator_count_and_bounds():
    assert cf.generator_count(2, 1).value == 2
    assert cf.generator_count(3, 2).value == 6      # p^2 - p
    assert cf.generator_count(2, 3).value == 6      # p^3 - p
    assert cf.generator_count(2, 6).value == 2 ** 6 - 2 ** 3 - 2 ** 2 + 2
    iv = cf.higher_degree_bounds(3, 3)
    s = 1 - 3.0 ** (-2)
    assert iv.lo == pytest.approx(s - 3.0 ** (-3))
    assert iv.hi == pytest.approx(s + 3 * 3.0 ** (-3) / (1 - 3.0 ** (-3)))
    assert iv.lo <= s <= iv.hi


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generator_count_counts_the_factor_table_irreducibles(p):
    # the generators of F_{p^f} over F_p are the roots of the monic
    # irreducibles of degree f, f apiece; count those of every degree the
    # census's factor table covers
    n = max(k for k in range(1, 64) if p ** k <= root_census.FACTOR_TABLE_BUDGET)
    table = root_census._factor_table(p, n)
    for f in range(1, n + 1):
        irreducible = sum(1 for fac in table[f] if len(fac) == 1 and fac[0][2] == 1)
        assert cf.generator_count(p, f).value == f * irreducible


def test_repulsion_bounds():
    iv = cf.repulsion_bounds(3, 1, 1 / 9)
    qp = qpoch(1 / 3, 1 / 3).value
    assert iv.lo == pytest.approx(qp / 9)
    assert iv.hi == pytest.approx(1 / (9 * qp))
    refined = cf.repulsion_bounds(2, 1, 0.5)
    assert refined.lo == pytest.approx(0.5)
    assert refined.hi == pytest.approx(0.75)
    assert refined.hi < 1.0  # repulsion persists at the boundary case


def test_en_asymptotic_exponent_flagged():
    v = cf.en_asymptotic_exponent(3, 10)
    assert "UNBOUNDED_CONSTANT" in v.flags
    assert v.value == pytest.approx(-100 / 4 - 5 * math.log(10, 3))
    # trend only: strictly decreasing in n
    vals = [cf.en_asymptotic_exponent(2, n).value for n in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_generator_density():
    assert cf.generator_density(0.25).value == 0.25


def test_gl_zp_expected():
    assert cf.gl_zp_expected(3).value == pytest.approx(2 / 3)


def test_v_quadratic():
    # V = ||Delta_sigma|| * orbit count / (1 - p^{-r/e})
    p = 3
    v = cf.v_quadratic(p, "UNRAMIFIED", 1)
    assert v.value == pytest.approx((1 / 3) * 5 / (1 - 1 / 9))
    v = cf.v_quadratic(p, "RAMIFIED", 0)
    assert v.value == pytest.approx(3 ** (-0.5) * 1 / (1 - 1 / 3))


def test_param_validation():
    with pytest.raises(InvalidParams):
        MarkovParams(t=1.5, u=1.0)
    with pytest.raises(InvalidParams):
        MarkovParams(t=0.5, u=3.0)
    with pytest.raises(InvalidParams):
        cf.quad_density(2, "UNRAMIFIED", 0)
    with pytest.raises(InvalidParams):
        andrews_gordon_expectation(0.5, 0, "INV")
    with pytest.raises(InvalidParams):
        andrews_gordon_expectation(0.5, 1, "NOPE")
