"""Analytic predictions: q-series, theta functions, the partition Markov
kernel with its spectral decomposition, and the named formula catalog.

All series here decay super-geometrically (terms carry t^{k^2}-type
factors), so truncation stops once the next term falls below the requested
tolerance and the remaining tail is dominated by a geometric series; the
achieved bound is reported on every value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

DEFAULT_TOL = 1e-12


class DivergentParameters(ValueError):
    """Infinite q-Pochhammer products need |t| < 1."""


class SingularConvention(ArithmeticError):
    """The (ut;t)_{-1} = 1/(1-u) convention is singular at u = 1."""


class UnknownFormula(KeyError):
    """No catalog entry with that name."""


class InvalidParams(ValueError):
    """Catalog entry called with out-of-range or missing parameters."""


@dataclass(frozen=True)
class RealValue:
    """A float together with the truncation tolerance actually achieved."""

    value: float
    abs_tol: float = 0.0
    flags: tuple = ()

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class IntervalValue:
    """A rigorous enclosure [lo, hi] for a quantity only bounded, not known."""

    lo: float
    hi: float
    flags: tuple = ()

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


@dataclass(frozen=True)
class MarkovParams:
    """Parameters of the descending Markov kernel on nonnegative integers."""

    t: float
    u: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise InvalidParams(f"t must be in (0,1), got {self.t}")
        if not (0.0 < self.u < 1.0 / self.t):
            raise InvalidParams(f"u must be in (0, 1/t), got {self.u}")


def qpoch(a: float, t: float, k=INF, tol: float = DEFAULT_TOL) -> RealValue:
    """q-Pochhammer symbol (a;t)_k = prod_{i=0}^{k-1} (1 - a t^i).

    Finite k is an exact product.  k = INF requires |t| < 1; the product is
    truncated once the factor magnitude |a t^i| certifies the stated
    tolerance, with the multiplicative tail bound folded into ``abs_tol``.
    """
    if k is INF or k == INF:
        if abs(t) >= 1.0:
            raise DivergentParameters("(a;t)_inf needs |t| < 1")
        if a == 0.0:
            return RealValue(1.0, 0.0)
        out = 1.0
        i = 0
        while True:
            out *= 1.0 - a * t ** i
            i += 1
            # |prod_{j>=i}(1 - a t^j) - 1| <= 2 sum_{j>=i} |a| t^j  (geometric)
            bound = 2.0 * abs(out) * abs(a) * abs(t) ** i / max(1.0 - abs(t), 1e-300)
            if bound < tol:
                return RealValue(out, bound + 1e-300)
            if i > 100000:  # pragma: no cover
                raise DivergentParameters("q-Pochhammer did not converge")
    if k < 0:
        if k == -1:
            # standard convention (a;t)_{-1} = 1/(1 - a/t)
            denom = 1.0 - a / t
            if denom == 0.0:
                raise SingularConvention("(a;t)_{-1} singular: a = t")
            return RealValue(1.0 / denom, 0.0)
        raise InvalidParams("only k = -1 among negative indices is supported")
    out = 1.0
    for i in range(int(k)):
        out *= 1.0 - a * t ** i
    return RealValue(out, 0.0)


def _qp(a: float, t: float, k=INF) -> float:
    return qpoch(a, t, k).value


def theta3(z: float, t: float, tol: float = DEFAULT_TOL, form: str = "sum") -> RealValue:
    """Jacobi theta function.

    sum form:     theta3(z;t) = sum_{k in Z} t^{k^2/2} z^k
    product form: prod_{i>=1} (1-t^i)(1+t^{i-1/2} z)(1+t^{i-1/2}/z)

    The two forms agree by the triple product identity and serve as mutual
    oracles; the sum form is the default.
    """
    if not (0.0 < t < 1.0):
        raise InvalidParams("theta3 needs 0 < t < 1")
    if z == 0.0:
        raise InvalidParams("theta3 needs z != 0")
    if form == "product":
        out = 1.0
        i = 1
        achieved = 0.0
        while True:
            ti = t ** (i - 0.5)
            out *= (1.0 - t ** i) * (1.0 + ti * z) * (1.0 + ti / z)
            bound = 4.0 * abs(out) * ti * abs(t) ** 0.5 * (1.0 + abs(z) + 1.0 / abs(z))
            if bound < tol:
                achieved = bound
                break
            i += 1
        return RealValue(out, achieved + 1e-300)
    out = 1.0
    k = 1
    while True:
        term = t ** (k * k / 2.0) * (z ** k + z ** (-k))
        out += term
        nxt = t ** ((k + 1) ** 2 / 2.0) * (abs(z) ** (k + 1) + abs(z) ** (-(k + 1)))
        if 2.0 * nxt < tol:
            return RealValue(out, 2.0 * nxt + 1e-300)
        k += 1
        if k > 10000:  # pragma: no cover
            raise DivergentParameters("theta3 sum did not converge")


# ---------------------------------------------------------------------------
# Markov kernel on nonnegative integers and its diagonalization.
# ---------------------------------------------------------------------------


def markov_kernel_prob(params: MarkovParams, a, b: int) -> RealValue:
    """Transition probability K(a, b); zero when b > a, and K(inf, b) is the
    a -> infinity limit."""
    t, u = params.t, params.u
    if b < 0:
        raise InvalidParams("states are nonnegative integers")
    if a is INF or a == INF:
        val = _qp(u * t, t) * t ** (b * b) * u ** b / (_qp(t, t, b) * _qp(u * t, t, b))
        return RealValue(val, 1e-14 * abs(val) + 1e-300)
    a = int(a)
    if b > a:
        return RealValue(0.0, 0.0)
    val = (
        t ** (b * b)
        * u ** b
        * _qp(t, t, a)
        * _qp(u * t, t, a)
        / (_qp(t, t, a - b) * _qp(t, t, b) * _qp(u * t, t, b))
    )
    return RealValue(val, 1e-14 * abs(val) + 1e-300)


def markov_matrix_m(params: MarkovParams, size: int):
    """The conjugated transition matrix M(a,b) = t^{b^2} u^b / (t;t)_{a-b}."""
    import numpy as np

    t, u = params.t, params.u
    M = np.zeros((size, size))
    for a in range(size):
        for b in range(a + 1):
            M[a, b] = t ** (b * b) * u ** b / _qp(t, t, a - b)
    return M


def markov_spectral(params: MarkovParams, size: int):
    """Truncated spectral decomposition (U, E, Uinv) with M = U E Uinv.

    U(i,j)    = 1/((t;t)_{i-j} (ut;t)_{i+j})              for i >= j
    E(i,i)    = u^i t^{i^2}
    Uinv(i,j) = (-1)^{i-j} t^{C(i-j,2)} (1-u t^{2i}) (ut;t)_{i+j-1} / (t;t)_{i-j}

    The (0,0) entry of Uinv uses the convention (ut;t)_{-1} = 1/(1-u), which
    is singular at u = 1 exactly.
    """
    import numpy as np

    t, u = params.t, params.u
    if size < 1:
        raise InvalidParams("size must be >= 1")
    U = np.zeros((size, size))
    E = np.zeros((size, size))
    Uinv = np.zeros((size, size))
    for i in range(size):
        E[i, i] = u ** i * t ** (i * i)
        for j in range(i + 1):
            U[i, j] = 1.0 / (_qp(t, t, i - j) * _qp(u * t, t, i + j))
            if i == 0 and j == 0:
                if u == 1.0:
                    raise SingularConvention(
                        "(ut;t)_{-1} = 1/(1-u) undefined at u = 1"
                    )
                poch = 1.0 / (1.0 - u)
            else:
                poch = _qp(u * t, t, i + j - 1)
            k = i - j
            Uinv[i, j] = (
                (-1.0) ** k
                * t ** (k * (k - 1) // 2)
                * (1.0 - u * t ** (2 * i))
                * poch
                / _qp(t, t, k)
            )
    return U, E, Uinv


def markov_sample_path(params: MarkovParams, start, steps: int, rng) -> list:
    """Sample successive states by inverse-CDF over the descending support."""
    path = []
    state = start
    for _ in range(steps):
        r = float(rng.random())
        acc = 0.0
        b = 0
        if state is INF or state == INF:
            while True:
                acc += markov_kernel_prob(params, INF, b).value
                if r < acc or acc > 1.0 - 1e-15:
                    break
                b += 1
        else:
            cap = int(state)
            while b < cap:
                acc += markov_kernel_prob(params, state, b).value
                if r < acc:
                    break
                b += 1
        path.append(b)
        state = b
    return path


def markov_t_moment(params: MarkovParams, n, k: int) -> RealValue:
    """E[t^{k (lam_1 + lam_2 + ...)}] for the chain started at n.

    Closed form (ut;t)_k / (u t^{n+1};t)_k; the denominator is 1 at n = inf.
    """
    if k < 0:
        raise InvalidParams("k must be >= 0")
    t, u = params.t, params.u
    num = _qp(u * t, t, k)
    if n is INF or n == INF:
        den = 1.0
    else:
        den = _qp(u * t ** (int(n) + 1), t, k)
    val = num / den
    return RealValue(val, 1e-14 * abs(val) + 1e-300)


_AG_VARIANTS = ("SQ_INV", "INV", "INV2")


def andrews_gordon_expectation(t: float, m: int, variant: str,
                               tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting m-step chain expectations, as single q-series.

    With lam_1, lam_2, ... the chain at (t, u=1) started from infinity:

    SQ_INV: E[t^{2 sum lam} ((1-t)/(1-t^{lam_m+1}))^2]
            = (1-t)^2 sum_k (-1)^k t^{((2m+1)k^2+(4m+1)k)/2} (1+t^{k+1})
    INV:    E[t^{2 sum lam} (1-t)/(1-t^{lam_m+1})]
            = (1-t) sum_k t^{(m+1)k^2+(2m+1)k} (1-t^{2k+2})
    INV2:   E[t^{2 sum lam} (1-t^2)/(1-t^{2 lam_m+2})]
            = (1-t^2) sum_k t^{((2m+1)k^2+(4m+1)k)/2} (1-t^{k+1})
    """
    if variant not in _AG_VARIANTS:
        raise InvalidParams(f"variant must be one of {_AG_VARIANTS}")
    if m < 1:
        raise InvalidParams("m must be >= 1")
    if not (0.0 < t < 1.0):
        raise InvalidParams("t must be in (0,1)")
    total = 0.0
    k = 0
    while True:
        if variant == "SQ_INV":
            term = (-1.0) ** k * t ** (((2 * m + 1) * k * k + (4 * m + 1) * k) / 2.0) \
                * (1.0 + t ** (k + 1))
        elif variant == "INV":
            term = t ** ((m + 1) * k * k + (2 * m + 1) * k) * (1.0 - t ** (2 * k + 2))
        else:
            term = t ** (((2 * m + 1) * k * k + (4 * m + 1) * k) / 2.0) \
                * (1.0 - t ** (k + 1))
        total += term
        nxt = t ** (((2 * m + 1) * (k + 1) ** 2 + (4 * m + 1) * (k + 1)) / 2.0) * 2.0
        if variant == "INV":
            nxt = t ** ((m + 1) * (k + 1) ** 2 + (2 * m + 1) * (k + 1)) * 2.0
        if 2.0 * nxt < tol:
            break
        k += 1
    if variant == "SQ_INV":
        pref = (1.0 - t) ** 2
    elif variant == "INV":
        pref = 1.0 - t
    else:
        pref = 1.0 - t ** 2
    return RealValue(pref * total, 2.0 * nxt * pref + 1e-300)


# ---------------------------------------------------------------------------
# Formula catalog.  Entries are addressed by stable string names; adding an
# entry never renames an existing one (experiment configs reference them).
# ---------------------------------------------------------------------------


def _pairwise_min_valuations(p: int, points) -> list:
    vals = []
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i] - pts[j]
            if d == 0:
                raise InvalidParams("points must be pairwise distinct")
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            vals.append(v)
    return vals


def _finite_qp_prefactor(p: int, r: int) -> float:
    """(1-p^{-1})(1-p^{-2})...(1-p^{-r})."""
    out = 1.0
    for k in range(1, r + 1):
        out *= 1.0 - float(p) ** (-k)
    return out


def one_point_zp(p: int = 2, n: int = 1) -> RealValue:
    """Density of single eigenvalues in Z_p: identically 1 at every size."""
    return RealValue(1.0, 0.0)


def pair_corr_zp(p: int, m: int, tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting pair density at separation valuation m:

    p^{-m} sum_{k>=0} (-1)^k p^{-((2m+1)k^2+(4m+1)k)/2} (1 + p^{-k-1}).
    """
    if m < 0:
        raise InvalidParams("m must be >= 0")
    t = 1.0 / p
    total = 0.0
    k = 0
    while True:
        term = (-1.0) ** k * t ** (((2 * m + 1) * k * k + (4 * m + 1) * k) / 2.0) \
            * (1.0 + t ** (k + 1))
        total += term
        nxt = 2.0 * t ** (((2 * m + 1) * (k + 1) ** 2 + (4 * m + 1) * (k + 1)) / 2.0)
        if 2.0 * nxt < tol:
            break
        k += 1
    return RealValue(t ** m * total, 2.0 * nxt + 1e-300)


def pair_corr_theta(p: int, m: int, tol: float = DEFAULT_TOL) -> RealValue:
    """Theta form of the pair density: 1 - theta3(-sqrt(p); p^{-(2m+1)}).

    Summed as -sum_{k != 0} of the theta series so no cancellation against
    the constant term is incurred.
    """
    if m < 0:
        raise InvalidParams("m must be >= 0")
    t = float(p) ** (-(2 * m + 1))
    z = -math.sqrt(p)
    total = 0.0
    k = 1
    while True:
        term = t ** (k * k / 2.0) * (z ** k + z ** (-k))
        total -= term
        nxt = t ** ((k + 1) ** 2 / 2.0) * (abs(z) ** (k + 1) + abs(z) ** (-(k + 1)))
        if 2.0 * nxt < tol:
            break
        k += 1
    return RealValue(total, 2.0 * nxt + 1e-300)


_QUAD_LABELS = ("UNRAMIFIED", "RAMIFIED")


def _check_quad(p, label, m):
    if label not in _QUAD_LABELS:
        raise InvalidParams(f"label must be one of {_QUAD_LABELS}")
    if m < 0:
        raise InvalidParams("m must be >= 0")
    if p == 2:
        raise InvalidParams("quadratic formulas implemented for odd p only")


def quad_density(p: int, label: str, m: int, tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting eigenvalue density in a quadratic extension at depth m.

    Unramified, generator x with ||x|| = 1, element a0 + a1 x, p^{-m} = ||a1||:
        p^{-m}(1+p^{-1}-2p^{-m-1})/(1-p^{-1})
            * sum_k p^{-((2m+1)k^2+(4m+1)k)/2} (1-p^{-k-1})
    Ramified, uniformizer generator (||x|| = p^{-1/2}), includes the
    discriminant norm prefactor p^{-1} (odd p):
        p^{-1} * p^{-m}(1-p^{-m-1})/(1-p^{-1})
            * sum_k p^{-(m+1)k^2-(2m+1)k} (1-p^{-2k-2})
    """
    _check_quad(p, label, m)
    t = 1.0 / p
    if label == "UNRAMIFIED":
        pref = t ** m * (1.0 + t - 2.0 * t ** (m + 1)) / (1.0 - t)
    else:
        pref = t * t ** m * (1.0 - t ** (m + 1)) / (1.0 - t)
    total = 0.0
    k = 0
    while True:
        if label == "UNRAMIFIED":
            term = t ** (((2 * m + 1) * k * k + (4 * m + 1) * k) / 2.0) \
                * (1.0 - t ** (k + 1))
            nxt = t ** (((2 * m + 1) * (k + 1) ** 2 + (4 * m + 1) * (k + 1)) / 2.0)
        else:
            term = t ** ((m + 1) * k * k + (2 * m + 1) * k) * (1.0 - t ** (2 * k + 2))
            nxt = t ** ((m + 1) * (k + 1) ** 2 + (2 * m + 1) * (k + 1))
        total += term
        if 2.0 * pref * nxt < tol:
            break
        k += 1
    return RealValue(pref * total, 2.0 * pref * nxt + 1e-300)


def quad_det_expectation(p: int, label: str, m: int, tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting expected determinant norm for a quadratic minimal polynomial
    whose root sits at depth m:

    ramified:   (1-p^{-1}) sum_k p^{-(m+1)k^2-(2m+1)k} (1-p^{-2k-2})
    unramified: (1-p^{-2}) sum_k p^{-((2m+1)k^2+(4m+1)k)/2} (1-p^{-k-1})
    """
    _check_quad(p, label, m)
    t = 1.0 / p
    if label == "RAMIFIED":
        series = andrews_gordon_expectation(t, m, "INV", tol) if m >= 1 else None
        if m == 0:
            return RealValue(1.0 - t, 1e-15)
        return series
    if m == 0:
        return RealValue(1.0 - t * t, 1e-15)
    return andrews_gordon_expectation(t, m, "INV2", tol)


def expected_quad(p: int, label: str, tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting expected number of eigenvalues in one quadratic extension.

    ramified:   p^{-1} (1-p^{-1}) sum_k (1-p^{-2k-2}) p^{-k^2-k}
                    / ((1-p^{-k^2-2k-2})(1-p^{-k^2-2k-3}))
    unramified: (1-p^{-1}) sum_k (1-p^{-k-1})(1+p^{-k^2-2k-3}) p^{-(k^2+k)/2}
                    / ((1-p^{-k^2-2k-2})(1-p^{-k^2-2k-3}))
    """
    _check_quad(p, label, 0)
    t = 1.0 / p
    total = 0.0
    k = 0
    while True:
        if label == "UNRAMIFIED":
            term = (1.0 - t ** (k + 1)) * (1.0 + t ** (k * k + 2 * k + 3)) \
                * t ** ((k * k + k) / 2.0) \
                / ((1.0 - t ** (k * k + 2 * k + 2)) * (1.0 - t ** (k * k + 2 * k + 3)))
            nxt = 2.0 * t ** (((k + 1) ** 2 + k + 1) / 2.0)
        else:
            term = (1.0 - t ** (2 * k + 2)) * t ** (k * k + k) \
                / ((1.0 - t ** (k * k + 2 * k + 2)) * (1.0 - t ** (k * k + 2 * k + 3)))
            nxt = 2.0 * t ** ((k + 1) ** 2 + k + 1)
        total += term
        if 2.0 * nxt < tol:
            break
        k += 1
    pref = (1.0 - t) if label == "UNRAMIFIED" else t * (1.0 - t)
    return RealValue(pref * total, 2.0 * pref * nxt + 1e-300)


def coulomb_zp(p: int, n: int, points) -> RealValue:
    """Joint eigenvalue density on Z_p^n at the given distinct points:

    (1-p^{-1})...(1-p^{-n}) / (1-p^{-1})^n * prod_{i<j} ||x_i - x_j||.
    """
    pts = list(points)
    if len(pts) != n:
        raise InvalidParams("need exactly n points")
    vand = 1.0
    for v in _pairwise_min_valuations(p, pts):
        vand *= float(p) ** (-v)
    const = _finite_qp_prefactor(p, n) / (1.0 - 1.0 / p) ** n
    return RealValue(const * vand, 1e-14)


def points_on_variety_split(p: int, r: int, points, gl: bool = False) -> RealValue:
    """Normalized small-ball probability for the characteristic polynomial at
    split points x_1..x_r in Z_p:

    prod_i p^{s} * P(val P_A(x_i) >= s for all i)
        = (1-p^{-1})...(1-p^{-r}) / prod_{i<j} ||x_i-x_j|| * (1/(1-p^{-1}))^r

    The GL variant drops the (1-p^{-1})...(1-p^{-r}) prefactor (and requires
    unit points).
    """
    pts = list(points)
    if len(pts) != r:
        raise InvalidParams("split case needs exactly r points")
    if gl:
        for x in pts:
            if x % p == 0:
                raise InvalidParams("GL variant needs unit points")
    inv_vand = 1.0
    for v in _pairwise_min_valuations(p, pts):
        inv_vand *= float(p) ** v
    const = 1.0 if gl else _finite_qp_prefactor(p, r)
    return RealValue(const * inv_vand / (1.0 - 1.0 / p) ** r, 1e-14)


def poly_variety(p: int, points) -> RealValue:
    """Normalized small-ball probability for a Haar monic polynomial:
    p^{sum s_i} * P(val Y(x_i) >= s_i) = prod_{i<j} ||x_i-x_j||^{-1}."""
    out = 1.0
    for v in _pairwise_min_valuations(p, points):
        out *= float(p) ** v
    return RealValue(out, 1e-14)


def var_zp(p: int, tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting variance of the number of eigenvalues in Z_p:

    sum_{k>=0} (-1)^k (1-p^{-1})(1+p^{-k-1}) p^{-(k^2+k)/2} / (1-p^{-k^2-2k-2}).
    """
    t = 1.0 / p
    total = 0.0
    k = 0
    while True:
        term = (-1.0) ** k * (1.0 - t) * (1.0 + t ** (k + 1)) \
            * t ** ((k * k + k) / 2.0) / (1.0 - t ** (k * k + 2 * k + 2))
        total += term
        nxt = 2.0 * t ** (((k + 1) ** 2 + k + 1) / 2.0)
        if 2.0 * nxt < tol:
            break
        k += 1
    return RealValue(total, 2.0 * nxt + 1e-300)


def det_moment(q: int, n: int, k: int) -> RealValue:
    """Moments of the determinant norm of a Haar matrix over a local ring
    with residue field size q:  E||det||^{rk} = (q^{-1};q^{-1})_k / (q^{-n-1};q^{-1})_k."""
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1, k >= 0")
    t = 1.0 / q
    val = _qp(t, t, k) / _qp(t ** (n + 1), t, k)
    return RealValue(val, 1e-14 * val + 1e-300)


def island_law(p: int, d: int, j: int, tol: float = DEFAULT_TOL) -> RealValue:
    """Limiting law of the number of eigenvalue orbits on one island:

    P(N/d = j) = prod_{k>=1}(1-p^{-dk}) * p^{-dj} / prod_{k=1}^j (1-p^{-dk}).
    """
    if d < 1 or j < 0:
        raise InvalidParams("need d >= 1, j >= 0")
    t = float(p) ** (-d)
    const = qpoch(t, t, INF, tol)
    denom = _qp(t, t, j)
    val = const.value * t ** j / denom
    return RealValue(val, const.abs_tol * t ** j / denom + 1e-300)


def orbital_quadratic(p: int, label: str, m: int) -> RealValue:
    """Number of lattice-module orbits for a depth-m quadratic element:

    ramified:   (1-p^{m+1})/(1-p) = 1 + p + ... + p^m
    unramified: (1-p^m)/(1-p) + (1-p^{m+1})/(1-p) = p^m + 2p^{m-1} + ... + 2
    """
    _check_quad(p, label, m)
    ram = (1 - p ** (m + 1)) // (1 - p)
    if label == "RAMIFIED":
        return RealValue(float(ram), 0.0)
    unram = (1 - p ** m) // (1 - p) + ram
    return RealValue(float(unram), 0.0)


def v_quadratic(p: int, label: str, m: int) -> RealValue:
    """Potential V at a depth-m quadratic element:
    V = ||Delta_sigma(x)|| * #orbits / (1 - p^{-r/e}) with
    ||Delta_sigma(x)|| = p^{-m} * disc_norm^{1/2}."""
    _check_quad(p, label, m)
    orbits = orbital_quadratic(p, label, m).value
    if label == "RAMIFIED":
        delta = float(p) ** (-m) * float(p) ** (-0.5)
        return RealValue(delta * orbits / (1.0 - 1.0 / p), 1e-14)
    delta = float(p) ** (-m)
    return RealValue(delta * orbits / (1.0 - p ** (-2.0)), 1e-14)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        else:
            d += 1
    if n > 1:
        out = -out
    return out


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def generator_count(p: int, f: int) -> RealValue:
    """Number of degree-f residue field generators: G_f = sum_{d|f} mu(f/d) p^d."""
    if f < 1:
        raise InvalidParams("f must be >= 1")
    total = sum(_mobius(f // d) * p ** d for d in _divisors(f))
    return RealValue(float(total), 0.0)


def higher_degree_bounds(p: int, f: int, disc_norm: float = 1.0) -> IntervalValue:
    """Enclosure for the limiting expected eigenvalue count in a degree-ef
    extension with residue degree f:

    disc_norm * [S - p^{-f},  S + (1+tau(f)) p^{-f} / (1-p^{-f})],
    S = sum_{d|f} mu(f/d) p^{d-f}.
    """
    if f < 1:
        raise InvalidParams("f must be >= 1")
    s = sum(_mobius(f // d) * float(p) ** (d - f) for d in _divisors(f))
    tau = len(_divisors(f))
    pf = float(p) ** (-f)
    return IntervalValue(
        disc_norm * (s - pf),
        disc_norm * (s + (1 + tau) * pf / (1.0 - pf)),
    )


def repulsion_bounds(p: int, d: int, res_norm: float) -> IntervalValue:
    """Enclosure for the pair-density ratio of two orbits on one island, as a
    multiple of the resultant norm; tightened to (p^{-d}, p^{-d}+p^{-2d}]
    when the resultant norm is exactly p^{-d}."""
    if d < 1:
        raise InvalidParams("d must be >= 1")
    t = float(p) ** (-d)
    if abs(res_norm - t) < 1e-15:
        return IntervalValue(t, t + t * t)
    qp = _qp(t, t)
    return IntervalValue(res_norm * qp, res_norm / qp)


def orbital_bound(p: int, d: int) -> RealValue:
    """Upper bound p^{-d} + 2 p^{-2d} for the normalized orbit count of a
    non-maximal order with residue generator degree d."""
    if d < 1:
        raise InvalidParams("d must be >= 1")
    t = float(p) ** (-d)
    return RealValue(t + 2.0 * t * t, 0.0)


def en_relation_constant(p: int, n: int) -> RealValue:
    """Ratio P(all eigenvalues in Z_p) / P(all roots of a Haar monic
    polynomial in Z_p) = (1-p^{-1})...(1-p^{-n}) / (1-p^{-1})^n."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    val = _finite_qp_prefactor(p, n) / (1.0 - 1.0 / p) ** n
    return RealValue(val, 1e-14 * val)


def en_asymptotic_exponent(p: int, n: int) -> RealValue:
    """Leading terms -n^2/(2(p-1)) - (n/2) log_p n of the log-probability
    that all eigenvalues lie in Z_p.  The O(n) correction has an unknown
    constant, so this value is only usable for trend checks."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    val = -n * n / (2.0 * (p - 1)) - 0.5 * n * math.log(n, p)
    return RealValue(val, 0.0, flags=("UNBOUNDED_CONSTANT",))


def generator_density(disc_norm: float) -> RealValue:
    """Limiting density at a ring-of-integers generator: the discriminant norm."""
    return RealValue(float(disc_norm), 0.0)


def gl_zp_expected(p: int) -> RealValue:
    """Limiting expected number of eigenvalues in Z_p for the invertible
    ensemble: the unit-ball density 1 integrated over Z_p^x, i.e. 1 - p^{-1}."""
    return RealValue(1.0 - 1.0 / p, 0.0)


_DENSITY_CATALOG = {
    "one_point_zp": one_point_zp,
    "pair_corr_zp": pair_corr_zp,
    "pair_corr_theta": pair_corr_theta,
    "quad_density": quad_density,
    "coulomb_zp": coulomb_zp,
    "points_on_variety_split": points_on_variety_split,
    "poly_variety": poly_variety,
    "generator_density": generator_density,
}

_COUNT_CATALOG = {
    "var_zp": var_zp,
    "expected_quad": expected_quad,
    "quad_det_expectation": quad_det_expectation,
    "det_moment": det_moment,
    "island_law": island_law,
    "orbital_quadratic": orbital_quadratic,
    "V_quadratic": v_quadratic,
    "generator_count": generator_count,
    "higher_degree_bounds": higher_degree_bounds,
    "repulsion_bounds": repulsion_bounds,
    "orbital_bound": orbital_bound,
    "en_relation_constant": en_relation_constant,
    "en_asymptotic_exponent": en_asymptotic_exponent,
    "gl_zp_expected": gl_zp_expected,
}

CATALOG = {**_DENSITY_CATALOG, **_COUNT_CATALOG}


def eval_density(name: str, **params):
    """Evaluate a pointwise density/correlation formula by catalog name."""
    if name not in _DENSITY_CATALOG:
        raise UnknownFormula(name)
    try:
        return _DENSITY_CATALOG[name](**params)
    except TypeError as exc:
        raise InvalidParams(str(exc)) from exc


def eval_count(name: str, **params):
    """Evaluate an expectation/count/bound formula by catalog name."""
    if name not in _COUNT_CATALOG:
        raise UnknownFormula(name)
    try:
        return _COUNT_CATALOG[name](**params)
    except TypeError as exc:
        raise InvalidParams(str(exc)) from exc


def eval_formula(name: str, **params):
    """Evaluate any catalog entry by name."""
    if name in _DENSITY_CATALOG:
        return eval_density(name, **params)
    if name in _COUNT_CATALOG:
        return eval_count(name, **params)
    raise UnknownFormula(name)
