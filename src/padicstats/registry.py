"""Named experiments pairing each simulation with its analytic prediction.

Every entry fixes the estimand and desk-scale default parameters (sample
sizes were chosen empirically for sub-10-minute suite runs, not derived
from any convergence rate).  Checks of limit statements at finite matrix
size carry the ASYMPTOTIC flag, which adds the standard slack on top of
the 3-sigma gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import closed_forms as cf
from .batched import (
    batch_charpoly,
    batch_charpoly_quad,
    batch_det,
    batch_valuation,
    f2_primary_multiplicity,
    fp_primary_multiplicity,
    sample_matrices,
)
from .experiment import (
    ASYMPTOTIC,
    AnalyticTarget,
    BudgetExceeded,
    EstimateReport,
    ExactReport,
    ExperimentSpec,
    InvalidSpec,
    chi_square_pvalue,
    check_enumeration_budget,
    contingency_chi2,
    finalize,
    make_estimate_report,
    mean_se,
    run_chunked,
)
from .matrix_lab import GL, MAT, smith_parts_quadratic, smith_parts_raw
from .padic_core import PadicPoly, det_mod, is_prime
from .root_census import (
    QUAD_RAMIFIED,
    QUAD_UNRAMIFIED,
    _zp_roots_raw,
    census_of_poly,
)

POLY = "POLY"


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    doc: str
    kind: str                      # "mc" | "exact"
    defaults: dict
    runner: object
    min_precision: int = 1
    suite_variants: tuple = ({},)  # override dicts run by the full suite

    def make_spec(self, overrides: dict) -> ExperimentSpec:
        """The run request for these overrides.  Unknown keys raise
        KeyError; a non-prime p, trials < 1 or an unknown mode raise
        InvalidSpec, before anything is sampled."""
        base = dict(self.defaults)
        known = set(base) | {"p", "n", "N", "trials", "seed", "workers", "mode"}
        for k in overrides:
            if k not in known:
                raise KeyError(f"unknown override '{k}' for experiment {self.name}")
        base.update(overrides)
        params = {
            k: v
            for k, v in base.items()
            if k not in {"p", "n", "N", "trials", "seed", "workers", "mode"}
        }
        spec = ExperimentSpec(
            name=self.name,
            p=base["p"],
            n=base["n"],
            precision=base["N"],
            mode=base.get("mode", MAT),
            trials=base["trials"],
            seed=base.get("seed", 20240801),
            workers=base.get("workers", 1),
            params=params,
        )
        if not is_prime(spec.p):
            raise InvalidSpec(f"p = {spec.p} is not prime")
        if spec.trials < 1:
            raise InvalidSpec(f"trials must be >= 1, got {spec.trials}")
        if spec.mode not in (MAT, GL, POLY):
            raise InvalidSpec(f"mode must be {MAT}, {GL} or {POLY}, got {spec.mode!r}")
        return spec


def _poly_batch(gen, size, p, n, N):
    """Uniform monic degree-n polynomials; coefficients leading-first."""
    m = p ** N
    coeffs = gen.integers(0, m, size=(size, n), dtype=np.int64)
    lead = np.ones((size, 1), dtype=np.int64)
    return np.concatenate([lead, coeffs[:, ::-1]], axis=1)


def _charpolys(gen, size, spec):
    p, n, N = spec.p, spec.n, spec.precision
    if spec.mode == POLY:
        return _poly_batch(gen, size, p, n, N)
    mats = sample_matrices(gen, size, n, p, N, gl=(spec.mode == GL))
    return batch_charpoly(mats, p ** N)


# ---------------------------------------------------------------------------
# Counts of eigenvalues in Z_p: mean, variance, pairwise valuations.
# ---------------------------------------------------------------------------

PAIR_CELLS = 3  # separation valuations m = 0, 1, 2


def _zp_chunk(spec, gen, size):
    p, N = spec.p, spec.precision
    cps = _charpolys(gen, size, spec)
    out = {
        "sum": 0.0, "sumsq": 0.0, "used": 0,
        "var_sum": 0.0, "var_sumsq": 0.0,
        "pair_sum": np.zeros(PAIR_CELLS), "pair_sumsq": np.zeros(PAIR_CELLS),
        "pair_used": 0,
        "all_in": 0,
    }
    n = spec.n
    for i in range(size):
        coeffs = cps[i].tolist()[::-1]
        roots, ok = _zp_roots_raw(coeffs, p, N)
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
        cells = np.zeros(PAIR_CELLS)
        pair_ok = True
        for a in range(c):
            for b in range(a + 1, c):
                r1, k1 = roots[a]
                r2, k2 = roots[b]
                k = min(k1, k2)
                diff = (r1 - r2) % p ** k
                if diff == 0:
                    pair_ok = False
                    break
                val = 0
                while diff % p == 0:
                    diff //= p
                    val += 1
                if val < PAIR_CELLS:
                    cells[val] += 2  # ordered pairs
            if not pair_ok:
                break
        if pair_ok:
            out["pair_used"] += 1
            out["pair_sum"] += cells
            out["pair_sumsq"] += cells * cells
    return out


def _run_zp_count(spec):
    stats = run_chunked(spec, lambda gen, size: _zp_chunk(spec, gen, size))
    target = AnalyticTarget(value=1.0, tol=1e-12)
    if spec.mode == GL:
        target = AnalyticTarget(
            value=cf.gl_zp_expected(spec.p).value, flags=(ASYMPTOTIC,)
        )
    return [
        make_estimate_report(
            spec, "mean zp_count", stats["sum"], stats["sumsq"], stats["used"],
            target, 0.0,
        )
    ]


def _run_var_zp(spec):
    stats = run_chunked(spec, lambda gen, size: _zp_chunk(spec, gen, size))
    target = AnalyticTarget(value=cf.var_zp(spec.p).value, flags=(ASYMPTOTIC,))
    return [
        make_estimate_report(
            spec, "mean zp_count*(zp_count-1)", stats["var_sum"],
            stats["var_sumsq"], stats["used"], target, 0.0,
        )
    ]


def _run_pair_hist(spec):
    stats = run_chunked(spec, lambda gen, size: _zp_chunk(spec, gen, size))
    p = spec.p
    reports = []
    for m in range(PAIR_CELLS):
        density = cf.pair_corr_zp(p, m).value
        expected = (1.0 - 1.0 / p) * p ** (-m) * density
        target = AnalyticTarget(value=expected, flags=(ASYMPTOTIC,))
        reports.append(
            make_estimate_report(
                spec, f"mean ordered pair count at valuation {m}",
                stats["pair_sum"][m], stats["pair_sumsq"][m],
                stats["pair_used"], target, 0.0, extra_params={"m": m},
            )
        )
    return reports


def _run_gl_support(spec):
    p, N = spec.p, spec.precision

    def chunk(gen, size):
        cps = _charpolys(gen, size, spec)
        viol = int((cps[:, -1] % p == 0).sum())
        out = _zp_chunk_from_cps(spec, cps)
        out["violations"] = viol
        return out

    stats = run_chunked(spec, chunk)
    rep_v = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="eigenvalues with residue 0 (count)",
        estimate=float(stats["violations"]), se=0.0,
        ci=(float(stats["violations"]), float(stats["violations"])),
        trials=spec.trials, used=spec.trials, discard_rate=0.0,
        seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(value=0.0, comparison="zero_count"),
    )
    finalize(rep_v)
    rep_z = make_estimate_report(
        spec, "mean zp_count", stats["sum"], stats["sumsq"], stats["used"],
        AnalyticTarget(value=cf.gl_zp_expected(p).value, flags=(ASYMPTOTIC,)),
        0.0,
    )
    return [rep_v, rep_z]


def _zp_chunk_from_cps(spec, cps):
    p, N = spec.p, spec.precision
    out = {"sum": 0.0, "sumsq": 0.0, "used": 0}
    for i in range(cps.shape[0]):
        roots, ok = _zp_roots_raw(cps[i].tolist()[::-1], p, N)
        if not ok:
            continue
        c = len(roots)
        out["used"] += 1
        out["sum"] += c
        out["sumsq"] += c * c
    return out


# ---------------------------------------------------------------------------
# Determinant norm moments.
# ---------------------------------------------------------------------------


def _run_det_moment(spec):
    p, n, N = spec.p, spec.n, spec.precision
    k = spec.params["k"]

    def chunk(gen, size):
        mats = sample_matrices(gen, size, n, p, N)
        dets = batch_det(mats, p ** N)
        vals = batch_valuation(dets, p, N)
        good = vals < N
        x = np.float64(p) ** (-np.float64(k) * vals[good])
        return {"sum": float(x.sum()), "sumsq": float((x * x).sum()),
                "used": int(good.sum())}

    stats = run_chunked(spec, chunk)
    target = AnalyticTarget(value=cf.det_moment(p, n, k).value, tol=1e-12)
    return [
        make_estimate_report(
            spec, f"mean ||det A||^{k}", stats["sum"], stats["sumsq"],
            stats["used"], target, 0.0,
        )
    ]


def _run_det_moment_exact(spec):
    p, n, N = spec.p, spec.n, spec.precision
    if n != 1:
        raise BudgetExceeded("exact determinant check is sized for n = 1")
    m = p ** N
    check_enumeration_budget(m)
    lo = Fraction(0)
    width = Fraction(0)
    for a in range(m):
        if a == 0:
            width += Fraction(1, p ** N)  # true norm anywhere in [0, p^-N]
            continue
        v = 0
        x = a
        while x % p == 0:
            x //= p
            v += 1
        lo += Fraction(1, p ** v)
    lo = lo / m
    hi = lo + width / m
    rep = ExactReport(
        name=spec.name, params=spec.describe(), estimand="E ||det A||, n=1",
        lo=lo, hi=hi, enumeration_size=m, seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(
            exact=str(Fraction(1, 1) * Fraction(p - 1, p) / Fraction(p * p - 1, p * p))
        ),
        details=f"interval width {float(hi - lo):.3g}",
    )
    finalize(rep)
    return [rep]


# ---------------------------------------------------------------------------
# Island law.
# ---------------------------------------------------------------------------

ISLAND_MAX_J = 6


def _island_factor(p: int, d: int):
    from .root_census import unramified_modulus

    if d == 1:
        return (0, 1)
    return unramified_modulus(p, d)


def _run_island_law(spec):
    p, n, d = spec.p, spec.n, spec.params["d"]
    coeffs = list(_island_factor(p, d))

    def chunk(gen, size):
        mats = gen.integers(0, p, size=(size, n, n), dtype=np.int64)
        if p == 2:
            mult = f2_primary_multiplicity(mats, coeffs, d)
        else:
            mult = fp_primary_multiplicity(mats, coeffs, d, p)
        hist = np.bincount(
            np.minimum(mult, ISLAND_MAX_J + 1), minlength=ISLAND_MAX_J + 2
        ).astype(np.float64)
        return {"hist": hist}

    stats = run_chunked(spec, chunk)
    hist = stats["hist"]
    total = hist.sum()
    emp = hist / total
    tv = 0.5 * sum(
        abs(emp[j] - cf.island_law(p, d, j).value) for j in range(ISLAND_MAX_J + 1)
    )
    rep = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand=f"TV distance of island multiplicity law on 0..{ISLAND_MAX_J}",
        estimate=float(tv), se=0.0, ci=(float(tv), float(tv)),
        trials=spec.trials, used=int(total), discard_rate=0.0,
        seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(interval=(0.0, 0.01), flags=(ASYMPTOTIC,)),
        details="counts " + ",".join(str(int(x)) for x in hist),
    )
    finalize(rep)
    return [rep]


# ---------------------------------------------------------------------------
# Cokernel Markov chains.
# ---------------------------------------------------------------------------


def _run_cok_markov(spec):
    p, n, N = spec.p, spec.n, spec.precision

    def chunk(gen, size):
        mats = sample_matrices(gen, size, n, p, N)
        table = np.zeros((n + 1, n + 1), dtype=np.int64)
        for i in range(size):
            parts, sat = smith_parts_raw(mats[i].tolist(), p, N)
            if sat:
                continue
            l1 = sum(1 for x in parts if x >= 1)
            l2 = sum(1 for x in parts if x >= 2)
            table[l1, l2] += 1
        return {"table": table}

    stats = run_chunked(spec, chunk)
    table = stats["table"]
    mp = cf.MarkovParams(t=1.0 / p, u=1.0)
    probs = np.zeros((n + 1, n + 1))
    for a in range(n + 1):
        pa = cf.markov_kernel_prob(mp, n, a).value
        for b in range(a + 1):
            probs[a, b] = pa * cf.markov_kernel_prob(mp, a, b).value
    chi2, dof, pval = chi_square_pvalue(table.ravel(), probs.ravel())
    used = int(table.sum())
    rep = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="chi-square p-value of (l'_1, l'_2) vs kernel transitions",
        estimate=float(pval), se=0.0, ci=(float(pval), float(pval)),
        trials=spec.trials, used=used,
        discard_rate=1.0 - used / spec.trials, seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(interval=(1e-3, 1.0)),
        details=f"chi2 {chi2:.2f}, dof {dof}",
    )
    finalize(rep)
    return [rep]


def _run_cok_joint_chain(spec):
    p, n, N = spec.p, spec.n, spec.precision
    m_level = spec.params["m"]
    x2 = p ** m_level

    def chunk(gen, size):
        m = p ** N
        A = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
        B = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
        M2 = (A - x2 * B) % m
        table = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
        violations = 0
        for i in range(size):
            parts1, sat1 = smith_parts_raw(A[i].tolist(), p, N)
            parts2, sat2 = smith_parts_raw(M2[i].tolist(), p, N)
            if sat1 or sat2:
                continue
            lam1 = [sum(1 for x in parts1 if x >= j) for j in range(1, m_level + 2)]
            lam2 = [sum(1 for x in parts2 if x >= j) for j in range(1, m_level + 2)]
            if lam1[:m_level] != lam2[:m_level]:
                violations += 1
                continue
            a = lam1[m_level - 1]
            table[a, lam1[m_level], lam2[m_level]] += 1
        return {"table": table, "violations": violations}

    stats = run_chunked(spec, chunk)
    table = stats["table"]
    chi2 = 0.0
    dof = 0
    for a in range(n + 1):
        sub = table[a]
        if sub.sum() < 100:
            continue
        c, d = contingency_chi2(sub.astype(np.float64))
        chi2 += c
        dof += d
    from scipy.stats import chi2 as chi2_dist

    pval = float(chi2_dist.sf(chi2, dof)) if dof >= 1 else 1.0
    used = int(table.sum())
    rep = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="conditional independence p-value of branch levels given shared state",
        estimate=pval, se=0.0, ci=(pval, pval),
        trials=spec.trials, used=used,
        discard_rate=1.0 - used / spec.trials, seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(interval=(1e-3, 1.0)),
        details=f"chi2 {chi2:.2f}, dof {dof}, shared-level violations {stats['violations']}",
    )
    finalize(rep)
    rep_v = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="shared-level mismatches (count)",
        estimate=float(stats["violations"]), se=0.0,
        ci=(float(stats["violations"]), float(stats["violations"])),
        trials=spec.trials, used=spec.trials, discard_rate=0.0,
        seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(value=0.0, comparison="zero_count"),
    )
    finalize(rep_v)
    return [rep, rep_v]


def _nonresidue(p: int) -> int:
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValueError("no quadratic non-residue below p (p must be odd)")


def _run_quad_chain(spec):
    p, n, N = spec.p, spec.n, spec.precision
    m_level = spec.params["m"]
    ramified = spec.params["label"] == "RAMIFIED"
    gamma = p if ramified else _nonresidue(p)
    scale = p ** m_level

    def chunk(gen, size):
        m = p ** N
        A = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
        B = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
        V = (-scale * B) % m
        table = np.zeros((n + 1, n + 1), dtype=np.int64)
        violations = 0
        used = 0
        for i in range(size):
            parts, sat = smith_parts_quadratic(
                A[i].tolist(), V[i].tolist(), p, N, ramified, gamma
            )
            if sat:
                continue
            lam = [sum(1 for x in parts if x >= j) for j in range(1, 2 * m_level + 2)]
            if ramified:
                # levels pair up through the shared prefix
                bad = any(
                    lam[2 * j] != lam[2 * j + 1] for j in range(m_level)
                )
                if bad:
                    violations += 1
                    continue
                a = lam[2 * m_level - 1]
                b = lam[2 * m_level]
            else:
                a = lam[m_level - 1]
                b = lam[m_level]
            used += 1
            table[a, b] += 1
        return {"table": table, "violations": violations, "used": used}

    stats = run_chunked(spec, chunk)
    table = stats["table"]
    mp1 = cf.MarkovParams(t=1.0 / p, u=1.0)
    t2 = 1.0 / p if ramified else 1.0 / (p * p)
    mp2 = cf.MarkovParams(t=t2, u=1.0)
    probs = np.zeros((n + 1, n + 1))
    for a in range(n + 1):
        pa = cf.markov_kernel_prob(mp1, n, a).value
        for b in range(a + 1):
            probs[a, b] = pa * cf.markov_kernel_prob(mp2, a, b).value
    chi2, dof, pval = chi_square_pvalue(table.ravel(), probs.ravel())
    used = int(table.sum())
    rep = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="chi-square p-value of extension cokernel chain vs kernel",
        estimate=float(pval), se=0.0, ci=(float(pval), float(pval)),
        trials=spec.trials, used=used,
        discard_rate=1.0 - used / spec.trials, seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(interval=(1e-3, 1.0)),
        details=f"chi2 {chi2:.2f}, dof {dof}, pairing violations {stats['violations']}",
    )
    finalize(rep)
    return [rep]


# ---------------------------------------------------------------------------
# Quadratic-extension census.
# ---------------------------------------------------------------------------

QUAD_CELLS = (
    (QUAD_UNRAMIFIED, 0),
    (QUAD_UNRAMIFIED, 1),
    (QUAD_RAMIFIED, 0),
    (QUAD_RAMIFIED, 1),
)


def _census_chunk(spec, gen, size):
    p, n, N = spec.p, spec.n, spec.precision
    cps = _charpolys(gen, size, spec)
    ncell = len(QUAD_CELLS)
    out = {
        "quad_sum": np.zeros(ncell + 2), "quad_sumsq": np.zeros(ncell + 2),
        "quad_used": 0,
        "unram3_sum": 0.0, "unram3_sumsq": 0.0, "unram3_used": 0,
    }
    for i in range(size):
        coeffs = cps[i].tolist()[::-1]
        f = PadicPoly.from_ints(p, N, coeffs)
        census = census_of_poly(f)
        if "quad" not in census.flags:
            cells = np.zeros(ncell + 2)
            for (label, m) in census.quad_orbits:
                for idx, (cl, cm) in enumerate(QUAD_CELLS):
                    if (label, m) == (cl, cm):
                        cells[idx] += 2.0  # two eigenvalues per orbit
                # aggregates across all depths, by label
                if label == QUAD_UNRAMIFIED:
                    cells[ncell] += 2.0
                else:
                    cells[ncell + 1] += 2.0
            out["quad_sum"] += cells
            out["quad_sumsq"] += cells * cells
            out["quad_used"] += 1
        if "unram" not in census.flags:
            c3 = float(census.unram_counts.get(3, 0))
            out["unram3_sum"] += c3
            out["unram3_sumsq"] += c3 * c3
            out["unram3_used"] += 1
    return out


def _quad_cell_target(p, label, m):
    name = "UNRAMIFIED" if label == QUAD_UNRAMIFIED else "RAMIFIED"
    density = cf.quad_density(p, name, m).value
    expected = (1.0 - 1.0 / p) * p ** (-m) * density
    if name == "RAMIFIED":
        expected *= 2.0  # two ramified quadratic extensions at odd p
    return AnalyticTarget(value=expected, flags=(ASYMPTOTIC,))


def _run_quad_census(spec):
    stats = run_chunked(spec, lambda gen, size: _census_chunk(spec, gen, size))
    reports = []
    for idx, (label, m) in enumerate(QUAD_CELLS):
        reports.append(
            make_estimate_report(
                spec, f"mean eigenvalue count, {label} depth {m}",
                stats["quad_sum"][idx], stats["quad_sumsq"][idx],
                stats["quad_used"], _quad_cell_target(spec.p, label, m), 0.0,
                extra_params={"label": label, "m": m},
            )
        )
    return reports


def _run_expected_quad(spec):
    stats = run_chunked(spec, lambda gen, size: _census_chunk(spec, gen, size))
    ncell = len(QUAD_CELLS)
    p = spec.p
    rep_u = make_estimate_report(
        spec, "mean eigenvalue count in the unramified quadratic extension",
        stats["quad_sum"][ncell], stats["quad_sumsq"][ncell],
        stats["quad_used"],
        AnalyticTarget(value=cf.expected_quad(p, "UNRAMIFIED").value,
                       flags=(ASYMPTOTIC,)),
        0.0, extra_params={"label": "UNRAMIFIED"},
    )
    rep_r = make_estimate_report(
        spec, "mean eigenvalue count in both ramified quadratic extensions",
        stats["quad_sum"][ncell + 1], stats["quad_sumsq"][ncell + 1],
        stats["quad_used"],
        AnalyticTarget(value=2.0 * cf.expected_quad(p, "RAMIFIED").value,
                       flags=(ASYMPTOTIC,)),
        0.0, extra_params={"label": "RAMIFIED"},
    )
    return [rep_u, rep_r]


def _run_higher_cubic(spec):
    stats = run_chunked(spec, lambda gen, size: _census_chunk(spec, gen, size))
    iv = cf.higher_degree_bounds(spec.p, 3, 1.0)
    rep = make_estimate_report(
        spec, "mean eigenvalue count in the unramified cubic extension",
        stats["unram3_sum"], stats["unram3_sumsq"], stats["unram3_used"],
        AnalyticTarget(interval=(iv.lo, iv.hi), flags=(ASYMPTOTIC,)),
        0.0,
    )
    return [rep]


# ---------------------------------------------------------------------------
# All-eigenvalues-in-Z_p relation and decay.
# ---------------------------------------------------------------------------


def _all_in_chunk(spec, gen, size, mode):
    p, n, N = spec.p, spec.n, spec.precision
    if mode == POLY:
        cps = _poly_batch(gen, size, p, n, N)
    else:
        mats = sample_matrices(gen, size, n, p, N)
        cps = batch_charpoly(mats, p ** N)
    hits = 0
    used = 0
    for i in range(size):
        roots, ok = _zp_roots_raw(cps[i].tolist()[::-1], p, N)
        if not ok:
            continue
        used += 1
        if len(roots) == n:
            hits += 1
    return hits, used


def _run_en_relation(spec):
    def chunk(gen, size):
        mh, mu = _all_in_chunk(spec, gen, size, MAT)
        ph, pu = _all_in_chunk(spec, gen, size, POLY)
        return {"mat_hits": mh, "mat_used": mu, "poly_hits": ph, "poly_used": pu}

    stats = run_chunked(spec, chunk)
    px = stats["mat_hits"] / stats["mat_used"]
    py = stats["poly_hits"] / stats["poly_used"]
    ratio = px / py
    # delta-method standard error for a ratio of independent proportions
    vx = px * (1 - px) / stats["mat_used"]
    vy = py * (1 - py) / stats["poly_used"]
    se = ratio * math.sqrt(vx / px ** 2 + vy / py ** 2)
    target = AnalyticTarget(value=cf.en_relation_constant(spec.p, spec.n).value)
    used = min(stats["mat_used"], stats["poly_used"])
    rep = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="P(all eigenvalues in Zp) / P(all roots in Zp)",
        estimate=ratio, se=se, ci=(ratio - 1.96 * se, ratio + 1.96 * se),
        trials=spec.trials, used=used,
        discard_rate=1.0 - used / spec.trials, seed=spec.seed, wall_ms=0.0,
        analytic=target,
        details=f"P_mat {px:.4f}, P_poly {py:.4f}",
    )
    finalize(rep)
    return [rep]


def _run_en_decay(spec):
    sizes = spec.params["sizes"]
    p, N = spec.p, spec.precision

    def chunk(gen, size):
        out = {}
        for n in sizes:
            sub = ExperimentSpec(
                name=spec.name, p=p, n=n, precision=N, mode=MAT,
                trials=0, seed=spec.seed,
            )
            h, u = _all_in_chunk(sub, gen, size, MAT)
            out[f"hits_{n}"] = h
            out[f"used_{n}"] = u
        return out

    stats = run_chunked(spec, chunk)
    reports = []
    probs = {}
    for n in sizes:
        ph = stats[f"hits_{n}"] / stats[f"used_{n}"]
        se = math.sqrt(ph * (1 - ph) / stats[f"used_{n}"])
        probs[n] = (ph, se)
    for a, b in zip(sizes, sizes[1:]):
        pa, sa = probs[a]
        pb, sb = probs[b]
        gap = pa - pb
        se = math.sqrt(sa * sa + sb * sb)
        rep = EstimateReport(
            name=spec.name, params=spec.describe(),
            estimand=f"P(all in Zp) gap, n={a} minus n={b}",
            estimate=gap, se=se, ci=(gap - 1.96 * se, gap + 1.96 * se),
            trials=spec.trials, used=stats[f"used_{a}"],
            discard_rate=1.0 - stats[f"used_{a}"] / spec.trials,
            seed=spec.seed, wall_ms=0.0,
            analytic=AnalyticTarget(value=0.0, comparison="greater"),
            details=f"P({a}) = {pa:.4f}, P({b}) = {pb:.4f}",
        )
        finalize(rep)
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Linearized determinant identity over a quadratic quotient ring.
# ---------------------------------------------------------------------------


def _run_charpoly_det(spec):
    p, n, N = spec.p, spec.n, spec.precision
    c = spec.params.get("c") or _nonresidue(p)
    m = p ** N

    def chunk(gen, size):
        mats = sample_matrices(gen, size, n, p, N)
        za = (np.matmul(mats, mats) - c * np.eye(n, dtype=np.int64)[None]) % m
        dets = batch_det(za, m)
        vals = batch_valuation(dets, p, N)
        good = vals < N
        x = np.float64(p) ** (-np.float64(vals[good]))
        a0 = sample_matrices(gen, size, n, p, N)
        a1 = sample_matrices(gen, size, n, p, N)
        cu, cv = batch_charpoly_quad(a0, a1, c, m)
        du, dv = cu[:, -1], cv[:, -1]
        if n % 2 == 1:
            du, dv = (-du) % m, (-dv) % m
        nm = (du * du - c * dv * dv) % m
        nvals = batch_valuation(nm, p, N)
        ngood = nvals < N
        y = np.float64(p) ** (-np.float64(nvals[ngood]))
        return {
            "mat_sum": float(x.sum()), "mat_sumsq": float((x * x).sum()),
            "mat_used": int(good.sum()),
            "quad_sum": float(y.sum()), "quad_sumsq": float((y * y).sum()),
            "quad_used": int(ngood.sum()),
        }

    stats = run_chunked(spec, chunk)
    analytic = cf.quad_det_expectation(p, "UNRAMIFIED", 0).value
    rep1 = make_estimate_report(
        spec, "mean ||det Z(A)||, Z = x^2 - c",
        stats["mat_sum"], stats["mat_sumsq"], stats["mat_used"],
        AnalyticTarget(value=analytic, flags=(ASYMPTOTIC,)), 0.0,
        extra_params={"side": "matrix"},
    )
    rep2 = make_estimate_report(
        spec, "mean ||Nm det(A0 + x A1)||",
        stats["quad_sum"], stats["quad_sumsq"], stats["quad_used"],
        AnalyticTarget(value=analytic, flags=(ASYMPTOTIC,)), 0.0,
        extra_params={"side": "quotient"},
    )
    m1, s1 = mean_se(stats["mat_sum"], stats["mat_sumsq"], stats["mat_used"])
    m2, s2 = mean_se(stats["quad_sum"], stats["quad_sumsq"], stats["quad_used"])
    diff = m1 - m2
    se = math.sqrt(s1 * s1 + s2 * s2)
    used = min(stats["mat_used"], stats["quad_used"])
    rep3 = EstimateReport(
        name=spec.name, params=spec.describe(),
        estimand="difference of the two estimates",
        estimate=diff, se=se, ci=(diff - 1.96 * se, diff + 1.96 * se),
        trials=spec.trials, used=used,
        discard_rate=1.0 - used / spec.trials,
        seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(value=0.0, flags=(ASYMPTOTIC,)),
        details=f"sides {m1:.5f} vs {m2:.5f}",
    )
    finalize(rep3)
    return [rep1, rep2, rep3]


# ---------------------------------------------------------------------------
# Exhaustive enumerations.
# ---------------------------------------------------------------------------


def _iter_matrices(p, s, n):
    m = p ** s
    for code in product(range(m), repeat=n * n):
        yield [list(code[i * n : (i + 1) * n]) for i in range(n)]


def _exact_prefactor(p: int, r: int) -> Fraction:
    out = Fraction(1)
    for k in range(1, r + 1):
        out *= 1 - Fraction(1, p ** k)
    return out


def _exact_pov_value(p: int, points, gl: bool) -> Fraction:
    r = len(points)
    inv_vand = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            d = points[i] - points[j]
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            inv_vand *= p ** v
    const = Fraction(1) if gl else _exact_prefactor(p, r)
    return const * inv_vand / (1 - Fraction(1, p)) ** r


def _run_points_on_variety(spec):
    p, s = spec.p, spec.params["s"]
    points = list(spec.params["points"])
    r = len(points)
    gl = spec.mode == GL
    m = p ** s
    check_enumeration_budget(m ** (r * r))
    hits = 0
    total = 0
    from .matrix_lab import _rank_mod_p

    for A in _iter_matrices(p, s, r):
        if gl and _rank_mod_p(A, p) < r:
            continue
        total += 1
        good = True
        for x in points:
            rows = [
                [((x if i == j else 0) - A[i][j]) % m for j in range(r)]
                for i in range(r)
            ]
            if det_mod(rows, m) != 0:
                good = False
                break
        if good:
            hits += 1
    prob = Fraction(hits, total)
    normalized = prob * p ** (s * r)
    rep = ExactReport(
        name=spec.name, params=spec.describe(),
        estimand=f"p^(s*r) * P(val P_A(x) >= s at all points)",
        lo=normalized, hi=normalized, enumeration_size=total,
        seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(exact=str(_exact_pov_value(p, points, gl))),
        details=f"{hits} of {total}",
    )
    finalize(rep)
    return [rep]


def _run_poly_variety(spec):
    p, s = spec.p, spec.params["s"]
    points = list(spec.params["points"])
    n = spec.n
    m = p ** s
    check_enumeration_budget(m ** n)
    hits = 0
    total = 0
    for code in product(range(m), repeat=n):
        total += 1
        good = True
        for x in points:
            acc = 1
            for c in reversed(code):
                acc = (acc * x + c) % m
            if acc != 0:
                good = False
                break
        if good:
            hits += 1
    prob = Fraction(hits, total)
    normalized = prob * p ** (s * len(points))
    want = Fraction(1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i] - points[j]
            while d % p == 0:
                d //= p
                want *= p
    rep = ExactReport(
        name=spec.name, params=spec.describe(),
        estimand="p^(s*#points) * P(val Y(x) >= s at all points)",
        lo=normalized, hi=normalized, enumeration_size=total,
        seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(exact=str(want)),
        details=f"{hits} of {total}",
    )
    finalize(rep)
    return [rep]


def _run_invertible_exact(spec):
    p, n = spec.p, spec.n
    check_enumeration_budget(p ** (n * n))
    from .matrix_lab import _rank_mod_p

    hits = 0
    total = 0
    for A in _iter_matrices(p, 1, n):
        total += 1
        if _rank_mod_p(A, p) == n:
            hits += 1
    want = Fraction(1)
    for k in range(1, n + 1):
        want *= 1 - Fraction(1, p ** k)
    rep = ExactReport(
        name=spec.name, params=spec.describe(),
        estimand="P(A invertible mod p)",
        lo=Fraction(hits, total), hi=Fraction(hits, total),
        enumeration_size=total, seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(exact=str(want)),
        details=f"{hits} of {total}",
    )
    finalize(rep)
    return [rep]


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

REGISTRY = {}


def _register(edef: ExperimentDef):
    REGISTRY[edef.name] = edef


_register(ExperimentDef(
    name="E_Zp_count",
    doc="Expected number of eigenvalues in Z_p equals 1 at every size",
    kind="mc",
    defaults=dict(p=3, n=6, N=10, trials=100_000, mode=MAT),
    runner=_run_zp_count,
    min_precision=6,
))

_register(ExperimentDef(
    name="var_zp",
    doc="Limiting variance of the number of eigenvalues in Z_p",
    kind="mc",
    defaults=dict(p=3, n=8, N=12, trials=100_000, mode=MAT),
    runner=_run_var_zp,
    min_precision=8,
))

_register(ExperimentDef(
    name="pair_valuation_hist",
    doc="Histogram of pairwise valuations of Z_p eigenvalues vs the pair density",
    kind="mc",
    defaults=dict(p=3, n=8, N=12, trials=100_000, mode=MAT),
    runner=_run_pair_hist,
    min_precision=8,
))

_register(ExperimentDef(
    name="det_moment",
    doc="Moments of the determinant norm vs the q-Pochhammer ratio",
    kind="mc",
    defaults=dict(p=2, n=1, N=12, trials=30_000, mode=MAT, k=1),
    runner=_run_det_moment,
    min_precision=6,
    suite_variants=tuple(
        {"p": p, "n": n, "k": k}
        for p in (2, 3) for n in (1, 2, 3) for k in (1, 2)
    ),
))

_register(ExperimentDef(
    name="det_moment_exact",
    doc="Exact enumeration interval for E||det|| at n=1",
    kind="exact",
    defaults=dict(p=2, n=1, N=8, trials=1, mode=MAT),
    runner=_run_det_moment_exact,
    min_precision=2,
))

_register(ExperimentDef(
    name="island_law",
    doc="Distribution of the number of eigenvalue orbits on one island",
    kind="mc",
    defaults=dict(p=2, n=50, N=1, trials=100_000, mode=MAT, d=1),
    runner=_run_island_law,
    min_precision=1,
    suite_variants=({"d": 1}, {"d": 2}),
))

_register(ExperimentDef(
    name="cok_markov",
    doc="Cokernel level ranks follow the partition Markov kernel",
    kind="mc",
    defaults=dict(p=2, n=4, N=8, trials=100_000, mode=MAT),
    runner=_run_cok_markov,
    min_precision=4,
))

_register(ExperimentDef(
    name="cok_joint_chain",
    doc="Two pencil cokernels share levels then branch independently",
    kind="mc",
    defaults=dict(p=2, n=4, N=8, trials=50_000, mode=MAT, m=1),
    runner=_run_cok_joint_chain,
    min_precision=4,
))

_register(ExperimentDef(
    name="quad_chain",
    doc="Extension cokernel chains: shared prefix then the extension kernel",
    kind="mc",
    defaults=dict(p=3, n=3, N=8, trials=40_000, mode=MAT, m=1,
                  label="UNRAMIFIED"),
    runner=_run_quad_chain,
    min_precision=4,
    suite_variants=({"label": "UNRAMIFIED"}, {"label": "RAMIFIED"}),
))

_register(ExperimentDef(
    name="quad_census",
    doc="Certified quadratic eigenvalue orbits by type and depth",
    kind="mc",
    defaults=dict(p=3, n=6, N=12, trials=100_000, mode=MAT),
    runner=_run_quad_census,
    min_precision=8,
))

_register(ExperimentDef(
    name="expected_quad",
    doc="Total eigenvalue counts in quadratic extensions",
    kind="mc",
    defaults=dict(p=3, n=6, N=12, trials=40_000, mode=MAT),
    runner=_run_expected_quad,
    min_precision=8,
))

_register(ExperimentDef(
    name="higher_degree_unramified_cubic",
    doc="Eigenvalue count in the unramified cubic vs the divisor-sum bounds",
    kind="mc",
    defaults=dict(p=3, n=6, N=12, trials=100_000, mode=MAT),
    runner=_run_higher_cubic,
    min_precision=8,
))

_register(ExperimentDef(
    name="en_relation",
    doc="All-eigenvalues probability vs all-roots probability ratio",
    kind="mc",
    defaults=dict(p=3, n=2, N=10, trials=100_000, mode=MAT),
    runner=_run_en_relation,
    min_precision=6,
))

_register(ExperimentDef(
    name="en_decay",
    doc="Monotone decay of the all-eigenvalues probability in the size",
    kind="mc",
    defaults=dict(p=2, n=4, N=10, trials=100_000, mode=MAT, sizes=(2, 3, 4)),
    runner=_run_en_decay,
    min_precision=6,
))

_register(ExperimentDef(
    name="gl_support",
    doc="Invertible ensemble: no residue-zero eigenvalues; unit-ball count",
    kind="mc",
    defaults=dict(p=3, n=6, N=10, trials=100_000, mode=GL),
    runner=_run_gl_support,
    min_precision=6,
))

_register(ExperimentDef(
    name="charpoly_det_identity",
    doc="Determinant norm of Z(A) vs the linearized quotient-ring pencil",
    kind="mc",
    defaults=dict(p=3, n=8, N=14, trials=60_000, mode=MAT, c=None),
    runner=_run_charpoly_det,
    min_precision=8,
))

_register(ExperimentDef(
    name="points_on_variety",
    doc="Exact small-ball law for characteristic polynomial values",
    kind="exact",
    defaults=dict(p=2, n=2, N=1, trials=1, mode=MAT, s=1, points=(0, 1)),
    runner=_run_points_on_variety,
    min_precision=1,
    suite_variants=(
        {"p": 2, "s": 1, "N": 1}, {"p": 2, "s": 2, "N": 2}, {"p": 3, "s": 1, "N": 1},
    ),
))

_register(ExperimentDef(
    name="points_on_variety_gl",
    doc="Exact small-ball law for the invertible ensemble (unit points)",
    kind="exact",
    defaults=dict(p=3, n=2, N=1, trials=1, mode=GL, s=1, points=(1, 2)),
    runner=_run_points_on_variety,
    min_precision=1,
))

_register(ExperimentDef(
    name="poly_variety",
    doc="Exact small-ball law for Haar monic polynomials",
    kind="exact",
    defaults=dict(p=2, n=2, N=1, trials=1, mode=POLY, s=1, points=(0, 1)),
    runner=_run_poly_variety,
    min_precision=1,
    suite_variants=(
        {"p": 2, "s": 1, "N": 1}, {"p": 2, "s": 2, "N": 2}, {"p": 3, "s": 1, "N": 1},
    ),
))

_register(ExperimentDef(
    name="invertible_exact",
    doc="Exact probability that a residue matrix is invertible",
    kind="exact",
    defaults=dict(p=2, n=2, N=1, trials=1, mode=MAT),
    runner=_run_invertible_exact,
    min_precision=1,
))
