"""Named experiments pairing each simulation with its analytic prediction.

Every entry fixes the estimand and desk-scale default parameters (sample
sizes were chosen empirically for sub-10-minute suite runs, not derived
from any convergence rate).  Checks of limit statements at finite matrix
size carry the ASYMPTOTIC flag, which adds the standard slack on top of
the 3-sigma gate.  Runners build every report through the two
constructors in ``experiment``: ``estimate_report`` (or
``make_estimate_report`` for a sample mean) and ``exact_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import closed_forms as cf
from .batched import (
    batch_charpoly,
    batch_charpoly_quad,
    batch_det,
    batch_rank_mod_p,
    batch_smith_parts,
    batch_smith_parts_quad,
    batch_valuation,
    check_f2_budget,
    check_float64_budget,
    check_modulus_budget,
    check_quad_budget,
    check_smith_budget,
    f2_primary_multiplicity,
    fp_primary_multiplicity,
    sample_f2_matrices,
    sample_matrices,
)
from .experiment import (
    ASYMPTOTIC,
    AnalyticTarget,
    BudgetExceeded,
    ExperimentSpec,
    InvalidSpec,
    PrecisionPolicyViolation,
    chi2_sf,
    chi_square_pvalue,
    check_enumeration_budget,
    contingency_chi2,
    estimate_report,
    exact_report,
    make_estimate_report,
    mean_se,
    run_chunked,
)
from .matrix_lab import GL, MAT
from .padic_core import is_prime
from .root_census import (
    QUAD_RAMIFIED,
    QUAD_UNRAMIFIED,
    batch_census,
    batch_roots,
    unramified_modulus,
)

POLY = "POLY"
# least value of each integer parameter: island degree d, shared chain level
# m, variety level s and determinant moment k
PARAM_FLOORS = {"d": 1, "m": 1, "s": 1, "k": 0}


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    doc: str
    kind: str                      # "mc" | "exact"
    defaults: dict
    runner: object
    min_precision: int = 1
    suite_variants: tuple = ({},)  # override dicts run by the full suite
    # spec -> None; raises ValueError when the runner's batched kernels
    # cannot be exact, or its enumeration exceeds the budget, for these
    # parameters, or the runner does not apply to them (p = 2, quadratic)
    budget: object = None
    # name of the sample pass this experiment shares with others that run
    # the same chunk function (see experiment.run_chunked)
    shared: str | None = None
    # the one ensemble (MAT, GL or POLY) the experiment's law is stated for
    mode: str = MAT

    def make_spec(self, overrides: dict) -> ExperimentSpec:
        """The checked run request for these overrides (see check).
        Unknown keys raise KeyError."""
        base = dict(self.defaults)
        known = set(base) | {"p", "n", "N", "trials", "seed", "workers"}
        for k in overrides:
            if k not in known:
                raise KeyError(f"unknown override '{k}' for experiment {self.name}")
        base.update(overrides)
        params = {
            k: v
            for k, v in base.items()
            if k not in {"p", "n", "N", "trials", "seed", "workers"}
        }
        spec = ExperimentSpec(
            name=self.name,
            p=base["p"],
            n=base["n"],
            precision=base["N"],
            mode=self.mode,
            trials=base["trials"],
            seed=base.get("seed", 20240801),
            workers=base.get("workers", 1),
            params=params,
            shared=self.shared,
        )
        self.check(spec)
        return spec

    def check(self, spec: ExperimentSpec) -> None:
        """Refuse a spec this experiment cannot run exactly, before anything
        is sampled: a non-prime p, n, trials or workers < 1, a seed outside
        [0, 2^64), a mode other than the experiment's own, parameters
        outside their domain or the batched kernels' exact range, or p = 2
        for a quadratic experiment raise InvalidSpec
        (PrecisionPolicyViolation for N below min_precision, BudgetExceeded
        for an enumeration past its budget)."""
        if not is_prime(spec.p):
            raise InvalidSpec(f"p = {spec.p} is not prime")
        if spec.n < 1:
            raise InvalidSpec(f"n must be >= 1, got {spec.n}")
        if spec.trials < 1:
            raise InvalidSpec(f"trials must be >= 1, got {spec.trials}")
        if spec.workers < 1:
            raise InvalidSpec(f"workers must be >= 1, got {spec.workers}")
        if not 0 <= spec.seed < 2 ** 64:
            raise InvalidSpec(f"seed must lie in [0, 2^64), got {spec.seed}")
        if spec.mode != self.mode:
            raise InvalidSpec(f"{self.name} runs mode {self.mode}, not {spec.mode!r}")
        if spec.precision < self.min_precision:
            raise PrecisionPolicyViolation(
                f"{self.name} needs N >= {self.min_precision}, got {spec.precision}")
        for key, low in PARAM_FLOORS.items():
            if key in spec.params and spec.params[key] < low:
                raise InvalidSpec(f"{key} must be >= {low}, got {spec.params[key]}")
        if self.budget is not None:
            try:
                self.budget(spec)
            except InvalidSpec:
                raise
            except ValueError as exc:
                raise InvalidSpec(str(exc)) from None


def _charpoly_budget(spec):
    """int64 budget of batch_charpoly / batch_det mod p^N at every size run;
    GL sampling at p = 2 ranks with the packed F_2 kernels."""
    n = max((spec.n, *spec.params.get("sizes", ())))
    check_modulus_budget(n, spec.p ** spec.precision)
    if spec.mode == GL and spec.p == 2:
        check_f2_budget(n)


def _sampling_budget(spec):
    """Entries mod p^N, and p^m times them, stay int64."""
    bound = spec.p ** (spec.precision + spec.params.get("m", 0))
    if bound > 2 ** 63:
        raise ValueError(f"entries up to {bound} too large for int64 sampling")


def _island_budget(spec):
    if spec.p == 2:
        check_f2_budget(spec.n)
    else:
        check_float64_budget(spec.n, spec.p)


def _charpoly_det_budget(spec):
    """A given c must make x^2 - c irreducible mod p."""
    _charpoly_budget(spec)
    p, c = spec.p, spec.params["c"]
    if c is not None and (p == 2 or pow(c, (p - 1) // 2, p) != p - 1):
        raise ValueError(f"c = {c} is not a quadratic non-residue mod {p}")
    check_quad_budget(spec.n, c or _nonresidue(p), p ** spec.precision)


def _odd_p_census_budget(spec):
    """Quadratic orbits are classified at odd p only."""
    _charpoly_budget(spec)
    if spec.p == 2:
        raise ValueError("quadratic classification needs odd p")


def _smith_chain_budget(spec):
    _sampling_budget(spec)
    check_smith_budget(spec.p ** spec.precision)


def _quad_chain_budget(spec):
    _sampling_budget(spec)
    label = spec.params["label"]
    if label not in ("UNRAMIFIED", "RAMIFIED"):
        raise ValueError(f"label must be UNRAMIFIED or RAMIFIED, got {label!r}")
    check_smith_budget(spec.p ** spec.precision, _chain_gamma(spec))


def _points_budget(spec):
    """Repeated points make the exact laws undefined, the matrix laws at r
    points run on r x r matrices (n = r), the GL law holds at unit points
    only, and the matrix laws hold only for s > 2v, v the largest pairwise
    valuation of the points (at p = 2, points (0, 2) and s = 1 the
    enumeration gives 5/2 against 3).  The polynomial law holds
    only for at most n points and s >= V, V = sum of the pairwise
    valuations (at p = 2, n = 3, points (0, 4) and s = 1 it gives 2
    against 4); both rules are read off enumerations.  The enumeration
    runs over the r x r matrices, or the degree-n monic polys, mod p^s."""
    p, points, s = spec.p, spec.params["points"], spec.params["s"]
    vals = cf._pairwise_min_valuations(p, points)
    v = max(vals, default=0)
    if spec.mode != POLY and spec.n != len(points):
        raise ValueError(f"the matrix law at {len(points)} points runs on "
                         f"n = {len(points)}, got n = {spec.n}")
    if spec.mode == GL and any(x % p == 0 for x in points):
        raise ValueError(f"GL points must be units mod {p}, got {points}")
    if spec.mode != POLY and s <= 2 * v:
        raise ValueError(f"points {points} agree mod {p}^{v}: the exact "
                         f"matrix law needs s > {2 * v}, got s = {s}")
    if spec.mode == POLY and (len(points) > spec.n or s < sum(vals)):
        raise ValueError(f"the exact polynomial law needs at most n = "
                         f"{spec.n} points and s >= {sum(vals)}, got "
                         f"{len(points)} points and s = {s}")
    size = spec.n if spec.mode == POLY else len(points) ** 2
    check_enumeration_budget(p ** (s * size))


def _det_exact_budget(spec):
    if spec.n != 1:
        raise BudgetExceeded("exact determinant check is sized for n = 1")
    check_enumeration_budget(spec.p ** spec.precision)


def _charpolys(gen, size, p, n, N, mode):
    """Charpolys of uniform MAT or GL matrices, or uniform monic POLY
    polynomials, of degree n mod p^N; coefficients leading-first."""
    if mode == POLY:
        coeffs = gen.integers(0, p ** N, size=(size, n), dtype=np.int64)
        lead = np.ones((size, 1), dtype=np.int64)
        return np.concatenate([lead, coeffs[:, ::-1]], axis=1)
    mats = sample_matrices(gen, size, n, p, N, gl=(mode == GL))
    return batch_charpoly(mats, p ** N)


# ---------------------------------------------------------------------------
# Counts of eigenvalues in Z_p: mean, variance, pairwise valuations.
# ---------------------------------------------------------------------------

PAIR_CELLS = 3  # separation valuations m = 0, 1, 2


def _zp_stats(cps, p, n, N):
    """Z_p eigenvalue statistics of a batch of degree-n charpolys mod p^N:
    over the samples whose roots are certified, sums of the count c, of
    c (c - 1) and of the ordered pairs at each separation valuation, and
    how many have all n roots in Z_p.

    Two roots of a row are at valuation m, the depth of their lowest
    common residue disk.  batch_roots lists a row's roots in tree order, so
    the roots sharing a disk at depth m are runs whose common depth with
    the root before stays >= m; each run of c roots holds c (c - 1) ordered
    pairs at valuation >= m.  Every cell is an integer, so the float64
    sums are exact in any order.
    """
    roots = batch_roots(cps[:, ::-1, None], N, p)
    B = len(cps)
    at_least = []
    for m in range(PAIR_CELLS + 1):
        start = roots.lcp < m
        size = np.bincount(np.cumsum(start) - 1)
        at_least.append(np.bincount(roots.row[start], size * (size - 1),
                                    minlength=B).astype(np.int64))
    ok = roots.ok
    pairs = np.stack([at_least[m] - at_least[m + 1]
                      for m in range(PAIR_CELLS)], axis=1)[ok]
    c = np.bincount(roots.row, minlength=B)[ok]
    v = c * (c - 1)
    return {
        "sum": float(c.sum()), "sumsq": float((c * c).sum()),
        "used": int(ok.sum()),
        "var_sum": float(v.sum()), "var_sumsq": float((v * v).sum()),
        "all_in": int((c == n).sum()),
        "pair_sum": pairs.sum(axis=0).astype(np.float64),
        "pair_sumsq": (pairs * pairs).sum(axis=0).astype(np.float64),
    }


def _zp_chunk(spec, gen, size):
    """_zp_stats of one chunk; violations counts the charpolys with p | f(0)."""
    p, n, N = spec.p, spec.n, spec.precision
    cps = _charpolys(gen, size, p, n, N, spec.mode)
    out = _zp_stats(cps, p, n, N)
    out["violations"] = int((cps[:, -1] % p == 0).sum())
    return out


def _run_zp_count(spec):
    stats = run_chunked(spec, partial(_zp_chunk, spec))
    target = AnalyticTarget(value=cf.one_point_zp(spec.p, spec.n).value,
                            tol=1e-12)
    return [
        make_estimate_report(
            spec, "mean zp_count", stats["sum"], stats["sumsq"], stats["used"],
            target,
        )
    ]


def _run_var_zp(spec):
    stats = run_chunked(spec, partial(_zp_chunk, spec))
    target = AnalyticTarget(value=cf.var_zp(spec.p).value, flags=(ASYMPTOTIC,))
    return [
        make_estimate_report(
            spec, "mean zp_count*(zp_count-1)", stats["var_sum"],
            stats["var_sumsq"], stats["used"], target,
        )
    ]


def _run_pair_hist(spec):
    stats = run_chunked(spec, partial(_zp_chunk, spec))
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
                stats["used"], target, extra_params={"m": m},
            )
        )
    return reports


def _run_gl_support(spec):
    stats = run_chunked(spec, partial(_zp_chunk, spec))
    rep_v = estimate_report(
        spec, "eigenvalues with residue 0 (count)", float(stats["violations"]),
        0.0, spec.trials, AnalyticTarget(value=0.0, comparison="zero_count"),
    )
    rep_z = make_estimate_report(
        spec, "mean zp_count", stats["sum"], stats["sumsq"], stats["used"],
        AnalyticTarget(value=cf.gl_zp_expected(spec.p).value, flags=(ASYMPTOTIC,)),
    )
    return [rep_v, rep_z]


# ---------------------------------------------------------------------------
# Determinant norm moments.
# ---------------------------------------------------------------------------


def _det_moment_chunk(spec, gen, size):
    p, n, N = spec.p, spec.n, spec.precision
    mats = sample_matrices(gen, size, n, p, N)
    dets = batch_det(mats, p ** N)
    vals = batch_valuation(dets, p, N)
    good = vals < N
    x = np.float64(p) ** (-np.float64(spec.params["k"]) * vals[good])
    return {"sum": float(x.sum()), "sumsq": float((x * x).sum()),
            "used": int(good.sum())}


def _run_det_moment(spec):
    p, n, k = spec.p, spec.n, spec.params["k"]
    stats = run_chunked(spec, partial(_det_moment_chunk, spec))
    target = AnalyticTarget(value=cf.det_moment(p, n, k).value, tol=1e-12)
    return [
        make_estimate_report(
            spec, f"mean ||det A||^{k}", stats["sum"], stats["sumsq"],
            stats["used"], target,
        )
    ]


def _run_det_moment_exact(spec):
    p, N = spec.p, spec.precision
    m = p ** N
    counts = np.zeros(N + 1, dtype=np.int64)  # residues a mod p^N by v(a)
    for block in _digit_blocks(m, 1):
        counts += np.bincount(batch_valuation(block[:, 0], p, N), minlength=N + 1)
    # a = 0 alone reports v = N: its true norm lies anywhere in [0, p^-N]
    lo = sum(Fraction(int(c), p ** v) for v, c in enumerate(counts[:N])) / m
    hi = lo + Fraction(1, p ** N) / m
    return [exact_report(
        spec, "E ||det A||, n=1", lo, hi, m,
        Fraction(p - 1, p) / Fraction(p * p - 1, p * p),
        details=f"interval width {float(hi - lo):.3g}",
    )]


# ---------------------------------------------------------------------------
# Island law.
# ---------------------------------------------------------------------------

ISLAND_MAX_J = 6
# The kernels count dim ker F(A)^K / d = sum_i min(K, s_i) over the sizes
# s_i of the F-primary blocks of A, which sum to the multiplicity mult.  If
# every s_i < K this is mult; otherwise both it and mult are >= K.  So with
# K = 2^ISLAND_CAP_POW >= ISLAND_MAX_J + 1, min(count, ISLAND_MAX_J + 1)
# equals min(mult, ISLAND_MAX_J + 1), the only value the histogram keeps.
ISLAND_CAP_POW = ISLAND_MAX_J.bit_length()
# Matrix entries an island chunk draws and counts at a time: a slice holds
# max(1, ISLAND_SLICE // n^2) matrices, 209 at n = 50.  Over one chunk of
# each benchmark island run (p = 2 at d = 1 and d = 2, 4,096 matrices;
# p = 3, n = 50, 1,024), best times summed (2-core Xeon, two runs of 10
# and 20 interleaved rounds) to 0.51-0.53 s at 2^17 entries, 0.43-0.48 at
# 2^18, 0.41-0.45 at 2^19, 0.40-0.44 at 2^20, 0.41-0.45 at 2^21 and
# 0.44-0.47 s for the whole chunk at once.  tracemalloc peaks at p = 2 and
# p = 3 are 3.0 and 15.9 MiB at 2^19 and 6.0 and 32.0 MiB at 2^20,
# against 48.8 and 78.1 MiB for the whole chunk; 2^19 is as fast at half
# the memory.  Those p = 3 figures are for int64 draws, float64 powers and
# int8 ranks.  With int32 draws, float32 powers and packed F_3 ranks the
# p = 3 chunk alone takes (best of 12 rounds, two runs) 57-58 ms at 2^17,
# 49-51 at 2^18, 48-50 at 2^19, 50-52 at 2^20, 53-54 at 2^21 and 55-56 ms
# at once, against 130-133 ms at 2^19 with int8 ranks; its peak at 2^19 is
# 6.0 MiB.
ISLAND_SLICE = 2 ** 19


def _island_law_chunk(spec, gen, size):
    """Histogram of min(mult, ISLAND_MAX_J + 1) over `size` matrices, drawn
    and counted ISLAND_SLICE entries at a time.  Slices drawn in sequence
    from gen continue its one stream, so the histogram equals that of one
    draw of the whole chunk."""
    p, n, d = spec.p, spec.n, spec.params["d"]
    coeffs = list(unramified_modulus(p, d))
    step = max(1, ISLAND_SLICE // (n * n))
    hist = np.zeros(ISLAND_MAX_J + 2, dtype=np.int64)
    for start in range(0, size, step):
        b = min(step, size - start)
        if p == 2:
            mats = sample_f2_matrices(gen, b, n)
            mult = f2_primary_multiplicity(mats, coeffs, d, ISLAND_CAP_POW)
        else:
            # the int64 draw's values and stream in half the memory: numpy
            # draws 32-bit words for any range below 2^31
            mats = gen.integers(0, p, size=(b, n, n), dtype=np.int32)
            mult = fp_primary_multiplicity(mats, coeffs, d, p, ISLAND_CAP_POW)
        hist += np.bincount(
            np.minimum(mult, ISLAND_MAX_J + 1), minlength=ISLAND_MAX_J + 2
        )
    return {"hist": hist.astype(np.float64)}


def _run_island_law(spec):
    p, d = spec.p, spec.params["d"]
    stats = run_chunked(spec, partial(_island_law_chunk, spec))
    hist = stats["hist"]
    total = hist.sum()
    emp = hist / total
    tv = 0.5 * sum(
        abs(emp[j] - cf.island_law(p, d, j).value) for j in range(ISLAND_MAX_J + 1)
    )
    # every sample lands in the histogram, so used = trials
    return [estimate_report(
        spec, f"TV distance of island multiplicity law on 0..{ISLAND_MAX_J}",
        float(tv), 0.0, int(total),
        AnalyticTarget(interval=(0.0, 0.01), flags=(ASYMPTOTIC,)),
        details="counts " + ",".join(str(int(x)) for x in hist),
    )]


# ---------------------------------------------------------------------------
# Cokernel Markov chains.
# ---------------------------------------------------------------------------


def _two_step_fit_report(spec, estimand, table, mp2, details=""):
    """Chi-square fit of table[a, b] to two kernel steps from n:
    probs[a, b] = K1(n, a) K2(a, b), K1 at t = 1/p and K2 under mp2."""
    n = spec.n
    mp1 = cf.MarkovParams(t=1.0 / spec.p, u=1.0)
    probs = np.zeros((n + 1, n + 1))
    for a in range(n + 1):
        pa = cf.markov_kernel_prob(mp1, n, a).value
        for b in range(a + 1):
            probs[a, b] = pa * cf.markov_kernel_prob(mp2, a, b).value
    chi2, dof, pval = chi_square_pvalue(table.ravel(), probs.ravel())
    return estimate_report(
        spec, estimand, float(pval), 0.0, int(table.sum()),
        AnalyticTarget(interval=(1e-3, 1.0)),
        details=f"chi2 {chi2:.2f}, dof {dof}{details}",
    )


def _level_counts(parts, top):
    """(B, top) counts of each sample's parts >= j, for j = 1..top."""
    return (parts[:, :, None] >= np.arange(1, top + 1)).sum(axis=1)


def _tally(shape, *cells):
    """int64 table of the given shape counting the index tuples in cells."""
    table = np.zeros(shape, dtype=np.int64)
    np.add.at(table, cells, 1)
    return table


def _cok_markov_chunk(spec, gen, size):
    p, n, N = spec.p, spec.n, spec.precision
    parts, sat = batch_smith_parts(sample_matrices(gen, size, n, p, N), p, N)
    lam = _level_counts(parts[~sat], 2)
    return {"table": _tally((n + 1, n + 1), lam[:, 0], lam[:, 1])}


def _run_cok_markov(spec):
    stats = run_chunked(spec, partial(_cok_markov_chunk, spec))
    return [_two_step_fit_report(
        spec, "chi-square p-value of (l'_1, l'_2) vs kernel transitions",
        stats["table"], cf.MarkovParams(t=1.0 / spec.p, u=1.0),
    )]


def _cok_joint_chain_chunk(spec, gen, size):
    """Levels 1..m + 1 of A and of A - p^m B: a sample whose first m levels
    differ is a violation, the others are tallied by (shared level m, level
    m + 1 of each)."""
    p, n, N = spec.p, spec.n, spec.precision
    m_level = spec.params["m"]
    m = p ** N
    A = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
    # M2 = (A - p^m B) mod p^N, built in B's buffer
    M2 = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
    M2 *= p ** m_level
    np.subtract(A, M2, out=M2)
    M2 %= m
    # Smith forms are computed sample by sample, so each batch can run
    # alone and be dropped once its parts are read
    parts1, sat1 = batch_smith_parts(A, p, N)
    del A
    parts2, sat2 = batch_smith_parts(M2, p, N)
    lam1 = _level_counts(parts1, m_level + 1)
    lam2 = _level_counts(parts2, m_level + 1)
    good = ~(sat1 | sat2)
    shared = (lam1[:, :m_level] == lam2[:, :m_level]).all(axis=1)
    keep = good & shared
    table = _tally((n + 1,) * 3, lam1[keep, m_level - 1], lam1[keep, m_level],
                   lam2[keep, m_level])
    return {"table": table, "violations": int((good & ~shared).sum())}


def _run_cok_joint_chain(spec):
    stats = run_chunked(spec, partial(_cok_joint_chain_chunk, spec))
    table = stats["table"]
    chi2 = 0.0
    dof = 0
    for a in range(spec.n + 1):
        sub = table[a]
        if sub.sum() < 100:
            continue
        c, d = contingency_chi2(sub.astype(np.float64))
        chi2 += c
        dof += d
    pval = chi2_sf(chi2, dof) if dof >= 1 else 1.0
    rep = estimate_report(
        spec, "conditional independence p-value of branch levels given shared state",
        pval, 0.0, int(table.sum()), AnalyticTarget(interval=(1e-3, 1.0)),
        details=f"chi2 {chi2:.2f}, dof {dof}, shared-level violations {stats['violations']}",
    )
    rep_v = estimate_report(
        spec, "shared-level mismatches (count)", float(stats["violations"]),
        0.0, spec.trials, AnalyticTarget(value=0.0, comparison="zero_count"),
    )
    return [rep, rep_v]


def _nonresidue(p: int) -> int:
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValueError("no quadratic non-residue below p (p must be odd)")


def _quad_chain_chunk(spec, gen, size):
    """Uniformizer levels of A - p^m B g over the extension: ramified levels
    must pair up through the shared prefix (else a violation); the kept
    samples are tallied by the two levels the extension kernel steps."""
    p, n, N = spec.p, spec.n, spec.precision
    m_level = spec.params["m"]
    ramified = spec.params["label"] == "RAMIFIED"
    m = p ** N
    A = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
    B = gen.integers(0, m, size=(size, n, n), dtype=np.int64)
    V = (-p ** m_level * B) % m
    parts, sat = batch_smith_parts_quad(A, V, p, N, ramified, _chain_gamma(spec))
    top = 2 * m_level if ramified else m_level
    lam = _level_counts(parts[~sat], top + 1)
    ok = np.ones(len(lam), dtype=bool)
    if ramified:
        ok = (lam[:, 0:top:2] == lam[:, 1:top:2]).all(axis=1)
    return {"table": _tally((n + 1, n + 1), lam[ok, top - 1], lam[ok, top]),
            "violations": int((~ok).sum())}


def _chain_gamma(spec):
    """g^2 = gamma: p for the ramified ring, a non-residue unramified."""
    p = spec.p
    return p if spec.params["label"] == "RAMIFIED" else _nonresidue(p)


def _run_quad_chain(spec):
    p = spec.p
    ramified = spec.params["label"] == "RAMIFIED"
    stats = run_chunked(spec, partial(_quad_chain_chunk, spec))
    t2 = 1.0 / p if ramified else 1.0 / (p * p)
    return [_two_step_fit_report(
        spec, "chi-square p-value of extension cokernel chain vs kernel",
        stats["table"], cf.MarkovParams(t=t2, u=1.0),
        details=f", pairing violations {stats['violations']}",
    )]


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
    cps = _charpolys(gen, size, p, n, N, spec.mode)
    counts = batch_census(cps[:, ::-1], p, N)
    quad = counts.quad[counts.quad_ok]
    # two eigenvalues per orbit: per cell, then over all depths by label
    cells = 2 * np.stack(
        [quad[:, int(label == QUAD_RAMIFIED), m] for label, m in QUAD_CELLS]
        + [quad[:, 0].sum(axis=1), quad[:, 1].sum(axis=1)], axis=1)
    c3 = counts.unram[counts.unram_ok, 3] if n >= 3 else np.zeros(0)
    return {
        "quad_sum": cells.sum(axis=0).astype(np.float64),
        "quad_sumsq": (cells * cells).sum(axis=0).astype(np.float64),
        "quad_used": int(counts.quad_ok.sum()),
        "unram3_sum": float(c3.sum()),
        "unram3_sumsq": float((c3 * c3).sum()),
        "unram3_used": int(counts.unram_ok.sum()),
    }


def _quad_cell_target(p, label, m):
    name = "UNRAMIFIED" if label == QUAD_UNRAMIFIED else "RAMIFIED"
    density = cf.quad_density(p, name, m).value
    expected = (1.0 - 1.0 / p) * p ** (-m) * density
    if name == "RAMIFIED":
        expected *= 2.0  # two ramified quadratic extensions at odd p
    return AnalyticTarget(value=expected, flags=(ASYMPTOTIC,))


def _run_quad_census(spec):
    stats = run_chunked(spec, partial(_census_chunk, spec))
    reports = []
    for idx, (label, m) in enumerate(QUAD_CELLS):
        reports.append(
            make_estimate_report(
                spec, f"mean eigenvalue count, {label} depth {m}",
                stats["quad_sum"][idx], stats["quad_sumsq"][idx],
                stats["quad_used"], _quad_cell_target(spec.p, label, m),
                extra_params={"label": label, "m": m},
            )
        )
    return reports


def _run_expected_quad(spec):
    stats = run_chunked(spec, partial(_census_chunk, spec))
    ncell = len(QUAD_CELLS)
    p = spec.p
    rep_u = make_estimate_report(
        spec, "mean eigenvalue count in the unramified quadratic extension",
        stats["quad_sum"][ncell], stats["quad_sumsq"][ncell],
        stats["quad_used"],
        AnalyticTarget(value=cf.expected_quad(p, "UNRAMIFIED").value,
                       flags=(ASYMPTOTIC,)),
        extra_params={"label": "UNRAMIFIED"},
    )
    rep_r = make_estimate_report(
        spec, "mean eigenvalue count in both ramified quadratic extensions",
        stats["quad_sum"][ncell + 1], stats["quad_sumsq"][ncell + 1],
        stats["quad_used"],
        AnalyticTarget(value=2.0 * cf.expected_quad(p, "RAMIFIED").value,
                       flags=(ASYMPTOTIC,)),
        extra_params={"label": "RAMIFIED"},
    )
    return [rep_u, rep_r]


def _run_higher_cubic(spec):
    stats = run_chunked(spec, partial(_census_chunk, spec))
    iv = cf.higher_degree_bounds(spec.p, 3, 1.0)
    rep = make_estimate_report(
        spec, "mean eigenvalue count in the unramified cubic extension",
        stats["unram3_sum"], stats["unram3_sumsq"], stats["unram3_used"],
        AnalyticTarget(interval=(iv.lo, iv.hi), flags=(ASYMPTOTIC,)),
    )
    return [rep]


# ---------------------------------------------------------------------------
# All-eigenvalues-in-Z_p relation and decay.
# ---------------------------------------------------------------------------


def _all_in_stats(gen, size, p, n, N, mode):
    """(samples with all n roots in Z_p, samples certified) for one batch."""
    stats = _zp_stats(_charpolys(gen, size, p, n, N, mode), p, n, N)
    return stats["all_in"], stats["used"]


def _en_relation_chunk(spec, gen, size):
    p, n, N = spec.p, spec.n, spec.precision
    mh, mu = _all_in_stats(gen, size, p, n, N, MAT)
    ph, pu = _all_in_stats(gen, size, p, n, N, POLY)
    return {"mat_hits": mh, "mat_used": mu, "poly_hits": ph, "poly_used": pu}


def _run_en_relation(spec):
    p, n = spec.p, spec.n
    stats = run_chunked(spec, partial(_en_relation_chunk, spec))
    target = AnalyticTarget(value=cf.en_relation_constant(p, n).value)
    used = min(stats["mat_used"], stats["poly_used"])
    empty = [side for side in ("mat", "poly") if stats[f"{side}_hits"] == 0]
    if empty:
        # no all-in sample on a side: the ratio has no estimate
        return [estimate_report(
            spec, "P(all eigenvalues in Zp) / P(all roots in Zp)", math.nan,
            math.nan, used, target,
            details=f"no all-in samples on the {' and '.join(empty)} side",
        )]
    px = stats["mat_hits"] / stats["mat_used"]
    py = stats["poly_hits"] / stats["poly_used"]
    ratio = px / py
    # delta-method standard error for a ratio of independent proportions
    vx = px * (1 - px) / stats["mat_used"]
    vy = py * (1 - py) / stats["poly_used"]
    se = ratio * math.sqrt(vx / px ** 2 + vy / py ** 2)
    return [estimate_report(
        spec, "P(all eigenvalues in Zp) / P(all roots in Zp)", ratio, se,
        used, target, details=f"P_mat {px:.4f}, P_poly {py:.4f}",
    )]


def _en_decay_chunk(spec, gen, size):
    out = {}
    for n in spec.params["sizes"]:
        h, u = _all_in_stats(gen, size, spec.p, n, spec.precision, MAT)
        out[f"hits_{n}"] = h
        out[f"used_{n}"] = u
    return out


def _run_en_decay(spec):
    sizes = spec.params["sizes"]
    stats = run_chunked(spec, partial(_en_decay_chunk, spec))
    reports = []
    probs = {}
    for n in sizes:
        used = stats[f"used_{n}"] or math.nan  # none certified: NaN, INCONCLUSIVE
        ph = stats[f"hits_{n}"] / used
        probs[n] = (ph, math.sqrt(ph * (1 - ph) / used))
    for a, b in zip(sizes, sizes[1:]):
        pa, sa = probs[a]
        pb, sb = probs[b]
        reports.append(estimate_report(
            spec, f"P(all in Zp) gap, n={a} minus n={b}", pa - pb,
            math.sqrt(sa * sa + sb * sb), stats[f"used_{a}"],
            AnalyticTarget(value=0.0, comparison="greater"),
            details=f"P({a}) = {pa:.4f}, P({b}) = {pb:.4f}",
        ))
    return reports


# ---------------------------------------------------------------------------
# Linearized determinant identity over a quadratic quotient ring.
# ---------------------------------------------------------------------------


def _charpoly_det_identity_chunk(spec, gen, size):
    p, n, N = spec.p, spec.n, spec.precision
    c = spec.params.get("c") or _nonresidue(p)
    m = p ** N
    mats = sample_matrices(gen, size, n, p, N)
    za = np.matmul(mats, mats)
    del mats
    diag = np.arange(n)
    za[:, diag, diag] -= c
    za %= m
    dets = batch_det(za, m)
    del za  # before a0 and a1 are drawn
    vals = batch_valuation(dets, p, N)
    good = vals < N
    x = np.float64(p) ** (-np.float64(vals[good]))
    a0 = sample_matrices(gen, size, n, p, N)
    a1 = sample_matrices(gen, size, n, p, N)
    cu, cv = batch_charpoly_quad(a0, a1, c, m)
    du, dv = cu[:, -1], cv[:, -1]
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


def _run_charpoly_det(spec):
    p = spec.p
    stats = run_chunked(spec, partial(_charpoly_det_identity_chunk, spec))
    analytic = cf.quad_det_expectation(p, "UNRAMIFIED", 0).value
    rep1 = make_estimate_report(
        spec, "mean ||det Z(A)||, Z = x^2 - c",
        stats["mat_sum"], stats["mat_sumsq"], stats["mat_used"],
        AnalyticTarget(value=analytic, flags=(ASYMPTOTIC,)),
        extra_params={"side": "matrix"},
    )
    rep2 = make_estimate_report(
        spec, "mean ||Nm det(A0 + x A1)||",
        stats["quad_sum"], stats["quad_sumsq"], stats["quad_used"],
        AnalyticTarget(value=analytic, flags=(ASYMPTOTIC,)),
        extra_params={"side": "quotient"},
    )
    m1, s1 = mean_se(stats["mat_sum"], stats["mat_sumsq"], stats["mat_used"])
    m2, s2 = mean_se(stats["quad_sum"], stats["quad_sumsq"], stats["quad_used"])
    rep3 = estimate_report(
        spec, "difference of the two estimates", m1 - m2,
        math.sqrt(s1 * s1 + s2 * s2), min(stats["mat_used"], stats["quad_used"]),
        AnalyticTarget(value=0.0, flags=(ASYMPTOTIC,)),
        details=f"sides {m1:.5f} vs {m2:.5f}",
    )
    return [rep1, rep2, rep3]


# ---------------------------------------------------------------------------
# Exhaustive enumerations.
# ---------------------------------------------------------------------------


ENUM_BLOCK = 2 ** 16  # most codes _digit_blocks yields at once


def _digit_blocks(base, width):
    """Every width-digit vector in base `base`, most significant digit
    first, in code order, as (B, width) int64 blocks of at most ENUM_BLOCK
    rows.  check_enumeration_budget keeps base^width within int64."""
    total = base ** width
    weights = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, ENUM_BLOCK):
        codes = np.arange(start, min(start + ENUM_BLOCK, total), dtype=np.int64)
        yield codes[:, None] // weights % base


def _exact_prefactor(p: int, r: int) -> Fraction:
    out = Fraction(1)
    for k in range(1, r + 1):
        out *= 1 - Fraction(1, p ** k)
    return out


def _exact_pov_value(p: int, points, gl: bool) -> Fraction:
    r = len(points)
    inv_vand = p ** sum(cf._pairwise_min_valuations(p, points))
    const = Fraction(1) if gl else _exact_prefactor(p, r)
    return const * inv_vand / (1 - Fraction(1, p)) ** r


def _run_points_on_variety(spec):
    """Counts the r x r matrices A mod p^s (invertible mod p in GL mode)
    with det(x I - A) = 0 mod p^s at every point x; each point is reduced
    mod p^s before it meets int64."""
    p, s = spec.p, spec.params["s"]
    points = spec.params["points"]
    r = len(points)
    gl = spec.mode == GL
    m = p ** s
    eye = np.eye(r, dtype=np.int64)
    hits = total = 0
    for block in _digit_blocks(m, r * r):
        A = block.reshape(-1, r, r)
        if gl:
            A = A[batch_rank_mod_p(A, p) == r]
        total += len(A)
        for x in points:
            A = A[batch_det((x % m * eye - A) % m, m) == 0]
        hits += len(A)
    normalized = Fraction(hits, total) * p ** (s * r)
    return [exact_report(
        spec, "p^(s*r) * P(val P_A(x) >= s at all points)", normalized,
        normalized, total, _exact_pov_value(p, points, gl),
        details=f"{hits} of {total}",
    )]


def _run_poly_variety(spec):
    """Counts the monic x^n + c_{n-1} x^{n-1} + ... + c_0 mod p^s, digits
    (c_0, .., c_{n-1}), that vanish mod p^s at every point (by Horner)."""
    p, s = spec.p, spec.params["s"]
    points = spec.params["points"]
    n = spec.n
    m = p ** s
    hits = 0
    for block in _digit_blocks(m, n):
        for x in points:
            acc = np.ones(len(block), dtype=np.int64)
            for j in range(n - 1, -1, -1):
                acc = (acc * (x % m) + block[:, j]) % m
            block = block[acc == 0]
        hits += len(block)
    total = m ** n
    normalized = Fraction(hits, total) * p ** (s * len(points))
    return [exact_report(
        spec, "p^(s*#points) * P(val Y(x) >= s at all points)", normalized,
        normalized, total, p ** sum(cf._pairwise_min_valuations(p, points)),
        details=f"{hits} of {total}",
    )]


def _run_invertible_exact(spec):
    p, n = spec.p, spec.n
    hits = sum(int((batch_rank_mod_p(block.reshape(-1, n, n), p) == n).sum())
               for block in _digit_blocks(p, n * n))
    total = p ** (n * n)
    return [exact_report(
        spec, "P(A invertible mod p)", Fraction(hits, total),
        Fraction(hits, total), total, _exact_prefactor(p, n),
        details=f"{hits} of {total}",
    )]


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
    defaults=dict(p=3, n=6, N=10, trials=100_000),
    runner=_run_zp_count,
    min_precision=6,
    budget=_charpoly_budget,
))

_register(ExperimentDef(
    name="var_zp",
    doc="Limiting variance of the number of eigenvalues in Z_p",
    kind="mc",
    defaults=dict(p=3, n=8, N=12, trials=100_000),
    runner=_run_var_zp,
    min_precision=8,
    budget=_charpoly_budget,
    shared="zp",
))

_register(ExperimentDef(
    name="pair_valuation_hist",
    doc="Histogram of pairwise valuations of Z_p eigenvalues vs the pair density",
    kind="mc",
    defaults=dict(p=3, n=8, N=12, trials=100_000),
    runner=_run_pair_hist,
    min_precision=8,
    budget=_charpoly_budget,
    shared="zp",
))

_register(ExperimentDef(
    name="det_moment",
    doc="Moments of the determinant norm vs the q-Pochhammer ratio",
    kind="mc",
    defaults=dict(p=2, n=1, N=12, trials=30_000, k=1),
    runner=_run_det_moment,
    min_precision=6,
    suite_variants=tuple(
        {"p": p, "n": n, "k": k}
        for p in (2, 3) for n in (1, 2, 3) for k in (1, 2)
    ),
    budget=_charpoly_budget,
))

_register(ExperimentDef(
    name="det_moment_exact",
    doc="Exact enumeration interval for E||det|| at n=1",
    kind="exact",
    defaults=dict(p=2, n=1, N=8, trials=1),
    runner=_run_det_moment_exact,
    min_precision=2,
    budget=_det_exact_budget,
))

_register(ExperimentDef(
    name="island_law",
    doc="Distribution of the number of eigenvalue orbits on one island",
    kind="mc",
    defaults=dict(p=2, n=50, N=1, trials=100_000, d=1),
    runner=_run_island_law,
    min_precision=1,
    suite_variants=({"d": 1}, {"d": 2}),
    budget=_island_budget,
))

_register(ExperimentDef(
    name="cok_markov",
    doc="Cokernel level ranks follow the partition Markov kernel",
    kind="mc",
    defaults=dict(p=2, n=4, N=8, trials=100_000),
    runner=_run_cok_markov,
    min_precision=4,
    budget=_smith_chain_budget,
))

_register(ExperimentDef(
    name="cok_joint_chain",
    doc="Two pencil cokernels share levels then branch independently",
    kind="mc",
    defaults=dict(p=2, n=4, N=8, trials=50_000, m=1),
    runner=_run_cok_joint_chain,
    min_precision=4,
    budget=_smith_chain_budget,
))

_register(ExperimentDef(
    name="quad_chain",
    doc="Extension cokernel chains: shared prefix then the extension kernel",
    kind="mc",
    defaults=dict(p=3, n=3, N=8, trials=40_000, m=1,
                  label="UNRAMIFIED"),
    runner=_run_quad_chain,
    min_precision=4,
    suite_variants=({"label": "UNRAMIFIED"}, {"label": "RAMIFIED"}),
    budget=_quad_chain_budget,
))

_register(ExperimentDef(
    name="quad_census",
    doc="Certified quadratic eigenvalue orbits by type and depth",
    kind="mc",
    defaults=dict(p=3, n=6, N=12, trials=100_000),
    runner=_run_quad_census,
    min_precision=8,
    budget=_odd_p_census_budget,
    shared="census",
))

_register(ExperimentDef(
    name="expected_quad",
    doc="Total eigenvalue counts in quadratic extensions",
    kind="mc",
    defaults=dict(p=3, n=6, N=12, trials=40_000),
    runner=_run_expected_quad,
    min_precision=8,
    budget=_odd_p_census_budget,
    shared="census",
))

_register(ExperimentDef(
    name="higher_degree_unramified_cubic",
    doc="Eigenvalue count in the unramified cubic vs the divisor-sum bounds",
    kind="mc",
    defaults=dict(p=3, n=6, N=12, trials=100_000),
    runner=_run_higher_cubic,
    min_precision=8,
    budget=_charpoly_budget,
    shared="census",
))

_register(ExperimentDef(
    name="en_relation",
    doc="All-eigenvalues probability vs all-roots probability ratio",
    kind="mc",
    defaults=dict(p=3, n=2, N=10, trials=100_000),
    runner=_run_en_relation,
    min_precision=6,
    budget=_charpoly_budget,
))

_register(ExperimentDef(
    name="en_decay",
    doc="Monotone decay of the all-eigenvalues probability in the size",
    kind="mc",
    defaults=dict(p=2, n=4, N=10, trials=100_000, sizes=(2, 3, 4)),
    runner=_run_en_decay,
    min_precision=6,
    budget=_charpoly_budget,
))

_register(ExperimentDef(
    name="gl_support",
    doc="Invertible ensemble: no residue-zero eigenvalues; unit-ball count",
    kind="mc",
    defaults=dict(p=3, n=6, N=10, trials=100_000),
    mode=GL,
    runner=_run_gl_support,
    min_precision=6,
    budget=_charpoly_budget,
))

_register(ExperimentDef(
    name="charpoly_det_identity",
    doc="Determinant norm of Z(A) vs the linearized quotient-ring pencil",
    kind="mc",
    defaults=dict(p=3, n=8, N=14, trials=60_000, c=None),
    runner=_run_charpoly_det,
    min_precision=8,
    budget=_charpoly_det_budget,
))

_register(ExperimentDef(
    name="points_on_variety",
    doc="Exact small-ball law for characteristic polynomial values",
    kind="exact",
    defaults=dict(p=2, n=2, N=1, trials=1, s=1, points=(0, 1)),
    runner=_run_points_on_variety,
    min_precision=1,
    suite_variants=(
        {"p": 2, "s": 1, "N": 1}, {"p": 2, "s": 2, "N": 2}, {"p": 3, "s": 1, "N": 1},
    ),
    budget=_points_budget,
))

_register(ExperimentDef(
    name="points_on_variety_gl",
    doc="Exact small-ball law for the invertible ensemble (unit points)",
    kind="exact",
    defaults=dict(p=3, n=2, N=1, trials=1, s=1, points=(1, 2)),
    mode=GL,
    runner=_run_points_on_variety,
    min_precision=1,
    budget=_points_budget,
))

_register(ExperimentDef(
    name="poly_variety",
    doc="Exact small-ball law for Haar monic polynomials",
    kind="exact",
    defaults=dict(p=2, n=2, N=1, trials=1, s=1, points=(0, 1)),
    mode=POLY,
    runner=_run_poly_variety,
    min_precision=1,
    suite_variants=(
        {"p": 2, "s": 1, "N": 1}, {"p": 2, "s": 2, "N": 2}, {"p": 3, "s": 1, "N": 1},
    ),
    budget=_points_budget,
))

_register(ExperimentDef(
    name="invertible_exact",
    doc="Exact probability that a residue matrix is invertible",
    kind="exact",
    defaults=dict(p=2, n=2, N=1, trials=1),
    runner=_run_invertible_exact,
    min_precision=1,
    budget=lambda spec: check_enumeration_budget(spec.p ** (spec.n * spec.n)),
))
