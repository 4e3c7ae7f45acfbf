"""Estimation engines and statistical comparison.

Monte Carlo runs are split into fixed-size chunks; chunk c draws from the
counter-based stream keyed by (seed, c), and reduction happens in chunk
order, so results are bit-identical for any worker count.  Exhaustive runs
enumerate the whole finite level and produce exact rationals, widening to
an interval when saturation leaves samples undetermined.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

CHUNK_TRIALS = 4096

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

ASYMPTOTIC = "ASYMPTOTIC"


class PrecisionPolicyViolation(ValueError):
    """Working precision below the policy minimum for the estimand."""


class BudgetExceeded(ValueError):
    """Exhaustive enumeration would exceed the configured budget."""


class InvalidSpec(ValueError):
    """A run parameter outside the domain every experiment accepts."""


class UnknownExperiment(KeyError):
    """No registry entry with that name."""


@dataclass
class ExperimentSpec:
    """A fully populated run request for one named experiment."""

    name: str
    p: int
    n: int
    precision: int
    mode: str            # MAT | GL | POLY
    trials: int
    seed: int
    workers: int = 1
    params: dict = field(default_factory=dict)

    def describe(self) -> dict:
        out = {
            "p": self.p,
            "n": self.n,
            "N": self.precision,
            "mode": self.mode,
            "trials": self.trials,
        }
        out.update(self.params)
        return out


@dataclass(frozen=True)
class AnalyticTarget:
    """The prediction a report is compared against."""

    value: float | None = None
    interval: tuple | None = None
    exact: str | None = None          # rational string, for exact checks
    tol: float = 0.0
    flags: tuple = ()
    comparison: str = "two_sided"     # two_sided | greater | zero_count

    def slack(self) -> float:
        if ASYMPTOTIC not in self.flags:
            return 0.0
        ref = abs(self.value) if self.value is not None else 0.0
        return max(0.05, 0.05 * ref)

    def to_dict(self) -> dict:
        out = {"tol": self.tol, "flags": list(self.flags)}
        if self.value is not None:
            out["value"] = self.value
        if self.interval is not None:
            out["interval"] = [self.interval[0], self.interval[1]]
        if self.exact is not None:
            out["exact"] = self.exact
        if self.comparison != "two_sided":
            out["comparison"] = self.comparison
        return out


@dataclass
class EstimateReport:
    """Monte Carlo estimate with its verdict against the analytic target."""

    name: str
    params: dict
    estimand: str
    estimate: float
    se: float
    ci: tuple
    trials: int
    used: int
    discard_rate: float
    seed: int
    wall_ms: float
    analytic: AnalyticTarget | None = None
    verdict: str = INCONCLUSIVE
    z: float | None = None
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "estimand": self.estimand,
            "estimate": self.estimate,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "trials": self.trials,
            "used": self.used,
            "discard_rate": self.discard_rate,
            "seed": self.seed,
            "wall_ms": self.wall_ms,
            "analytic": self.analytic.to_dict() if self.analytic else None,
            "verdict": self.verdict,
            "z": self.z,
            "details": self.details,
        }


@dataclass
class ExactReport:
    """Exact rational value (or interval under saturation) from enumeration."""

    name: str
    params: dict
    estimand: str
    lo: Fraction
    hi: Fraction
    enumeration_size: int
    seed: int
    wall_ms: float
    analytic: AnalyticTarget | None = None
    verdict: str = INCONCLUSIVE
    details: str = ""

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "estimand": self.estimand,
            "exact": {"lo": str(self.lo), "hi": str(self.hi)},
            "enumeration_size": self.enumeration_size,
            "seed": self.seed,
            "wall_ms": self.wall_ms,
            "analytic": self.analytic.to_dict() if self.analytic else None,
            "verdict": self.verdict,
            "z": None,
            "details": self.details,
        }


@dataclass(frozen=True)
class Verdict:
    status: str
    z: float | None
    details: str


def compare(report, analytic: AnalyticTarget | None = None) -> Verdict:
    """Verdict for a report against its analytic target.

    Monte Carlo point targets pass within 3 standard errors plus the
    target tolerance (plus slack for limit statements checked at finite
    size); interval targets pass when the 95% confidence interval
    overlaps; exact reports pass only on rational equality, or containment
    when saturation widened them to an interval.  A discard rate above 5%
    makes any verdict inconclusive.
    """
    target = analytic if analytic is not None else report.analytic
    if target is None:
        return Verdict(INCONCLUSIVE, None, "no analytic target")
    if isinstance(report, ExactReport):
        if target.exact is None:
            return Verdict(INCONCLUSIVE, None, "exact report needs exact target")
        want = Fraction(target.exact)
        if report.is_point:
            ok = report.lo == want
            det = f"exact {report.lo} vs {want}"
        else:
            ok = report.lo <= want <= report.hi
            det = f"interval [{report.lo}, {report.hi}] vs {want}"
        return Verdict(PASS if ok else FAIL, None, det)
    if report.discard_rate > 0.05:
        return Verdict(
            INCONCLUSIVE, None, f"discard rate {report.discard_rate:.3f} > 5%"
        )
    est, se = report.estimate, report.se
    slack = target.slack()
    if target.comparison == "zero_count":
        ok = est == 0
        return Verdict(PASS if ok else FAIL, None, f"count {est} (must be 0)")
    if target.comparison == "greater":
        z = (est - target.value) / se if se > 0 else math.inf
        ok = est - target.value > 3.0 * se
        return Verdict(PASS if ok else FAIL, z, f"gap {est - target.value:.4g}")
    if target.interval is not None:
        lo, hi = target.interval
        clo, chi = report.ci
        ok = chi >= lo - target.tol - slack and clo <= hi + target.tol + slack
        return Verdict(
            PASS if ok else FAIL,
            None,
            f"ci [{clo:.4g}, {chi:.4g}] vs interval [{lo:.4g}, {hi:.4g}]",
        )
    v = target.value
    z = (est - v) / se if se > 0 else (0.0 if est == v else math.inf)
    ok = abs(est - v) <= 3.0 * se + target.tol + slack
    return Verdict(PASS if ok else FAIL, z, f"|{est:.6g} - {v:.6g}|, slack {slack:g}")


def finalize(report) -> None:
    """Fill verdict fields in place from the attached analytic target."""
    v = compare(report)
    report.verdict = v.status
    if isinstance(report, EstimateReport):
        report.z = v.z
    if v.details and not report.details:
        report.details = v.details


# ---------------------------------------------------------------------------
# Chunked Monte Carlo engine.
# ---------------------------------------------------------------------------


def run_chunked(spec: ExperimentSpec, chunk_fn) -> dict:
    """Execute chunk_fn(gen, size) over all chunks and sum the stat dicts.

    The chunk index keys the random stream and reduction is in index
    order, so the result is identical for any worker count.
    """
    from .matrix_lab import Rng

    nchunks = (spec.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def work(ci: int):
        size = min(CHUNK_TRIALS, spec.trials - ci * CHUNK_TRIALS)
        gen = Rng(spec.seed, ci).generator()
        return chunk_fn(gen, size)

    if spec.workers <= 1:
        parts = [work(ci) for ci in range(nchunks)]
    else:
        with ThreadPoolExecutor(max_workers=spec.workers) as ex:
            parts = list(ex.map(work, range(nchunks)))
    total: dict = {}
    for part in parts:
        for k, v in part.items():
            if k in total:
                total[k] = total[k] + v
            else:
                total[k] = np.array(v) if isinstance(v, np.ndarray) else v
    return total


def mean_se(sums: float, sumsq: float, used: int) -> tuple:
    """Sample mean and standard error of the mean."""
    if used <= 0:
        return math.nan, math.inf
    mean = sums / used
    if used == 1:
        return mean, math.inf
    var = max(sumsq / used - mean * mean, 0.0) * used / (used - 1)
    return mean, math.sqrt(var / used)


def make_estimate_report(spec, estimand, sums, sumsq, used, analytic,
                         wall_ms, extra_params=None, details="") -> EstimateReport:
    mean, se = mean_se(sums, sumsq, used)
    params = spec.describe()
    if extra_params:
        params.update(extra_params)
    rep = EstimateReport(
        name=spec.name,
        params=params,
        estimand=estimand,
        estimate=mean,
        se=se,
        ci=(mean - 1.96 * se, mean + 1.96 * se),
        trials=spec.trials,
        used=used,
        discard_rate=1.0 - used / spec.trials if spec.trials else 0.0,
        seed=spec.seed,
        wall_ms=wall_ms,
        analytic=analytic,
        details=details,
    )
    finalize(rep)
    return rep


def chi_square_pvalue(observed: np.ndarray, probs: np.ndarray,
                      min_expected: float = 5.0) -> tuple:
    """Goodness-of-fit chi-square with pooling of low-expectation cells.

    Returns (chi2, dof, p_value).  Cells with expected count below the
    threshold are pooled into one bucket.
    """
    from scipy.stats import chi2 as chi2_dist

    total = observed.sum()
    expected = probs * total
    keep = expected >= min_expected
    chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    rest_exp = float(expected[~keep].sum())
    rest_obs = float(observed[~keep].sum())
    if rest_exp > 0.0:
        chi2 += (rest_obs - rest_exp) ** 2 / rest_exp
        dof += 1
    if dof < 1:
        return chi2, 0, 1.0
    return chi2, dof, float(chi2_dist.sf(chi2, dof))


def contingency_chi2(table: np.ndarray) -> tuple:
    """Independence chi-square for one contingency table (no correction).

    Rows/columns with zero margin are dropped.  Returns (chi2, dof).
    """
    rows = table.sum(axis=1) > 0
    cols = table.sum(axis=0) > 0
    t = table[np.ix_(rows, cols)]
    if t.shape[0] < 2 or t.shape[1] < 2:
        return 0.0, 0
    total = t.sum()
    expected = np.outer(t.sum(axis=1), t.sum(axis=0)) / total
    chi2 = float(((t - expected) ** 2 / expected).sum())
    dof = (t.shape[0] - 1) * (t.shape[1] - 1)
    return chi2, dof


# ---------------------------------------------------------------------------
# Registry-facing entry points.
# ---------------------------------------------------------------------------


def _registry():
    from . import registry

    return registry.REGISTRY


def list_experiments() -> list:
    return sorted(_registry().keys())


def build_experiment(name: str, overrides: dict | None = None) -> ExperimentSpec:
    """A fully populated spec for a named experiment, with defaults that
    match the verification suite; unknown override keys are an error."""
    reg = _registry()
    if name not in reg:
        raise UnknownExperiment(name)
    edef = reg[name]
    spec = edef.make_spec(overrides or {})
    return spec


def run_experiment(spec: ExperimentSpec) -> list:
    reg = _registry()
    if spec.name not in reg:
        raise UnknownExperiment(spec.name)
    edef = reg[spec.name]
    if spec.precision < edef.min_precision:
        raise PrecisionPolicyViolation(
            f"{spec.name} needs N >= {edef.min_precision}, got {spec.precision}"
        )
    t0 = time.monotonic()
    reports = edef.runner(spec)
    wall = (time.monotonic() - t0) * 1000.0
    for r in reports:
        r.wall_ms = wall
    return reports


def run_monte_carlo(spec: ExperimentSpec) -> list:
    """Run a Monte Carlo experiment; reports are deterministic in
    (seed, workers-independent) and discards are reported, never hidden."""
    reg = _registry()
    if reg[spec.name].kind != "mc":
        raise ValueError(f"{spec.name} is not a Monte Carlo experiment")
    return run_experiment(spec)


def run_exhaustive(spec: ExperimentSpec) -> list:
    """Run an exhaustive-enumeration experiment producing exact rationals."""
    reg = _registry()
    if reg[spec.name].kind != "exact":
        raise ValueError(f"{spec.name} is not an exhaustive experiment")
    return run_experiment(spec)


def check_enumeration_budget(count: int, budget: int = 2 ** 26):
    if count > budget:
        raise BudgetExceeded(f"enumeration size {count} exceeds budget {budget}")


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def reports_to_json(reports) -> str:
    payload = [r.to_dict() for r in reports]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reports_from_json(text: str) -> list:
    return json.loads(text)


def _flatten_params(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def reports_to_csv(reports) -> str:
    lines = [
        "experiment,params,estimand,estimate,se,ci_lo,ci_hi,analytic,verdict,z,seed"
    ]
    for r in reports:
        d = r.to_dict()
        if "estimate" in d:
            est, se = d["estimate"], d["se"]
            ci_lo, ci_hi = d["ci"]
        else:
            est, se = d["exact"]["lo"], ""
            ci_lo, ci_hi = d["exact"]["lo"], d["exact"]["hi"]
        an = d.get("analytic") or {}
        if "value" in an:
            a = repr(an["value"])
        elif "interval" in an:
            a = f"[{an['interval'][0]};{an['interval'][1]}]"
        elif "exact" in an:
            a = an["exact"]
        else:
            a = ""
        z = d.get("z")
        lines.append(
            ",".join(
                str(x)
                for x in (
                    d["name"],
                    _flatten_params(d["params"]),
                    d["estimand"],
                    est,
                    se,
                    ci_lo,
                    ci_hi,
                    a,
                    d["verdict"],
                    "" if z is None else z,
                    d["seed"],
                )
            )
        )
    return "\n".join(lines) + "\n"
