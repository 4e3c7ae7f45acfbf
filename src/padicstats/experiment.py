"""Estimation engines and statistical comparison.

Monte Carlo runs are split into fixed-size chunks; chunk c draws from the
counter-based stream keyed by (seed, c), and reduction happens in chunk
order, so results are bit-identical for any worker count.  Experiments
that declare the same shared pass read each chunk's stats from one store,
so a chunk drawn for one of them is not drawn again for another.
Exhaustive runs enumerate the whole finite level and produce exact
rationals, widening to an interval when saturation leaves samples
undetermined.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

CHUNK_TRIALS = 4096
SHARED_CHUNK_CAP = 256  # chunk results the shared-pass store keeps

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

ASYMPTOTIC = "ASYMPTOTIC"


class InvalidSpec(ValueError):
    """A run parameter outside the domain every experiment accepts."""


class PrecisionPolicyViolation(InvalidSpec):
    """Working precision below the policy minimum for the estimand."""


class BudgetExceeded(InvalidSpec):
    """Exhaustive enumeration would exceed the configured budget."""


class UnknownExperiment(KeyError):
    """No registry entry with that name."""


@dataclass(frozen=True)
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
    # experiments naming the same shared pass compute identical chunk
    # stats for equal (p, n, N, mode, seed) and read them from one store
    shared: str | None = None

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


def compare(report) -> Verdict:
    """Verdict for a report against its analytic target.

    Monte Carlo point targets pass within 3 standard errors plus the
    target tolerance (plus slack for limit statements checked at finite
    size); interval targets pass when the 95% confidence interval
    overlaps; exact reports pass only on rational equality, or containment
    when saturation widened them to an interval.  A discard rate above 5%,
    an estimate that is NaN or an infinite standard error (one certified
    sample) makes any verdict inconclusive.
    """
    target = report.analytic
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
    if math.isnan(est):
        return Verdict(INCONCLUSIVE, None, "no estimate")
    slack = target.slack()
    if target.comparison == "zero_count":
        ok = est == 0
        return Verdict(PASS if ok else FAIL, None, f"count {est} (must be 0)")
    if math.isinf(se):
        # one certified sample has no spread, so no gate can settle it
        return Verdict(INCONCLUSIVE, None, "infinite standard error")
    if target.comparison == "greater":
        gap = est - target.value
        if se == 0:
            # a spread of zero (a single sample) supports neither verdict
            return Verdict(INCONCLUSIVE, None, f"gap {gap:.4g} with zero spread")
        return Verdict(PASS if gap > 3.0 * se else FAIL, gap / se, f"gap {gap:.4g}")
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


# shared-pass key -> one chunk's stats dict, least recently used first.
# A key is (shared, p, n, N, mode, seed, chunk index, chunk size); its
# first six fields name the pass the chunk belongs to.
_shared_chunks: OrderedDict = OrderedDict()
_shared_lock = threading.Lock()


def clear_shared_chunks() -> None:
    """Empty the shared-pass store."""
    with _shared_lock:
        _shared_chunks.clear()


def _shared_get(key):
    with _shared_lock:
        part = _shared_chunks.get(key)
        if part is not None:
            _shared_chunks.move_to_end(key)
        return part


def _shared_put(key, part: dict) -> None:
    for v in part.values():
        if isinstance(v, np.ndarray):
            v.flags.writeable = False  # every later reader gets this object
    with _shared_lock:
        if key not in _shared_chunks and len(_shared_chunks) >= SHARED_CHUNK_CAP:
            # Evict the least recently used chunk of another pass.  A full
            # store of this pass's own chunks keeps them and drops the new
            # one: evicting those would make a repeat of a pass longer than
            # the cap recompute every chunk, each evicting one it needs next.
            pass_ = key[:6]
            other = next((k for k in _shared_chunks if k[:6] != pass_), None)
            if other is None:
                return
            del _shared_chunks[other]
        _shared_chunks[key] = part


def run_chunked(spec: ExperimentSpec, chunk_fn) -> dict:
    """Execute chunk_fn(gen, size) over all chunks and sum the stat dicts.

    The chunk index keys the random stream and reduction is in index
    order, so the result is identical for any worker count.  With
    ``spec.shared`` set, each chunk's stats are read from, or added to, the
    shared-pass store under the sampling parameters, the chunk index and
    its size, so a run of fewer trials reuses the whole chunks of a longer
    one and draws only its own partial last chunk.
    """
    from .matrix_lab import Rng

    nchunks = (spec.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def work(ci: int):
        size = min(CHUNK_TRIALS, spec.trials - ci * CHUNK_TRIALS)
        key = None
        if spec.shared is not None:
            key = (spec.shared, spec.p, spec.n, spec.precision, spec.mode,
                   spec.seed, ci, size)
            part = _shared_get(key)
            if part is not None:
                return part
        part = chunk_fn(Rng(spec.seed, ci).generator(), size)
        if key is not None:
            _shared_put(key, part)
        return part

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


def estimate_report(spec, estimand, estimate, se, used, analytic,
                    extra_params=None, details="") -> EstimateReport:
    """The finalized report of one estimate: ci is estimate +- 1.96 se and
    the discard rate is the share of the spec's trials not used.  A count
    passes se 0 and used = trials; a p-value or TV statistic passes se 0,
    so its ci is (estimate, estimate)."""
    params = spec.describe()
    if extra_params:
        params.update(extra_params)
    rep = EstimateReport(
        name=spec.name,
        params=params,
        estimand=estimand,
        estimate=estimate,
        se=se,
        ci=(estimate - 1.96 * se, estimate + 1.96 * se),
        trials=spec.trials,
        used=used,
        discard_rate=1.0 - used / spec.trials if spec.trials else 0.0,
        seed=spec.seed,
        wall_ms=0.0,  # run_experiment sets the run's wall time
        analytic=analytic,
        details=details,
    )
    finalize(rep)
    return rep


def make_estimate_report(spec, estimand, sums, sumsq, used, analytic,
                         extra_params=None, details="") -> EstimateReport:
    """The report of a sample mean from its running sums."""
    mean, se = mean_se(sums, sumsq, used)
    return estimate_report(spec, estimand, mean, se, used, analytic,
                           extra_params, details)


def exact_report(spec, estimand, lo, hi, enumeration_size, exact,
                 details="") -> ExactReport:
    """The finalized report of an enumeration against the rational exact."""
    rep = ExactReport(
        name=spec.name, params=spec.describe(), estimand=estimand, lo=lo,
        hi=hi, enumeration_size=enumeration_size, seed=spec.seed, wall_ms=0.0,
        analytic=AnalyticTarget(exact=str(exact)), details=details,
    )
    finalize(rep)
    return rep


_chdtrc = None
_chdtrc_lock = threading.Lock()  # sys.modules is shared by every thread


def _load_chdtrc():
    """scipy.special's chdtrc ufunc, from its _ufuncs extension alone.

    The extension's relative imports need a scipy.special package in
    sys.modules, so an empty stand-in with the real package's __path__ sits
    there while the extension loads, and is removed afterwards.  If the real
    package is already imported, or the extension cannot be found or
    loaded, the package import gives the same ufunc.
    """
    if "scipy.special" not in sys.modules:
        sys.modules["scipy.special"] = importlib.util.module_from_spec(
            importlib.util.find_spec("scipy.special"))
        try:
            spec = importlib.util.find_spec("scipy.special._ufuncs")
            if spec is not None:
                ufuncs = importlib.util.module_from_spec(spec)
                sys.modules[spec.name] = ufuncs
                try:
                    spec.loader.exec_module(ufuncs)
                except BaseException as exc:
                    del sys.modules[spec.name]  # as a failed import does
                    if not isinstance(exc, ImportError):
                        raise
                else:
                    return ufuncs.chdtrc
        finally:
            del sys.modules["scipy.special"]
    from scipy.special import chdtrc

    return chdtrc


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with dof degrees of freedom.

    scipy's chi2.sf is this same chdtrc ufunc.  Importing the stats module
    costs about a second and tens of MB, and importing the scipy.special
    package about 0.2 s and 13 MB of peak memory; loading only its _ufuncs
    extension takes about 20 ms.  A later import of the real package reuses
    the loaded extension, so scipy.special.chdtrc is this same ufunc, but
    that package then lacks the attributes _ufuncs_cxx, _special_ufuncs,
    _gufuncs and _ellip_harm_2: the submodules were bound to the stand-in
    (importing them by name still works).  Another thread that imports
    scipy.special while the extension loads gets the empty stand-in.
    """
    global _chdtrc
    if _chdtrc is None:
        with _chdtrc_lock:
            if _chdtrc is None:
                _chdtrc = _load_chdtrc()
    return float(_chdtrc(dof, x))


def chi_square_pvalue(observed: np.ndarray, probs: np.ndarray,
                      min_expected: float = 5.0) -> tuple:
    """Goodness-of-fit chi-square with pooling of low-expectation cells.

    Returns (chi2, dof, p_value).  Cells with expected count below the
    threshold are pooled into one bucket.
    """
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
    return chi2, dof, chi2_sf(chi2, dof)


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
    return reg[name].make_spec(overrides or {})


def run_experiment(spec: ExperimentSpec) -> list:
    """The reports of one run, after the checks build_experiment makes, so
    that a spec built any other way cannot run outside the policy."""
    reg = _registry()
    if spec.name not in reg:
        raise UnknownExperiment(spec.name)
    reg[spec.name].check(spec)
    t0 = time.monotonic()
    reports = reg[spec.name].runner(spec)
    wall = (time.monotonic() - t0) * 1000.0
    for r in reports:
        r.wall_ms = wall
    return reports


def check_enumeration_budget(count: int, budget: int = 2 ** 26):
    if count > budget:
        raise BudgetExceeded(f"enumeration size {count} exceeds budget {budget}")


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def reports_to_json(reports) -> str:
    payload = [r.to_dict() for r in reports]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _flatten_params(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def reports_to_csv(reports) -> str:
    """One row per report under a fixed header; a field holding a comma or
    a quote (a tuple parameter, an estimand) is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["experiment", "params", "estimand", "estimate", "se",
                     "ci_lo", "ci_hi", "analytic", "verdict", "z", "seed"])
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
        writer.writerow([
            d["name"], _flatten_params(d["params"]), d["estimand"], est, se,
            ci_lo, ci_hi, a, d["verdict"], "" if z is None else z, d["seed"],
        ])
    return out.getvalue()
