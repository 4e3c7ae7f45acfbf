import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from padicstats import experiment
from padicstats.experiment import (
    AnalyticTarget,
    EstimateReport,
    ExactReport,
    ExperimentSpec,
    InvalidSpec,
    PrecisionPolicyViolation,
    UnknownExperiment,
    build_experiment,
    compare,
    list_experiments,
    reports_to_csv,
    reports_to_json,
    run_chunked,
    run_experiment,
)
from padicstats.cli import dispatch
from padicstats.matrix_lab import Rng
from padicstats.registry import REGISTRY
from fractions import Fraction


def _strip_wall(dicts):
    out = []
    for d in dicts:
        d = dict(d)
        d.pop("wall_ms", None)
        out.append(d)
    return out


def test_registry_contents():
    names = list_experiments()
    for required in (
        "E_Zp_count", "pair_valuation_hist", "var_zp", "island_law",
        "cok_markov", "cok_joint_chain", "quad_chain", "quad_census",
        "expected_quad", "det_moment", "points_on_variety", "poly_variety",
        "en_relation", "gl_support", "charpoly_det_identity",
        "higher_degree_unramified_cubic",
    ):
        assert required in names


def test_build_experiment_defaults_and_overrides():
    spec = build_experiment("det_moment", {"p": 2, "n": 1, "k": 1})
    assert spec.p == 2 and spec.n == 1 and spec.params["k"] == 1
    spec = build_experiment("island_law", {"d": 1})
    assert spec.precision == 1  # residue-level estimand
    with pytest.raises(UnknownExperiment):
        build_experiment("not_an_experiment")
    with pytest.raises(KeyError):
        build_experiment("det_moment", {"bogus": 1})


def test_precision_policy_violation():
    # refused when the spec is built, before anything runs
    with pytest.raises(PrecisionPolicyViolation):
        build_experiment("E_Zp_count", {"N": 2, "trials": 10})


def test_specs_built_without_make_spec_are_checked_when_run():
    spec = build_experiment("E_Zp_count", {"trials": 256})
    with pytest.raises(PrecisionPolicyViolation):
        run_experiment(replace(spec, precision=2))
    with pytest.raises(FrozenInstanceError):
        spec.precision = 2


@pytest.mark.parametrize("name,mode", [
    (name, mode) for name, edef in sorted(REGISTRY.items())
    for mode in ("MAT", "GL", "POLY") if mode != edef.mode])
def test_each_experiment_refuses_every_other_ensemble(name, mode, monkeypatch,
                                                      capsys):
    # each law is stated for one ensemble: another is refused at every entry
    # point before anything is sampled (the runner is never reached)
    def never(spec):
        raise AssertionError("runner reached")

    monkeypatch.setitem(REGISTRY, name, replace(REGISTRY[name], runner=never))
    with pytest.raises(KeyError):
        build_experiment(name, {"mode": mode})
    with pytest.raises(InvalidSpec, match=f"runs mode {REGISTRY[name].mode}"):
        run_experiment(replace(build_experiment(name), mode=mode))
    assert dispatch(["run", name, "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_compare_rules():
    def rep(est, se, analytic, discard=0.0):
        r = EstimateReport(
            name="t", params={}, estimand="x", estimate=est, se=se,
            ci=(est - 1.96 * se, est + 1.96 * se), trials=100, used=100,
            discard_rate=discard, seed=0, wall_ms=0.0, analytic=analytic,
        )
        return r

    v = compare(rep(1.002, 0.004, AnalyticTarget(value=1.0)))
    assert v.status == "PASS" and abs(v.z - 0.5) < 1e-9
    v = compare(rep(0.9, 0.01, AnalyticTarget(value=1.0)))
    assert v.status == "FAIL" and abs(abs(v.z) - 10.0) < 1e-9
    v = compare(rep(0.9, 0.01, AnalyticTarget(value=1.0), discard=0.2))
    assert v.status == "INCONCLUSIVE"
    # asymptotic slack widens the gate
    v = compare(rep(0.96, 0.001, AnalyticTarget(value=1.0, flags=("ASYMPTOTIC",))))
    assert v.status == "PASS"
    v = compare(rep(0.90, 0.001, AnalyticTarget(value=1.0, flags=("ASYMPTOTIC",))))
    assert v.status == "FAIL"
    # interval target passes on CI overlap
    v = compare(rep(0.5, 0.01, AnalyticTarget(interval=(0.51, 0.6))))
    assert v.status == "PASS"
    v = compare(rep(0.5, 0.001, AnalyticTarget(interval=(0.51, 0.6))))
    assert v.status == "FAIL"
    # an undefined estimate is never a FAIL
    for target in (AnalyticTarget(value=1.0), AnalyticTarget(interval=(0.5, 0.6)),
                   AnalyticTarget(value=0.0, comparison="greater")):
        assert compare(rep(math.nan, math.nan, target)).status == "INCONCLUSIVE"
    # a greater-than target with zero spread (one sample) is never settled
    for est in (1.0, 0.0, -1.0):
        v = compare(rep(est, 0.0, AnalyticTarget(value=0.0, comparison="greater")))
        assert v.status == "INCONCLUSIVE" and v.z is None
    # one certified sample (se = inf) settles neither a point nor an interval
    for est in (1.0, 2.0, 0.0):
        for target in (AnalyticTarget(value=1.0), AnalyticTarget(interval=(0.5, 0.6))):
            v = compare(rep(est, math.inf, target))
            assert v.status == "INCONCLUSIVE" and v.z is None


@pytest.mark.parametrize("name,n_reports", [("E_Zp_count", 1), ("expected_quad", 2)])
def test_single_sample_runs_are_inconclusive(name, n_reports):
    reports = run_experiment(build_experiment(name, {"trials": 1}))
    assert len(reports) == n_reports
    for r in reports:
        assert r.se == math.inf and r.verdict == "INCONCLUSIVE"


def test_compare_exact_rules():
    def exact(lo, hi, target):
        return ExactReport(
            name="t", params={}, estimand="x", lo=Fraction(lo), hi=Fraction(hi),
            enumeration_size=16, seed=0, wall_ms=0.0,
            analytic=AnalyticTarget(exact=target),
        )

    assert compare(exact("3/8", "3/8", "3/8")).status == "PASS"
    assert compare(exact("3/8", "3/8", "1/2")).status == "FAIL"
    assert compare(exact("1/3", "2/3", "1/2")).status == "PASS"
    assert compare(exact("1/3", "2/3", "3/4")).status == "FAIL"


def test_determinism_and_worker_invariance():
    base = {"trials": 6000, "seed": 99}
    r1 = run_experiment(build_experiment("det_moment", base))
    r2 = run_experiment(build_experiment("det_moment", base))
    r4 = run_experiment(build_experiment("det_moment", {**base, "workers": 4}))
    d1 = _strip_wall([r.to_dict() for r in r1])
    d2 = _strip_wall([r.to_dict() for r in r2])
    d4 = _strip_wall([r.to_dict() for r in r4])
    assert d1 == d2 == d4


def test_worker_invariance_census_pipeline():
    base = {"trials": 4000, "seed": 5}
    r1 = run_experiment(build_experiment("E_Zp_count", base))
    r16 = run_experiment(build_experiment("E_Zp_count", {**base, "workers": 16}))
    assert r1[0].estimate == r16[0].estimate
    assert r1[0].se == r16[0].se
    assert r1[0].used == r16[0].used


MONTE_CARLO = sorted(name for name, e in REGISTRY.items() if e.kind == "mc")


@pytest.mark.parametrize("name", MONTE_CARLO)
def test_every_monte_carlo_entry_is_worker_invariant(name, shared_store,
                                                     monkeypatch):
    # two chunks, the last one partial, at the entry's default parameters;
    # the store is emptied before each run, so the run at two workers draws
    # its own chunks rather than reading the first run's
    monkeypatch.setattr(experiment, "CHUNK_TRIALS", 256)
    runs = []
    for workers in (1, 2):
        experiment.clear_shared_chunks()
        spec = build_experiment(name, {"trials": 400, "seed": 11,
                                       "workers": workers})
        reports = _strip_wall([r.to_dict() for r in run_experiment(spec)])
        # as JSON text, so that a NaN field compares equal to itself
        runs.append(json.dumps(reports, sort_keys=True))
    assert runs[0] == runs[1]


def test_json_round_trip_and_csv():
    reports = run_experiment(build_experiment("det_moment", {"trials": 2000}))
    text = reports_to_json(reports)
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text
    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("experiment,params,")
    assert len(lines) == 1 + len(reports)
    assert "det_moment" in lines[1]


def test_csv_rows_match_the_header_width():
    # tuple parameters (points, sizes) and the en_decay estimands hold commas
    reports = (run_experiment(build_experiment("en_decay", {"trials": 300}))
               + run_experiment(build_experiment("points_on_variety")))
    rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
    assert len(rows) == 1 + len(reports)
    assert {len(row) for row in rows} == {len(rows[0])}
    assert rows[1][2] == "P(all in Zp) gap, n=2 minus n=3"
    assert "points=(0, 1);" in rows[-1][1]


def test_exhaustive_mc_agreement_coverage():
    """Three-sigma Monte Carlo gates cover the exact enumeration value with
    at least 99% frequency: verified exactly over the binomial law and
    empirically over 400 seeded replications (100 is too few for the
    nominal 99.7% coverage to beat 99% reliably)."""
    from scipy.stats import binom

    from padicstats.batched import f2_pack, f2_rank

    p0 = float(Fraction(6, 16))  # invertible 2x2 residue matrices
    trials = 1000
    exact_cover = 0.0
    for k in range(trials + 1):
        est = k / trials
        se = math.sqrt(est * (1 - est) / trials) if 0 < k < trials else 0.0
        if abs(est - p0) <= 3 * se:
            exact_cover += binom.pmf(k, trials, p0)
    assert exact_cover >= 0.99

    covered = 0
    reps = 400
    for seed in range(reps):
        gen = Rng(seed, 0).generator()
        mats = gen.integers(0, 2, size=(trials, 2, 2), dtype=np.int64)
        hits = int((f2_rank(f2_pack(mats), 2) == 2).sum())
        est = hits / trials
        se = math.sqrt(est * (1 - est) / trials)
        if abs(est - p0) <= 3 * se:
            covered += 1
    assert covered / reps >= 0.99


def test_exhaustive_budget():
    from padicstats.experiment import BudgetExceeded, check_enumeration_budget

    with pytest.raises(BudgetExceeded):
        check_enumeration_budget(2 ** 30)
    # each exact experiment's enumeration is sized when the spec is built
    for name, overrides in (("points_on_variety", {"p": 3, "s": 5, "N": 5}),
                            ("poly_variety", {"p": 3, "s": 5, "n": 4}),
                            ("invertible_exact", {"n": 6}),
                            ("det_moment_exact", {"N": 27}),
                            ("det_moment_exact", {"n": 2})):
        with pytest.raises(BudgetExceeded):
            build_experiment(name, overrides)


def test_points_on_variety_matches_enumeration():
    reports = run_experiment(build_experiment("points_on_variety"))
    r = reports[0]
    assert r.lo == Fraction(3, 2) and r.verdict == "PASS"
    assert "6 of 16" in r.details


def test_gl_spot_check_exact():
    reports = run_experiment(build_experiment("points_on_variety_gl"))
    r = reports[0]
    assert r.lo == Fraction(9, 4) and r.verdict == "PASS"


@pytest.mark.parametrize("name, overrides, value, details", [
    # the law at r = 3
    ("points_on_variety", {"p": 3, "n": 3, "points": (0, 1, 2)},
     Fraction(52, 27), "1404 of 19683"),
    # a clustered pair at s = 2v + 1: 3^12 matrices, several blocks
    ("points_on_variety", {"p": 3, "points": (0, 3), "s": 3},
     Fraction(4), "2916 of 531441"),
    ("invertible_exact", {"p": 3, "n": 3}, Fraction(416, 729), "11232 of 19683"),
], ids=["three_points", "clustered_pair", "invertible_3x3"])
def test_exact_enumerations_at_larger_sizes(name, overrides, value, details):
    (r,) = run_experiment(build_experiment(name, overrides))
    assert r.lo == r.hi == value and r.verdict == "PASS"
    assert r.details == details


def test_joint_chain_pipeline():
    reports = run_experiment(build_experiment(
        "cok_joint_chain", {"trials": 20_000, "seed": 7}
    ))
    pval, violations = reports
    assert violations.estimate == 0.0 and violations.verdict == "PASS"
    assert pval.estimate > 1e-3 and pval.verdict == "PASS"


def test_quad_chain_pipeline():
    for label in ("UNRAMIFIED", "RAMIFIED"):
        r = run_experiment(build_experiment(
            "quad_chain", {"label": label, "trials": 20_000, "seed": 7}
        ))[0]
        assert r.verdict == "PASS", (label, r.estimate)
        assert "pairing violations 0" in r.details


@pytest.mark.parametrize("name,overrides", [
    ("cok_markov", {}),
    ("cok_joint_chain", {}),
    ("quad_chain", {"label": "UNRAMIFIED"}),
    ("quad_chain", {"label": "RAMIFIED"}),
    ("island_law", {"d": 1}),
    ("island_law", {"d": 2}),
    ("island_law", {"p": 3, "n": 12}),
    ("det_moment", {}),
    ("en_relation", {}),
    ("en_decay", {}),
    ("charpoly_det_identity", {}),
    ("gl_support", {}),
    ("quad_census", {}),
])
def test_chain_chunks_pickle_with_their_spec(name, overrides):
    # every chunk function is module-level: a pickled (function, spec) pair
    # draws the same stats, as a worker process would
    import pickle
    from functools import partial

    from padicstats import registry

    spec = build_experiment(name, dict(overrides, trials=256))
    shared = {"gl_support": "_zp_chunk", "quad_census": "_census_chunk"}
    fn = getattr(registry, shared.get(name, f"_{name}_chunk"))
    again = pickle.loads(pickle.dumps(partial(fn, spec)))
    want = fn(spec, Rng(spec.seed, 0).generator(), 256)
    got = again(Rng(spec.seed, 0).generator(), 256)
    assert want.keys() == got.keys()
    for k in want:
        assert np.array_equal(want[k], got[k])


def test_report_fields_json_schema():
    reports = run_experiment(build_experiment("det_moment", {"trials": 1000}))
    d = reports[0].to_dict()
    for key in ("name", "params", "estimate", "se", "ci", "discard_rate",
                "analytic", "verdict", "z", "seed", "trials", "wall_ms"):
        assert key in d
    assert isinstance(d["ci"], list) and len(d["ci"]) == 2
    assert d["analytic"].get("value") is not None


# ---------------------------------------------------------------------------
# Run-parameter budgets of the batched kernels.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,overrides", [
    ("E_Zp_count", {"N": 19}),                # 6 (3^19 - 1)^2 > 2^62
    ("E_Zp_count", {"N": 40}),                # p^N past int64
    ("en_decay", {"sizes": (2, 3, 40), "N": 18, "p": 3}),  # the largest size counts
    ("charpoly_det_identity", {"p": 2}),      # no quadratic non-residue
    ("cok_markov", {"N": 64}),                # sampling mod 2^64
    ("island_law", {"p": 1009, "n": 2 ** 53 // 1008 ** 2 + 1}),  # float64 inexact
    ("island_law", {"p": 2, "n": 64}),        # packed F_2 rows hold 63 bits
    ("quad_chain", {"p": 2, "label": "UNRAMIFIED"}),  # no quadratic non-residue
    ("quad_census", {"p": 2}),                # quadratic classes need odd p
    ("expected_quad", {"p": 2}),
    ("cok_markov", {"N": 32}),                # Smith products past 2^62
    ("cok_joint_chain", {"N": 32}),
    ("quad_chain", {"N": 20}),                # 3 (3^20 - 1)^2 > 2^62
    ("quad_chain", {"N": 19, "label": "RAMIFIED"}),  # 4 (3^19 - 1)^2 > 2^62
])
def test_kernel_budgets_refused_when_spec_is_built(name, overrides):
    with pytest.raises(InvalidSpec):
        build_experiment(name, overrides)


def test_kernel_budgets_accept_their_edge():
    # 6 (3^18 - 1)^2 < 2^62 and n (1009 - 1)^2 <= 2^53
    assert build_experiment("E_Zp_count", {"N": 18}).precision == 18
    assert build_experiment("en_decay", {"N": 18, "p": 3}).precision == 18
    edge = 2 ** 53 // 1008 ** 2
    assert build_experiment("island_law", {"p": 1009, "n": edge}).n == edge
    # (2^31 - 1)^2 <= 2^62, 3 (3^19 - 1)^2 <= 2^62 and 4 (3^18 - 1)^2 <= 2^62
    assert build_experiment("cok_markov", {"N": 31}).precision == 31
    assert build_experiment("cok_joint_chain", {"N": 31}).precision == 31
    assert build_experiment("quad_chain", {"N": 19}).precision == 19
    assert build_experiment(
        "quad_chain", {"N": 18, "label": "RAMIFIED"}).precision == 18


def test_repeated_points_refused_when_spec_is_built():
    for name in ("points_on_variety", "points_on_variety_gl", "poly_variety"):
        with pytest.raises(InvalidSpec, match="distinct"):
            build_experiment(name, {"points": (1, 3, 1)})


def test_non_integer_p_refused_when_spec_is_built():
    # 2.5 < 4 once passed the prime test, and the run died with TypeError
    for p in (2.5, 3.0):
        with pytest.raises(InvalidSpec, match="not prime"):
            build_experiment("det_moment_exact", {"p": p})


def test_en_relation_with_an_empty_side_is_inconclusive():
    # one trial leaves at least one side without an all-in sample
    (rep,) = run_experiment(build_experiment("en_relation", {"trials": 1}))
    assert rep.verdict == "INCONCLUSIVE"
    assert math.isnan(rep.estimate)
    assert rep.details.startswith("no all-in samples on the ")


def test_en_decay_without_certified_samples_is_inconclusive():
    # at this seed the one n = 2 sample is not certified
    reps = run_experiment(build_experiment("en_decay", {"trials": 1, "seed": 169}))
    assert reps[0].used == 0 and reps[0].verdict == "INCONCLUSIVE"


def test_en_decay_single_sample_is_inconclusive():
    # at the default seed every size certifies its one sample, so both gaps
    # have se 0 and support neither verdict
    reps = run_experiment(build_experiment("en_decay", {"trials": 1}))
    assert [(r.se, r.verdict) for r in reps] == [(0.0, "INCONCLUSIVE")] * 2


def test_run_parameter_edges_accepted():
    spec = build_experiment(
        "det_moment", {"n": 1, "workers": 1, "seed": 2 ** 64 - 1})
    assert (spec.n, spec.workers, spec.seed) == (1, 1, 2 ** 64 - 1)
    assert build_experiment("det_moment", {"seed": 0}).seed == 0
    assert build_experiment("island_law", {"d": 1}).params["d"] == 1


# ---------------------------------------------------------------------------
# Chi-square tails from scipy.special's _ufuncs extension.
# ---------------------------------------------------------------------------


def test_chi2_sf_equals_the_stats_module_bitwise():
    from scipy.stats import chi2

    gen = Rng(31).generator()
    fixed = np.array([0.0, 1e-300, 1e-12, 0.5, 1.0, 1e4])
    drawn = np.concatenate([
        gen.uniform(0, 50, 200), gen.uniform(0, 1e4, 200),
        gen.exponential(100, 200),
    ])
    for dof in range(1, 400):
        for x in np.concatenate([fixed, gen.choice(drawn, 40)]):
            assert experiment.chi2_sf(float(x), dof) == float(chi2.sf(x, dof)), (x, dof)


def test_chi_square_pvalue_equals_the_stats_module_bitwise():
    from scipy.stats import chi2

    gen = Rng(32).generator()
    seen_pooled = 0
    for _ in range(300):
        k = int(gen.integers(2, 30))
        probs = gen.dirichlet(np.ones(k) * float(gen.uniform(0.2, 3.0)))
        total = int(gen.integers(20, 5000))
        observed = gen.multinomial(total, probs).astype(np.float64)
        stat, dof, pval = experiment.chi_square_pvalue(observed, probs)
        seen_pooled += bool((probs * total < 5.0).any())
        if dof >= 1:
            assert pval == float(chi2.sf(stat, dof))
        else:
            assert pval == 1.0
    assert seen_pooled > 0  # the pooled-cell branch was exercised


def _run_fresh(code):
    """Run code in a new interpreter that imports the package from src/.

    Its stdout, which must be the repr of a Python literal, is returned
    evaluated.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout or "None")


# the (x, dof) grid, dof 1..59, of the fresh-interpreter chi2_sf tests
SF_XS = (0.0, 1e-300, 1e-12, 0.5, 1.0, 2.5, 7.0, 20.0, 55.5, 100.0, 1e4)
SF_GRID = (f"xs = {SF_XS!r}\n"
           "grid = [(x, dof) for dof in range(1, 60) for x in xs]\n")


def _sf_on_grid():
    return [experiment.chi2_sf(x, dof)
            for dof in range(1, 60) for x in SF_XS]


def test_cokernel_chain_p_values_skip_the_stats_import():
    # the p-value step of both cokernel chains loads the _ufuncs extension
    # alone: no scipy.special package, stand-in or real, is left behind
    _run_fresh(
        "import sys\n"
        "from padicstats.experiment import build_experiment, run_experiment\n"
        "for name in ('cok_markov', 'cok_joint_chain'):\n"
        "    reps = run_experiment(build_experiment(name, {'trials': 4096}))\n"
        "    assert 'dof 0' not in reps[0].details and 'dof' in reps[0].details\n"
        "assert 'scipy.special._ufuncs' in sys.modules\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was left'\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )


def test_chi2_sf_ufunc_is_the_one_a_later_import_gives():
    out = _run_fresh(
        "import sys\n"
        "from padicstats import experiment\n" + SF_GRID +
        "first = [experiment.chi2_sf(x, dof) for x, dof in grid]\n"
        "assert 'scipy.special' not in sys.modules\n"
        "import scipy.special, scipy.stats\n"
        "assert scipy.special.chdtrc is experiment._chdtrc\n"
        "assert first == [float(scipy.stats.chi2.sf(x, dof)) for x, dof in grid]\n"
        "assert first == [experiment.chi2_sf(x, dof) for x, dof in grid]\n"
        "print(repr(first))\n"
    )
    assert out == _sf_on_grid()


@pytest.mark.parametrize("prelude, check", [
    # the extension cannot be found
    ("import importlib.util\n"
     "find_spec, asked = importlib.util.find_spec, []\n"
     "def no_ufuncs(name, *args):\n"
     "    if name == 'scipy.special._ufuncs':\n"
     "        asked.append(name)\n"
     "        return None\n"
     "    return find_spec(name, *args)\n"
     "importlib.util.find_spec = no_ufuncs\n",
     "assert asked\n"),
    # its first load fails
    ("from importlib.machinery import ExtensionFileLoader as Loader\n"
     "exec_module = Loader.exec_module\n"
     "def fail_once(self, module):\n"
     "    if module.__name__ != 'scipy.special._ufuncs':\n"
     "        return exec_module(self, module)\n"
     "    Loader.exec_module = exec_module\n"
     "    raise ImportError('refused')\n"
     "Loader.exec_module = fail_once\n",
     "assert Loader.exec_module is exec_module\n"),
    # the real package is already imported
    ("import scipy.special\n", "assert special is scipy.special\n"),
], ids=["not_found", "load_fails", "imported_first"])
def test_chi2_sf_falls_back_to_the_package_import(prelude, check):
    out = _run_fresh(
        prelude + "import sys\n"
        "from padicstats import experiment\n" + SF_GRID +
        "sf = [experiment.chi2_sf(x, dof) for x, dof in grid]\n"
        "special = sys.modules['scipy.special']\n"
        "assert hasattr(special, 'gamma'), 'the stand-in was left'\n"
        "assert special._ufuncs is sys.modules['scipy.special._ufuncs']\n"
        "assert special.chdtrc is experiment._chdtrc\n" + check +
        "print(repr(sf))\n"
    )
    assert out == _sf_on_grid()


def test_chi2_sf_first_called_from_threads_loads_once():
    out = _run_fresh(
        "import sys, threading\n"
        "from padicstats import experiment\n" + SF_GRID +
        "load, loads = experiment._load_chdtrc, []\n"
        "def counted():\n"
        "    loads.append(1)\n"
        "    return load()\n"
        "experiment._load_chdtrc = counted\n"
        "barrier = threading.Barrier(8)\n"
        "out = [None] * 8\n"
        "def work(i):\n"
        "    barrier.wait(timeout=60)\n"
        "    out[i] = [experiment.chi2_sf(x, dof) for x, dof in grid]\n"
        "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
        "sys.setswitchinterval(1e-6)\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=120)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert out[0] is not None and all(o == out[0] for o in out)\n"
        "assert len(loads) == 1, loads\n"
        "assert 'scipy.special' not in sys.modules\n"
        "print(repr(out[0]))\n"
    )
    assert out == _sf_on_grid()


# ---------------------------------------------------------------------------
# The shared census pass.
# ---------------------------------------------------------------------------

CENSUS = ("quad_census", "expected_quad", "higher_degree_unramified_cubic")


@pytest.fixture
def shared_store():
    experiment.clear_shared_chunks()
    yield experiment._shared_chunks
    experiment.clear_shared_chunks()


def _census_dicts(name, overrides):
    reports = run_experiment(build_experiment(name, overrides))
    return _strip_wall([r.to_dict() for r in reports])


def test_census_experiments_declare_one_shared_pass():
    for name in CENSUS:
        spec = build_experiment(name)
        assert spec.shared == "census"
        assert "shared" not in spec.describe()
    assert build_experiment("E_Zp_count").shared is None
    with pytest.raises(KeyError):
        build_experiment("quad_census", {"shared": "other"})


def test_shared_census_reports_match_cold_runs(shared_store):
    base = {"trials": 700, "seed": 11}
    cold = {}
    for name in CENSUS:
        experiment.clear_shared_chunks()
        cold[name] = _census_dicts(name, base)
    experiment.clear_shared_chunks()
    warm = {name: _census_dicts(name, base) for name in CENSUS}
    assert len(shared_store) == 1  # one chunk, drawn once for all three
    assert warm == cold
    for name in reversed(CENSUS):  # read back from the warm store
        assert _census_dicts(name, base) == cold[name]


def test_shorter_shared_run_reads_whole_chunks(shared_store):
    chunk = experiment.CHUNK_TRIALS
    short = {"trials": 2 * chunk + 100, "seed": 3}
    cold = _census_dicts("expected_quad", short)
    experiment.clear_shared_chunks()
    _census_dicts("quad_census", {"trials": 3 * chunk, "seed": 3})
    assert len(shared_store) == 3
    assert _census_dicts("expected_quad", short) == cold
    # only the partial last chunk was drawn anew
    assert len(shared_store) == 4
    assert sorted(k[-2:] for k in shared_store) == [
        (0, chunk), (1, chunk), (2, 100), (2, chunk)]


def test_unshared_experiment_leaves_store_untouched(shared_store):
    _census_dicts("quad_census", {"trials": 300, "seed": 1})
    before = list(shared_store.items())
    run_experiment(build_experiment("E_Zp_count", {"trials": 300, "seed": 1}))
    run_experiment(build_experiment("det_moment", {"trials": 300, "seed": 1}))
    assert list(shared_store.items()) == before


def test_shared_store_is_capped(shared_store):
    cap = experiment.SHARED_CHUNK_CAP
    nchunks = cap + 5
    spec = ExperimentSpec(name="t", p=3, n=1, precision=1, mode="MAT",
                          trials=nchunks * experiment.CHUNK_TRIALS, seed=0,
                          shared="test")
    sizes = []

    def chunk(gen, size):
        sizes.append(len(shared_store))
        return {"trials": size, "hist": np.ones(2)}

    total = run_chunked(spec, chunk)
    assert max(sizes) <= cap and len(shared_store) == cap
    assert total["trials"] == spec.trials
    assert total["hist"].tolist() == [nchunks, nchunks]
    # a pass longer than the cap keeps its first chunks
    assert sorted(k[6] for k in shared_store) == list(range(cap))
    # stored parts are read-only, so no reader can change what others see
    part = next(iter(shared_store.values()))
    with pytest.raises(ValueError):
        part["hist"][0] = 5.0


def test_repeated_long_shared_pass_recomputes_only_its_overflow(
        shared_store, monkeypatch):
    cap, size = 8, experiment.CHUNK_TRIALS
    monkeypatch.setattr(experiment, "SHARED_CHUNK_CAP", cap)
    calls = []

    def chunk(gen, trials):
        calls.append(trials)
        return {"trials": trials}

    def spec(seed, nchunks):
        return ExperimentSpec(name="t", p=3, n=1, precision=1, mode="MAT",
                              trials=nchunks * size, seed=seed, shared="long")

    assert run_chunked(spec(0, cap + 5), chunk)["trials"] == (cap + 5) * size
    assert len(calls) == cap + 5 and len(shared_store) == cap
    calls.clear()
    assert run_chunked(spec(0, cap + 5), chunk)["trials"] == (cap + 5) * size
    assert len(calls) == 5
    # another pass still gets in, evicting the first pass's chunks
    calls.clear()
    run_chunked(spec(1, 2), chunk)
    run_chunked(spec(1, 2), chunk)
    assert len(calls) == 2 and len(shared_store) == cap
    assert sum(k[5] == 1 for k in shared_store) == 2


def test_shared_store_under_thread_contention(shared_store):
    # more workers than cores and a short switch interval: a lost update
    # in the store would leave it off its cap or lose a chunk's stats
    cap = experiment.SHARED_CHUNK_CAP
    nchunks = 2 * cap
    spec = ExperimentSpec(name="t", p=3, n=1, precision=1, mode="MAT",
                          trials=nchunks * experiment.CHUNK_TRIALS, seed=1,
                          workers=8, shared="stress")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = run_chunked(spec, lambda gen, size: {"trials": size})
    finally:
        sys.setswitchinterval(interval)
    assert total["trials"] == spec.trials
    assert len(shared_store) == cap


def test_zp_experiments_share_one_pass(shared_store):
    names = ("var_zp", "pair_valuation_hist")
    for name in names:
        assert build_experiment(name).shared == "zp"
    base = {"trials": 700, "seed": 11}
    cold = {}
    for name in names:
        experiment.clear_shared_chunks()
        cold[name] = _census_dicts(name, base)
    experiment.clear_shared_chunks()
    warm = {name: _census_dicts(name, base) for name in names}
    assert len(shared_store) == 1  # one chunk, drawn once for both
    assert warm == cold


@pytest.mark.parametrize("overrides", [
    {"p": 3, "n": 12, "d": 1},
    {"p": 2, "n": 20, "d": 2},
])
def test_island_law_cap_gives_the_default_cap_report(overrides, shared_store,
                                                    monkeypatch):
    from padicstats import registry

    spec = build_experiment("island_law", {**overrides, "trials": 400, "seed": 9})
    capped = _strip_wall([r.to_dict() for r in run_experiment(spec)])
    # the exact cap: 2^cap >= n / d, past any multiplicity; the store is
    # emptied so that the p = 2 run counts its chunk anew at that cap
    n, d = overrides["n"], overrides["d"]
    monkeypatch.setattr(registry, "ISLAND_CAP_POW", (n // d - 1).bit_length())
    experiment.clear_shared_chunks()
    full = _strip_wall([r.to_dict() for r in run_experiment(spec)])
    assert capped == full


def _counting_island_chunks(monkeypatch):
    from padicstats import registry

    calls = []
    chunk = registry._island_law_chunk

    def counted(spec, gen, size):
        calls.append(spec.params["d"])
        return chunk(spec, gen, size)

    monkeypatch.setattr(registry, "_island_law_chunk", counted)
    return calls


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_shared_island_reports_match_cold_runs(order, shared_store,
                                               monkeypatch):
    monkeypatch.setattr(experiment, "CHUNK_TRIALS", 256)
    base = {"n": 20, "trials": 700, "seed": 11}  # three chunks, one partial
    cold = {}
    for d in order:
        experiment.clear_shared_chunks()
        cold[d] = _census_dicts("island_law", {**base, "d": d})
    experiment.clear_shared_chunks()
    calls = _counting_island_chunks(monkeypatch)
    warm = {d: _census_dicts("island_law", {**base, "d": d}) for d in order}
    assert warm == cold
    # the first run drew each chunk once for both degrees; the second read
    # every chunk from the store
    assert calls == [order[0]] * 3
    assert len(shared_store) == 3
    for key, part in shared_store.items():
        assert key[0] == "island" and sorted(part) == ["hist_d1", "hist_d2"]


def test_unshared_island_runs_leave_store_untouched(shared_store,
                                                   monkeypatch):
    _census_dicts("island_law", {"n": 20, "trials": 300, "seed": 1})
    before = list(shared_store.items())
    assert len(before) == 1
    calls = _counting_island_chunks(monkeypatch)
    for overrides in ({"p": 3, "n": 20, "d": 1}, {"p": 2, "n": 20, "d": 3}):
        (r,) = run_experiment(build_experiment(
            "island_law", {**overrides, "trials": 300, "seed": 1}))
        assert r.used == 300
    assert calls == [1, 3]  # each drew its own chunk
    assert list(shared_store.items()) == before


def test_census_worker_invariance_with_cold_store(shared_store, monkeypatch):
    monkeypatch.setattr(experiment, "CHUNK_TRIALS", 256)
    base = {"trials": 1000, "seed": 8}  # four chunks, the last one partial
    for name in CENSUS:
        experiment.clear_shared_chunks()
        one = _census_dicts(name, base)
        experiment.clear_shared_chunks()
        two = _census_dicts(name, {**base, "workers": 2})
        assert len(shared_store) == 4
        assert one == two
