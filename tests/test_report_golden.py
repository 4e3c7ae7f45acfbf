"""Pinned report and series output.

Every registry experiment and every ``suite_variants`` entry is run at
512 trials (exact experiments at their defaults), and the report JSON
without ``wall_ms`` must equal the fixture exactly.  The fixture also
holds ``repr()`` of the q-series closed forms on a small grid.  A change
that only restructures code must leave both byte-equal.

Regenerate the fixture (only when a report is meant to change) with:

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
import math
import os

from padicstats import closed_forms as cf
from padicstats.experiment import build_experiment, run_experiment
from padicstats.registry import REGISTRY

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "reports_golden.json")
TRIALS = 512


def _reports() -> list:
    out = []
    for name in sorted(REGISTRY):
        edef = REGISTRY[name]
        for variant in edef.suite_variants:
            overrides = dict(variant)
            if edef.kind == "mc":
                overrides["trials"] = TRIALS
            for rep in run_experiment(build_experiment(name, overrides)):
                d = rep.to_dict()
                d.pop("wall_ms")
                out.append(d)
    return out


def _series() -> dict:
    out = {}
    for p in (2, 3, 5):
        out[f"var_zp({p})"] = repr(cf.var_zp(p))
        for m in (0, 1, 2):
            out[f"pair_corr_zp({p},{m})"] = repr(cf.pair_corr_zp(p, m))
            out[f"pair_corr_theta({p},{m})"] = repr(cf.pair_corr_theta(p, m))
        for m in (1, 2):
            for variant in ("SQ_INV", "INV", "INV2"):
                key = f"andrews_gordon_expectation(1/{p},{m},{variant})"
                out[key] = repr(cf.andrews_gordon_expectation(1.0 / p, m, variant))
        if p == 2:
            continue  # the quadratic formulas are for odd p
        for label in ("UNRAMIFIED", "RAMIFIED"):
            out[f"expected_quad({p},{label})"] = repr(cf.expected_quad(p, label))
            for m in (0, 1, 2):
                key = f"quad_density({p},{label},{m})"
                out[key] = repr(cf.quad_density(p, label, m))
    for z, t in ((1.0, 0.5), (-math.sqrt(3), 1.0 / 27), (2.0, 0.1), (0.5, 0.9)):
        out[f"theta3({z!r},{t!r})"] = repr(cf.theta3(z, t))
    out["pair_corr_zp(3,1,tol=1e-6)"] = repr(cf.pair_corr_zp(3, 1, tol=1e-6))
    out["var_zp(2,tol=1e-6)"] = repr(cf.var_zp(2, tol=1e-6))
    return out


def _golden() -> dict:
    return {"reports": _reports(), "series": _series()}


def test_reports_and_series_match_fixture():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(_golden()))
    assert len(got["reports"]) == len(want["reports"]) == 48
    for g, w in zip(got["reports"], want["reports"]):
        assert g == w, (w["name"], w["estimand"])
    assert got["series"] == want["series"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(_golden(), fh, sort_keys=True, indent=1)
        fh.write("\n")
