"""One pass of one workload in a fresh interpreter.

Run from the repository root; `run.py` starts it once per repetition:

    python3 perfbench/child.py --workload census --seed 1 [--trace] [--setup-only] [--workers N]

It imports the package from `src/`, builds the workload's specs through
`experiment.build_experiment` (the set-up), runs them through
`experiment.run_experiment` (the timed pass) and prints one JSON line.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from workloads import SIZES, WORKLOADS, plan

CONFIRM_SEED_OFFSET = 1_000_003


def _rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _cpu_s() -> float:
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


def check(steps, outcomes, confirmed) -> dict:
    """Digest and failures of one pass.

    `misses` counts reports whose verdict is not PASS (and the reports of an
    experiment that raised); that is what check_fail_rate reports.  A
    Monte Carlo FAIL is a 3-sigma (or p < 1e-3) event that a correct
    program shows at some seeds, so it is re-run once at an independent
    seed: if every report passes there it is a chance miss, not a failure.
    Exceptions, missing reports, INCONCLUSIVE verdicts, exact and zero-count
    checks cannot be chance and fail at once.
    """
    from padicstats.experiment import EstimateReport

    attempted = failed = misses = drawn = discarded = 0
    failures, chance = [], []
    digest = hashlib.sha256()
    for (name, over, expected), out in zip(steps, outcomes):
        attempted += expected
        label = f"{name} {json.dumps(over, sort_keys=True)}"
        if isinstance(out, Exception):
            failed += expected
            misses += expected
            failures.append(f"{label}: raised {out!r}")
            digest.update(repr(out).encode())
            continue
        for r in out:
            d = r.to_dict()
            del d["wall_ms"]  # run_experiment stamps the whole-run wall time
            digest.update(json.dumps(d, sort_keys=True).encode())
            if isinstance(r, EstimateReport):
                drawn += r.trials
                discarded += r.trials - r.used
        bad = [r for r in out if r.verdict != "PASS"]
        verdicts = [r.verdict for r in out]
        if len(out) != expected:
            failed += expected
            misses += expected
            failures.append(f"{label}: {len(out)} reports, want {expected}")
        elif bad:
            misses += len(bad)
            statistical = all(
                isinstance(r, EstimateReport) and r.verdict == "FAIL"
                and r.analytic.comparison != "zero_count" for r in bad)
            if statistical and confirmed(name, over):
                chance.append(f"{label}: {verdicts}, all PASS at seed "
                              f"{over['seed'] + CONFIRM_SEED_OFFSET}")
            else:
                failed += len(bad)
                failures.append(f"{label}: verdicts {verdicts}")
    return {"digest": digest.hexdigest(), "attempted": attempted,
            "failed": failed, "misses": misses, "failures": failures,
            "chance_misses": chance, "drawn": drawn, "discarded": discarded}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workers", type=int, help="override the workload's worker count")
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    load_before = os.getloadavg()[0]
    t0 = time.perf_counter()
    import padicstats
    from padicstats.experiment import build_experiment, run_experiment

    steps = plan(args.workload, args.size, args.seed, args.workers)
    specs = [build_experiment(name, over) for name, over, _ in steps]
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(padicstats.__file__).startswith(src + os.sep):
        raise SystemExit(f"padicstats imported from {padicstats.__file__}, not {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    run = {name: run_experiment for name, _, _ in steps}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = {name: tracer.wrap(f"registry.{name}", run_experiment) for name in run}

    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    outcomes = []
    for spec, (name, _, _) in zip(specs, steps):
        try:
            outcomes.append(run[name](spec))
        except Exception as exc:  # a raising experiment is a failed check
            outcomes.append(exc)
    wall_s = time.perf_counter() - t1
    cpu_s = _cpu_s() - cpu0
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "samples": sum(s.trials for s, (_, over, _) in zip(specs, steps)
                       if "trials" in over),
        "peak_rss_mb": _rss_mb(),
        "load_1m": [load_before, os.getloadavg()[0]],
    }
    if tracer is not None:
        per_experiment = {}  # experiment -> samples drawn or points enumerated
        for spec, (name, over, _), out in zip(specs, steps, outcomes):
            if not isinstance(out, Exception):
                done = (spec.trials if "trials" in over
                        else sum(r.enumeration_size for r in out))
                per_experiment[name] = per_experiment.get(name, 0) + done
        result["layers"] = tracer.metrics(
            wall_s, result["samples"], max(s.workers for s in specs), cpu_s,
            per_experiment)

    def confirmed(name, over):
        seed = over["seed"] + CONFIRM_SEED_OFFSET
        try:
            again = run_experiment(build_experiment(name, dict(over, seed=seed)))
        except Exception:
            return False
        return all(r.verdict == "PASS" for r in again)

    result.update(check(steps, outcomes, confirmed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
