"""Run-to-run spread of the end-to-end metrics, one run per seed.

Run from the repository root:

    python3 perfbench/spread.py --workloads census linalg --seeds 21-30 [--out FILE]

For each workload it runs `run.py --trace 0` once per seed, one run after
another, at `run_seconds` from BENCHMARK.json (or `--seconds`).  It prints,
per metric, the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread (q3 - q1) / median, which is what a metric's bound is held against.
`--out` also writes the figures and every run's values as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, info, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {info}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("21-30"))
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, args.seconds))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        report[workload] = {}
        for m in contract["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            report[workload][m["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"],
                "unit": m["unit"], "values": values}
            print(f"{workload:10} {m['name']:14} median {median:10.4f} "
                  f"spread {(q3 - q1) / median:.3f} (bound {m['bound']})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds,
                       "workloads": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
