"""padicstats benchmark: time to verdicts, throughput and per-layer time.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 50 --trace 0

Each repetition (pass) of the workload runs in a fresh interpreter
(`perfbench/child.py`).  Passes follow one another while at least half of
the next one still fits in `--seconds`; at least one always runs.  A
workload with more than one worker then runs once more at one worker, and
the report digests must be equal.  `--trace 0` prints the end-to-end metrics, `--trace 1` alternates
untraced and traced repetitions and prints the per-layer metrics.  The
last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds
the environment, the report digest and the failure details.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import SIZES, WORKLOADS, plan

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT = os.path.join(HERE, os.pardir, "BENCHMARK.json")
SETUP_SAMPLES = 11    # setup_s is the median of this many fresh imports
CHILD_TIMEOUT_S = 170

# per-layer metrics that must repeat exactly across traced passes of a seed
EXACT_SUFFIXES = (".calls", ".saturated", ".exhausted", ".matrices",
                  ".certified_ratio", ".calls_per_sample", ".chunks", ".spans")
EXACT_PREFIXES = ("root_census.discards.",)


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def child(args, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without searching upwards."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=sorted(SIZES),
                    help="'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "padicstats", "__init__.py")):
        raise BenchError("run from the repository root: src/padicstats is missing")
    with open(CONTRACT) as fh:
        contract = json.load(fh)

    env = environment()
    child(args, "--setup-only")  # warm-up: bytecode and file cache
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(child(args))
        if args.trace:
            traced.append(child(args, "--trace"))
        # start another pass only if at least half of it fits in the run
        elapsed = time.monotonic() - start
        if args.seconds - elapsed < elapsed / len(untraced) / 2:
            break
    passes = untraced + traced
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(args, "--setup-only")["setup_s"])

    problems = sorted({f for p in passes for f in p["failures"]})
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"report digests differ between passes: {digests}")
    if WORKLOADS[args.workload][1] > 1:
        one = child(args, "--workers", "1")
        if one["digest"] != digests[0]:
            problems.append(f"report digest {one['digest']} at one worker differs "
                            f"from {digests[0]}")

    med = statistics.median
    discard_rate = untraced[0]["discarded"] / untraced[0]["drawn"]
    if args.trace:
        # one whole pass, so that its layer times still add up to its wall
        middle = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(middle["layers"])
        for key, value in layers.items():
            exact = key.endswith(EXACT_SUFFIXES) or key.startswith(EXACT_PREFIXES)
            if exact and any(t["layers"][key] != value for t in traced):
                problems.append(f"{key} differs between traced passes")
        layers["trace.overhead_s"] = (med(t["wall_s"] for t in traced)
                                      - med(p["wall_s"] for p in untraced))
        layers["discard_rate"] = discard_rate
        ours = {name for name, _, _ in plan(args.workload, args.size, args.seed)}
        values = {}
        for m in contract["per_layer"]:
            name = m["name"]
            exp = name.split(".")[1] if name.startswith("registry.") else None
            if name in layers:
                values[name] = layers[name]
            elif exp is not None and exp not in ours:
                values[name] = 0.0  # an experiment of another workload
            else:
                raise BenchError(f"per-layer metric {name} was not measured")
        specs = contract["per_layer"]
    else:
        values = {
            "wall_s": med(p["wall_s"] for p in untraced),
            "samples_per_s": med(p["samples"] / p["wall_s"] for p in untraced),
            "setup_s": med(setups),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in untraced),
        }
        specs = contract["end_to_end"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    misses = sum(p["misses"] for p in passes)
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "setup_samples": len(setups), "report_digest": digests[0],
        "discard_rate": {"value": discard_rate, "unit": "ratio"},
        "check_fail_rate": {"value": misses / attempted, "unit": "ratio"},
        "problems": problems,
        "chance_misses": sorted({c for p in passes for c in p["chance_misses"]}),
        "env": dict(env, load_1m=[p["load_1m"] for p in passes]),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
