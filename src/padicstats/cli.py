"""Command-line entry point.

Subcommands: list, formula, run, suite, enumerate.  Long-form flags only;
``--seed`` fully determines every stochastic output, and PADIC_WORKERS
supplies a default worker count.  Exit code 0 means every verdict passed,
1 means some check failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from fnmatch import fnmatch

from . import closed_forms as cf
from .experiment import (
    INCONCLUSIVE,
    PASS,
    InvalidSpec,
    UnknownExperiment,
    build_experiment,
    list_experiments,
    reports_to_csv,
    reports_to_json,
    run_experiment,
)


def _default_workers() -> int:
    """PADIC_WORKERS as an integer; make_spec refuses one below 1."""
    raw = os.environ.get("PADIC_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpec(f"PADIC_WORKERS must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicstats",
        description="Eigenvalue statistics of Haar-random p-adic matrices: "
        "closed forms, simulations, and verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and formula catalog entries")

    fp = sub.add_parser("formula", help="evaluate a catalog formula")
    fp.add_argument("formula_name")
    fp.add_argument("--tol", type=float, default=None)

    for cmd, help_text in (
        ("run", "run one experiment and report verdicts"),
        ("enumerate", "run one exhaustive experiment and report exact values"),
    ):
        rp = sub.add_parser(cmd, help=help_text)
        rp.add_argument("experiment")
        rp.add_argument("--out", default=None, help="write the report file here")
        rp.add_argument("--format", choices=("json", "csv"), default=None)
        _add_override_flags(rp)

    sp = sub.add_parser("suite", help="run all registry experiments")
    sp.add_argument("--filter", default="*", help="glob on experiment names")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    return parser


# (flag, override key, type); --points is parsed by _parse_points
_OVERRIDE_FLAGS = (
    ("--p", "p", int), ("--n", "n", int), ("--precision", "N", int),
    ("--trials", "trials", int), ("--seed", "seed", int),
    ("--workers", "workers", int), ("--s", "s", int), ("--d", "d", int),
    ("--m", "m", int), ("--k", "k", int), ("--c", "c", int),
    ("--label", "label", str), ("--points", "points", str),
)


def _add_override_flags(p: argparse.ArgumentParser):
    for flag, _, typ in _OVERRIDE_FLAGS:
        p.add_argument(flag, type=typ, default=None)


def _parse_points(raw: str) -> tuple:
    """A --points value: comma-separated integers, else InvalidSpec."""
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise InvalidSpec(f"--points must be comma-separated integers, "
                          f"got {raw!r}") from None


def _overrides_from_args(args) -> dict:
    out = {}
    for flag, key, _ in _OVERRIDE_FLAGS:
        val = getattr(args, flag[2:])
        if val is not None:
            out[key] = _parse_points(val) if key == "points" else val
    if "workers" not in out:
        out["workers"] = _default_workers()
    return out


def _print_reports(reports):
    for r in reports:
        d = r.to_dict()
        analytic = d.get("analytic") or {}
        if "estimate" in d:
            val = f"{d['estimate']:.6g} +- {d['se']:.2g}"
        else:
            val = f"[{d['exact']['lo']}, {d['exact']['hi']}] (exact)"
        target = analytic.get("value", analytic.get("interval", analytic.get("exact", "")))
        print(
            f"  [{d['verdict']:^12s}] {d['name']}: {d['estimand']}\n"
            f"      {val}  vs  {target}"
            + (f"  (discard {d['discard_rate']:.2%})" if d.get("discard_rate") else "")
        )


def _check_out(path):
    """Refuse an --out path that cannot be opened for writing, before the
    run (the report is written to it afterwards)."""
    if path:
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            raise InvalidSpec(f"cannot write --out {path}: {exc.strerror}") from None


def _write_out(reports, path, fmt):
    if fmt is None:
        fmt = "csv" if path and path.endswith(".csv") else "json"
    text = reports_to_csv(reports) if fmt == "csv" else reports_to_json(reports)
    with open(path, "w") as fh:
        fh.write(text)


def _exit_code(reports) -> int:
    worst = 0
    for r in reports:
        if r.verdict != PASS:
            worst = 1
    return worst


def _cmd_list() -> int:
    print("experiments:")
    from .registry import REGISTRY

    for name in list_experiments():
        print(f"  {name:32s} {REGISTRY[name].doc}")
    print("\nformulas:")
    for name in sorted(cf.CATALOG):
        fn = cf.CATALOG[name]
        sig = inspect.signature(fn)
        args = ", ".join(
            k for k in sig.parameters if k != "tol"
        )
        print(f"  {name:32s} ({args})")
    return 0


def _cmd_formula(args, extra) -> int:
    name = args.formula_name
    if name not in cf.CATALOG:
        print(f"unknown formula: {name}", file=sys.stderr)
        return 2
    sig = inspect.signature(cf.CATALOG[name])
    params = {}
    if args.tol is not None and "tol" in sig.parameters:
        params["tol"] = args.tol
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            print(f"unexpected argument: {tok}", file=sys.stderr)
            return 2
        key = tok[2:]
        if key == "p" and "p" not in sig.parameters and "q" in sig.parameters:
            key = "q"  # residue-field-size formulas accept the prime spelling
        if key not in sig.parameters:
            print(f"unknown parameter --{key} for {name}", file=sys.stderr)
            return 2
        if i + 1 >= len(extra):
            print(f"missing value for --{key}", file=sys.stderr)
            return 2
        raw = extra[i + 1]
        try:
            if key in ("label", "variant"):
                val = raw
            elif key == "points":
                val = _parse_points(raw)
            elif "." in raw or "e" in raw.lower():
                val = float(raw)
            else:
                val = int(raw)
        except ValueError:
            print(f"bad value for --{key}: {raw}", file=sys.stderr)
            return 2
        params[key] = val
        i += 2
    try:
        out = cf.eval_formula(name, **params)
    except cf.InvalidParams as exc:
        return _usage_error(exc)
    if isinstance(out, cf.IntervalValue):
        print(f"[{out.lo!r}, {out.hi!r}]")
    else:
        print(repr(out.value))
        if out.flags:
            print(f"flags: {','.join(out.flags)}", file=sys.stderr)
    return 0


def _usage_error(exc) -> int:
    print(f"usage error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
    return 2


def _cmd_run(args, exhaustive: bool) -> int:
    from .registry import REGISTRY

    try:
        spec = build_experiment(args.experiment, _overrides_from_args(args))
        if exhaustive and REGISTRY[spec.name].kind != "exact":
            raise InvalidSpec(f"{spec.name} is not an exhaustive experiment")
        _check_out(args.out)
    except UnknownExperiment:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        return 2
    except (KeyError, InvalidSpec) as exc:
        # bad run parameters: a usage error (exit 2), not a traceback
        return _usage_error(exc)
    reports = run_experiment(spec)
    print(f"{spec.name}: {spec.describe()}")
    _print_reports(reports)
    if args.out:
        _write_out(reports, args.out, args.format)
    return _exit_code(reports)


def _cmd_suite(args) -> int:
    from .registry import REGISTRY

    names = [n for n in list_experiments() if fnmatch(n, args.filter)]
    if not names:
        print(f"no experiments match {args.filter!r}", file=sys.stderr)
        return 2
    # every spec is built, and so validated, before anything runs
    specs = []
    try:
        workers = args.workers if args.workers is not None else _default_workers()
        for name in names:
            edef = REGISTRY[name]
            for variant in edef.suite_variants:
                overrides = dict(variant, workers=workers)
                if args.seed is not None:
                    overrides["seed"] = args.seed
                if args.trials is not None and edef.kind == "mc":
                    overrides["trials"] = args.trials
                specs.append(build_experiment(name, overrides))
        _check_out(args.out)
    except InvalidSpec as exc:
        return _usage_error(exc)
    all_reports = []
    counts = {PASS: 0, "FAIL": 0, INCONCLUSIVE: 0}
    for spec in specs:
        reports = run_experiment(spec)
        _print_reports(reports)
        for r in reports:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        all_reports.extend(reports)
    print(
        f"\nsuite: {counts[PASS]} pass, {counts['FAIL']} fail, "
        f"{counts[INCONCLUSIVE]} inconclusive"
    )
    if args.out:
        _write_out(all_reports, args.out, args.format)
    return _exit_code(all_reports)


def dispatch(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    if argv and argv[0] == "formula":
        args, extra = parser.parse_known_args(argv)
        return _cmd_formula(args, extra)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args, exhaustive=False)
    if args.command == "enumerate":
        return _cmd_run(args, exhaustive=True)
    if args.command == "suite":
        return _cmd_suite(args)
    return 2  # pragma: no cover


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
