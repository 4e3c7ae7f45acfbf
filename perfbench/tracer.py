"""Span tracing of the program's layers, from outside the program.

`Tracer.install` replaces each layer function at every module binding the
package's callers use (`registry.census_of_poly`, `root_census.factor_mod_p`,
...) with a wrapper that records a span (id, parent id, name, start, end,
thread) and derives counters from the return value.  Spans stay in memory
until `metrics` folds them into per-layer numbers when the pass is over.

Only threads of the traced process are visible.  Spans inside worker
*processes* (a future process pool) are not recorded: their time shows up
in the parent's `experiment.run_chunked` self time instead.
"""

import inspect
import sys
import threading
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter

PKG = "padicstats"


def _zp_ok(counts, args, out):
    counts["root_census.zp_roots_raw.certified"] += bool(out[1])


def _saturated(name):
    def hook(counts, args, out):
        counts[f"matrix_lab.{name}.saturated"] += bool(out[1])
    return hook


def _census_flags(counts, args, out):
    for flag in out.flags:
        counts[f"root_census.discards.{flag}"] += 1


def _charpoly_matrices(counts, args, out):
    counts["batched.batch_charpoly.matrices"] += int(args[0].shape[0])


def _exhausted(counts, exc):
    if type(exc).__name__ == "PrecisionExhausted":
        counts["root_census.unramified_roots.exhausted"] += 1


# (span name, module, attribute, result hook, exception hook)
LAYERS = (
    ("root_census.factor_mod_p", "root_census", "factor_mod_p", None, None),
    ("root_census.hensel_split", "root_census", "hensel_split", None, None),
    ("root_census.island_multiplicities", "root_census",
     "island_multiplicities", None, None),
    ("root_census.unramified_roots", "root_census", "unramified_roots", None,
     _exhausted),
    ("root_census.classify_quadratic", "root_census", "classify_quadratic",
     None, None),
    ("root_census.census_of_poly", "root_census", "census_of_poly",
     _census_flags, None),
    ("root_census.zp_roots_raw", "root_census", "_zp_roots_raw", _zp_ok, None),
    ("root_census.zp_roots", "root_census", "zp_roots", None, None),
    ("batched.sample_matrices", "batched", "sample_matrices", None, None),
    ("batched.batch_rank_mod_p", "batched", "batch_rank_mod_p", None, None),
    ("batched.batch_charpoly", "batched", "batch_charpoly",
     _charpoly_matrices, None),
    ("batched.f2_primary_multiplicity", "batched", "f2_primary_multiplicity",
     None, None),
    ("batched.fp_primary_multiplicity", "batched", "fp_primary_multiplicity",
     None, None),
    ("batched.batch_det", "batched", "batch_det", None, None),
    ("batched.batch_charpoly_quad", "batched", "batch_charpoly_quad", None,
     None),
    ("matrix_lab.smith_parts_raw", "matrix_lab", "smith_parts_raw",
     _saturated("smith_parts_raw"), None),
    ("matrix_lab.smith_parts_quadratic", "matrix_lab", "smith_parts_quadratic",
     _saturated("smith_parts_quadratic"), None),
    ("padic_core.det_mod", "padic_core", "det_mod", None, None),
    ("experiment.stats", "experiment", "chi_square_pvalue", None, None),
    ("experiment.stats", "experiment", "contingency_chi2", None, None),
    ("experiment.stats", "experiment", "finalize", None, None),
)

# span name -> metric suffixes it reports (s: time in outermost spans of
# that name, self_s: time not covered by child spans, calls: span count)
TIMED = {
    "root_census.factor_mod_p": ("s", "self_s", "calls"),
    "root_census.hensel_split": ("s", "self_s"),
    "root_census.island_multiplicities": ("s",),
    "root_census.unramified_roots": ("s", "calls"),
    "root_census.classify_quadratic": ("s",),
    "root_census.census_of_poly": ("s", "self_s", "calls"),
    "root_census.zp_roots_raw": ("s", "calls"),
    "root_census.zp_roots": ("s",),
    "batched.sample_matrices": ("s", "calls"),
    "batched.batch_rank_mod_p": ("s",),
    "batched.batch_charpoly": ("s",),
    "batched.f2_primary_multiplicity": ("s",),
    "batched.fp_primary_multiplicity": ("s",),
    "batched.batch_det": ("s",),
    "batched.batch_charpoly_quad": ("s",),
    "matrix_lab.smith_parts_raw": ("s", "calls"),
    "matrix_lab.smith_parts_quadratic": ("s", "calls"),
    "padic_core.det_mod": ("s", "calls"),
    "closed_forms": ("s", "calls"),
    "experiment.run_chunked": ("s", "self_s"),
    "experiment.stats": ("s",),
}

# the package modules; each span name starts with its layer
LAYER_NAMES = ("batched", "matrix_lab", "padic_core", "root_census",
               "closed_forms", "experiment", "registry")

COUNTERS = (
    "root_census.unramified_roots.exhausted",
    "root_census.discards.zp", "root_census.discards.pairs",
    "root_census.discards.quad", "root_census.discards.unram",
    "batched.batch_charpoly.matrices",
    "matrix_lab.smith_parts_raw.saturated",
    "matrix_lab.smith_parts_quadratic.saturated",
)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _percentile(values, q):
    if not values:
        return 0.0
    vals = sorted(values)
    return vals[min(len(vals) - 1, int(q * len(vals)))]


class Tracer:
    def __init__(self):
        self.spans = []              # (id, parent, name, start, end, thread)
        self.counts = Counter()
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # hooks run on pool threads too

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None, on_error=None, parent=None):
        """fn with a span around each call.  `parent` adopts calls made on
        a thread with no open span (pool workers) under that span."""
        spans, ids, counts = self.spans, self._ids, self.counts
        stack_of, lock = self._stack, self._lock

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            pid = stack[-1] if stack else parent
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    with lock:
                        on_error(counts, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, pid, name, t0, t1, threading.get_ident()))
            if on_result is not None:
                with lock:
                    on_result(counts, args, out)
            return out

        return traced

    def _rebind(self, orig, wrapped):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != PKG:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every layer function at all of its package bindings."""
        import importlib

        mods = {m: importlib.import_module(f"{PKG}.{m}") for m in
                ("root_census", "batched", "matrix_lab", "padic_core",
                 "experiment", "registry", "closed_forms")}
        for name, mod, attr, on_result, on_error in LAYERS:
            orig = getattr(mods[mod], attr)
            self._rebind(orig, self.wrap(name, orig, on_result, on_error))
        cf = mods["closed_forms"]
        for attr, fn in list(vars(cf).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == cf.__name__):
                self._rebind(fn, self.wrap("closed_forms", fn))
        orig_chunked = mods["experiment"].run_chunked

        def run_chunked(spec, chunk_fn):
            here = self._stack()[-1]
            return orig_chunked(
                spec, self.wrap("registry.chunk", chunk_fn, parent=here)
            )

        self._rebind(orig_chunked, self.wrap("experiment.run_chunked",
                                             run_chunked))

    def metrics(self, wall_s: float, samples: int, workers: int,
                cpu_s: float, experiments: dict) -> dict:
        """Per-layer metrics of one traced pass.

        experiments: registry experiment -> samples drawn (or points
        enumerated) by its `registry.<experiment>` spans.
        """
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append((s[3], s[4]))
        total = Counter()
        self_s = Counter()
        calls = Counter()
        overlap = 0.0
        for sid, pid, name, t0, t1, _ in self.spans:
            kids = children.get(sid, ())
            covered = _union(kids)
            self_s[name] += (t1 - t0) - covered
            overlap += sum(b - a for a, b in kids) - covered
            up = by_id.get(pid)
            while up is not None and up[2] != name:
                up = by_id.get(up[1])
            if up is None:
                total[name] += t1 - t0
            if up is None or name != "closed_forms":
                calls[name] += 1
        out = {}
        for name, suffixes in TIMED.items():
            for suf in suffixes:
                src = {"s": total, "self_s": self_s, "calls": calls}[suf]
                out[f"{name}.{suf}"] = src[name]
        for key in COUNTERS:
            out[key] = self.counts[key]
        zcalls = calls["root_census.zp_roots_raw"]
        out["root_census.zp_roots_raw.certified_ratio"] = (
            self.counts["root_census.zp_roots_raw.certified"] / zcalls
            if zcalls else 0.0
        )
        out["root_census.factor_mod_p.calls_per_sample"] = (
            calls["root_census.factor_mod_p"] / samples if samples else 0.0
        )
        chunk_s = [s[4] - s[3] for s in self.spans if s[2] == "registry.chunk"]
        out["experiment.chunks"] = len(chunk_s)
        out["experiment.chunk_s.p50"] = _percentile(chunk_s, 0.5)
        out["experiment.chunk_s.p90"] = _percentile(chunk_s, 0.9)
        idle = 0.0
        for sid, _, name, t0, t1, _ in self.spans:
            if name == "experiment.run_chunked":
                busy = sum(b - a for a, b in children.get(sid, ()))
                idle += max(0.0, workers * (t1 - t0) - busy)
        out["experiment.pool_idle_s"] = idle
        out["experiment.cpu_s"] = cpu_s
        out["experiment.parallel_efficiency"] = cpu_s / (workers * wall_s)
        for exp, trials in experiments.items():
            secs = total[f"registry.{exp}"]
            out[f"registry.{exp}.s"] = secs
            out[f"registry.{exp}.samples_per_s"] = trials / secs if secs else 0.0
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer
            )
        roots = sum(t1 - t0 for _, pid, _, t0, t1, _ in self.spans if pid is None)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - roots
        out["trace.overlap_s"] = overlap
        out["trace.spans"] = len(self.spans)
        return out
