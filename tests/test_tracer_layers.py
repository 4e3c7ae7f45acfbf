"""Every layer the benchmark's tracer wraps still exists in the package,
and returns what the tracer's hooks read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from padicstats.padic_core import PadicPoly
from padicstats.root_census import Census, PrecisionExhausted, QUAD_UNRAMIFIED

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_layers_resolve():
    # perfbench/tracer.py fetches each (module, attribute) of LAYERS with
    # getattr; a renamed or deleted layer would break every traced pass
    tracer = _tracer()
    assert tracer.LAYERS
    for name, mod, attr, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PKG}.{mod}")
        assert callable(getattr(module, attr, None)), name


# per traced layer of the kernel modules: a small input, the value the
# layer returns for it, and the counts its result hook records from that
_MIXED = PadicPoly(3, 8, (0, -9, 0, 1))    # x (x - 3) (x + 3), one island
_SPLIT = PadicPoly(3, 6, (0, -1, 1))       # x (x - 1)
_A = [[3, 1], [0, 0]]                      # a zero row: saturated at 3^4
SMALL = {
    "factor_mod_p": ((_MIXED.coeffs, 3), (((0, 1), 1, 3),), {}),
    "hensel_split": ((_SPLIT,), [PadicPoly(3, 6, (0, 1)),
                                 PadicPoly(3, 6, (-1, 1))], {}),
    "island_multiplicities": ((_MIXED,), {(0, 1): 3}, {}),
    "unramified_roots": ((_SPLIT, 2), [((0, 0), 6), ((1, 0), 6)], {}),
    "classify_quadratic": ((PadicPoly(3, 6, (-18, 0, 1)),),
                           (QUAD_UNRAMIFIED, 1), {}),
    # (x^2 - 3)(x^2 - 12): two ramified pairs on one island
    "census_of_poly": ((PadicPoly(3, 12, (36, 0, -15, 0, 1)),),
                       Census((), {}, frozenset({"quad"})),
                       {"root_census.discards.quad": 1}),
    # (x - 1)(x^2 + 1): one root in Z_3
    "_zp_roots_raw": (([-1, 1, -1, 1], 3, 8), ([(1, 8)], True),
                      {"root_census.zp_roots_raw.certified": 1}),
    "zp_roots": ((_SPLIT,), [(0, 6), (1, 6)], {}),
    "smith_parts_raw": ((_A, 3, 4), ([0, 4], True),
                        {"matrix_lab.smith_parts_raw.saturated": 1}),
    "smith_parts_quadratic": ((_A, _A, 3, 4, False, 2), ([0, 4], True),
                              {"matrix_lab.smith_parts_quadratic.saturated": 1}),
    "det_mod": (([[2, 3], [5, 7]], 27), 26, {}),
}


def test_traced_layers_return_what_their_hooks_read():
    # each layer of root_census, matrix_lab and padic_core runs under the
    # tracer's own wrapper, whose result hook reads the return value: the
    # (roots, ok) of _zp_roots_raw, the (parts, saturated) of the Smith
    # forms and the flags of a census
    tracer = _tracer()
    layers = [layer for layer in tracer.LAYERS
              if layer[1] in ("root_census", "matrix_lab", "padic_core")]
    assert {attr for _, _, attr, _, _ in layers} == set(SMALL)
    for name, mod, attr, on_result, on_error in layers:
        trace = tracer.Tracer()
        fn = getattr(importlib.import_module(f"{tracer.PKG}.{mod}"), attr)
        args, want, counts = SMALL[attr]
        assert trace.wrap(name, fn, on_result, on_error)(*args) == want, name
        assert dict(trace.counts) == counts, name
        assert [span[2] for span in trace.spans] == [name]


@pytest.mark.parametrize("attr", ["zp_roots", "unramified_roots"])
def test_precision_exhausted_reaches_the_tracer(attr):
    # x^2 at 3^6 has a double root no precision certifies
    tracer = _tracer()
    name, mod, _, on_result, _ = next(
        layer for layer in tracer.LAYERS if layer[2] == attr)
    fn = getattr(importlib.import_module(f"{tracer.PKG}.{mod}"), attr)
    trace = tracer.Tracer()
    traced = trace.wrap(name, fn, on_result, tracer._exhausted)
    args = (PadicPoly(3, 6, (0, 0, 1)),) + ((2,) if attr == "unramified_roots" else ())
    with pytest.raises(PrecisionExhausted):
        traced(*args)
    assert trace.counts == {"root_census.unramified_roots.exhausted": 1}
