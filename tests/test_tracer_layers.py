"""Every layer the benchmark's tracer wraps still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_layers_resolve():
    # perfbench/tracer.py fetches each (module, attribute) of LAYERS with
    # getattr; a renamed or deleted layer would break every traced pass
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, mod, attr, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PKG}.{mod}")
        assert callable(getattr(module, attr, None)), name
