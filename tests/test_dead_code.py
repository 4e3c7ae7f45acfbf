"""Every top-level function or class of a package module is reachable.

A name is live when another package module refers to it (``__init__.py``
does not count: its imports are the package's public names), when the
benchmark tracer's ``LAYERS`` names it, when module-level code refers to
it, when a live name of its own module refers to it, or when ALLOWED
lists it.  Everything else is code no run path reaches.
"""

import ast
import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "padicstats"
TRACER = TESTS.parent / "perfbench" / "tracer.py"

# name -> why it stays although no run path reaches it
ALLOWED = {
    "resultant": "test reference for classify_quadratic, via discriminant",
    "discriminant": "test reference for classify_quadratic",
    "clear_shared_chunks": "test hook: empties the shared sample store",
    "theta3": "product-form check of the theta series (test_closed_forms)",
    "markov_matrix_m": "Markov machinery of acceptance criterion 5",
    "markov_spectral": "Markov machinery of acceptance criterion 5",
    "markov_t_moment": "closed-form moments of the Markov chain (test_closed_forms)",
    "markov_sample_path": "Markov path sampler (test_closed_forms)",
    "_rank_mod_p": "scalar oracle of batch_rank_mod_p",
}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _refs(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _dead(modules: dict, layers: set) -> list:
    refs = {name: _refs(tree) for name, tree in modules.items()}
    dead = []
    for name, tree in modules.items():
        defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
        live = set(layers) | set(ALLOWED)
        live = live.union(*(r for other, r in refs.items() if other != name))
        live = live.union(*(_refs(node) for node in tree.body
                            if not isinstance(node, DEFS)))
        todo = [d for d in defs if d in live]
        while todo:
            for ref in _refs(defs[todo.pop()]) & (set(defs) - live):
                live.add(ref)
                todo.append(ref)
        dead += [f"{name}.{d}" for d in defs if d not in live]
    return dead


def test_no_unreachable_definitions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = {attr for _, _, attr, _, _ in tracer.LAYERS}
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert modules and layers
    assert _dead(modules, layers) == []
    # no stale allowlist entry
    defined = {node.name for tree in modules.values() for node in tree.body
               if isinstance(node, DEFS)}
    assert set(ALLOWED) <= defined
