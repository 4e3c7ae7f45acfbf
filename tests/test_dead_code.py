"""Every top-level function or class of a package module is reachable,
and so is every member of a package class and every scalar oracle.

A name is live when another package module refers to it (``__init__.py``
does not count: its imports are the package's public names), when the
benchmark tracer's ``LAYERS`` names it, when module-level code refers to
it, when a live name of its own module refers to it, or when ALLOWED
lists it.  A method, property or dataclass field of a package class is
live when some package module reads its name as an attribute, or when
ALLOWED lists it as ``Class.member``; dunder methods are called by the
language and always live.  Everything else is code no run path reaches.

A definition of ``tests/oracles.py`` is live when a test file imports it
from there or reads it as an ``oracles.`` attribute, or when a live oracle
refers to it; any other oracle checks nothing.
"""

import ast
import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "padicstats"
TRACER = TESTS.parent / "perfbench" / "tracer.py"
ORACLES = TESTS / "oracles.py"

# name or Class.member -> why it stays although no run path reaches it
ALLOWED = {
    "clear_shared_chunks": "test hook: empties the shared sample store",
    "theta3": "product-form check of the theta series (test_closed_forms)",
    "markov_matrix_m": "Markov machinery of acceptance criterion 5",
    "markov_spectral": "Markov machinery of acceptance criterion 5",
    "markov_t_moment": "closed-form moments of the Markov chain (test_closed_forms)",
    "markov_sample_path": "Markov path sampler (test_closed_forms)",
    "Census.quad_orbits": "census_of_poly's orbits, which the tests compare "
                          "with the scalar census of tests/oracles.py",
    "Census.unram_counts": "census_of_poly's unramified counts, which the "
                           "tests compare with the scalar census",
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


def _members(tree):
    """(Class.member, member) per method, property or annotated field of
    each top-level class, dunder methods left out."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{cls.name}.{name}", name


def _dead_members(modules: dict) -> list:
    read = {n.attr for tree in modules.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{mod}.{qual}" for mod, tree in modules.items()
            for qual, name in _members(tree)
            if name not in read and qual not in ALLOWED]


def test_no_unreachable_definitions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = {attr for _, _, attr, _, _ in tracer.LAYERS}
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert modules and layers
    assert _dead(modules, layers) == []
    assert _dead_members(modules) == []
    # no stale allowlist entry
    defined = {node.name for tree in modules.values() for node in tree.body
               if isinstance(node, DEFS)}
    defined |= {qual for tree in modules.values() for qual, _ in _members(tree)}
    assert set(ALLOWED) <= defined


def _oracle_uses(tree) -> set:
    """Names a test file takes from tests/oracles.py."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oracles":
            used |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "oracles"):
            used.add(node.attr)
    return used


def test_every_oracle_is_used_by_a_test():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
    tests = sorted(TESTS.glob("test_*.py"))
    assert defs and tests
    live = set().union(*(_oracle_uses(ast.parse(p.read_text(), filename=str(p)))
                         for p in tests))
    assert live <= set(defs)  # every name a test takes is defined there
    todo = list(live)
    while todo:
        for ref in _refs(defs[todo.pop()]) & (set(defs) - live):
            live.add(ref)
            todo.append(ref)
    assert sorted(set(defs) - live) == []
