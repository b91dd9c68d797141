"""Source hygiene: no module imports a name it never uses, no public
function or class goes uncalled, and no tape op ships without a float64
gradient check in the release gate.

The repository has no linter, so these AST scans keep unused imports from
creeping back into the package and the tests, keep every public top-level
def of the package named by the package, the benchmarks or the demos, and
keep every public package function that builds a tape node (through
_from_op in adiff, or adiff._from_op in any other module) named in
test_acceptance._op_cases.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ensograph").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line of that statement."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what its __all__ lists
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} imports {name} unused" for line, name in unused)


def test_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d, e, f\n"
        "__all__ = ['e']\n"
        "def g(x: f) -> None:\n"
        "    return np.zeros(b)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "d")]


def _referenced(node: ast.AST, modules) -> set[str]:
    """Every name a Name or an import alias under node refers to, and each attribute
    written <module>.<name> for a package module; an attribute of any other object,
    such as a set's .add, refers to no package def."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name.rsplit(".", 1)[-1])
    return refs


def unreferenced_defs(package: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name` of each public top-level def or class in `package` (module
    name -> source, __init__ left out) that nothing refers to outside its own
    body, in the package or in the `callers` sources. A caller names a module's
    def through the module by its own name, as benchmarks/workloads.py binds them."""
    stmts = [(mod, stmt) for mod, src in package.items() for stmt in ast.parse(src).body]
    stmts += [(None, ast.parse(src)) for src in callers]
    refs = [_referenced(stmt, package) for _, stmt in stmts]
    return [f"{mod}.{stmt.name}" for i, (mod, stmt) in enumerate(stmts)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
            and not any(stmt.name in r for j, r in enumerate(refs) if j != i)]


def test_every_public_def_is_referenced():
    package = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "ensograph").glob("*.py"))
               if p.name != "__init__.py"}
    callers = [p.read_text() for d in ("benchmarks", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    missing = unreferenced_defs(package, callers)
    assert not missing, f"public defs that only tests could call: {missing}"


def test_reference_scan_sees_callers_outside_the_def():
    package = {
        "a": "def used():\n    return 1\n"
             "def recursive(n):\n    return recursive(n - 1)\n"
             "def _private():\n    return used()\n"
             "class Kept:\n    pass\n",
        "b": "from .a import Kept\n"
             "def orphan():\n    return 2\n"
             "def called():\n    return 3\n"
             "def add(x):\n    return x\n",
    }
    # a set's .add names no package def; b.called does
    callers = ["from pkg import b\nb.called()\nseen = set()\nseen.add(1)\n"]
    assert unreferenced_defs(package, callers) == ["a.recursive", "b.orphan", "b.add"]


def tape_ops(source: str) -> set[str]:
    """Public functions of a package source that build a tape node, calling an
    adiff builder by name (in adiff) or as adiff.<builder> (elsewhere)."""
    def builds(call) -> bool:
        f = call.func
        return ((isinstance(f, ast.Name) and f.id == "_from_op")
                or (isinstance(f, ast.Attribute) and f.attr == "_from_op"
                    and isinstance(f.value, ast.Name) and f.value.id == "adiff"))

    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(c, ast.Call) and builds(c) for c in ast.walk(node))
    }


def gate_checked_ops(source: str) -> set[str]:
    """Every adiff.<name> the release gate's _op_cases refers to, and every function it calls by name."""
    cases = next(node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_op_cases")
    return ({node.attr for node in ast.walk(cases)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "adiff"}
            | {node.func.id for node in ast.walk(cases)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)})


def test_every_tape_op_has_a_gate_gradient_check():
    ops = set().union(*(tape_ops(p.read_text()) for p in sorted((ROOT / "src" / "ensograph").glob("*.py"))))
    assert ops == {"matmul", "mul", "tanh", "reduce_sum", "temporal_block", "mixhop_conv", "head",
                   "propagation_matrices", "mae_loss"}
    missing = sorted(ops - gate_checked_ops((ROOT / "tests" / "test_acceptance.py").read_text()))
    assert not missing, f"tape ops with no float64 case in test_acceptance._op_cases: {missing}"


def test_tape_op_scan_sees_builders_and_gate_cases():
    adiff_source = (
        "def add(a, b):\n    return _from_op(a, (a, b), f)\n"
        "def total(x):\n    y = x\n    return _from_op(y, (x,), None)\n"
        "def _helper(x):\n    return _from_op(x, (), None)\n"
        "def backward(loss):\n    return None\n"
    )
    assert tape_ops(adiff_source) == {"add", "total"}
    # another module builds its nodes through the adiff module attribute; a composition of ops is no node
    graph_source = (
        "from . import adiff\n"
        "def fused(x):\n    return adiff._from_op(x, (x,), lambda g: adiff._accum(x, g))\n"
        "def composed(x):\n    return adiff.add(x, x)\n"
        "def other(x):\n    return numpy._from_op(x)\n"
    )
    assert tape_ops(graph_source) == {"fused"}
    gate_source = ("def _op_cases(rng):\n    return [adiff.add(1, 2), fused(x), leaf]\n"
                   "def other():\n    adiff.total(1)\n    composed(1)\n")
    assert gate_checked_ops(gate_source) == {"add", "fused"}
