"""Source hygiene: no unused imports and no tolerance knobs.

Every name a ttolab module imports is used in that module, and no public
function or constructor takes a tolerance or grid-size argument; the shared
thresholds live in ttolab.tolerances.
"""

import ast
from pathlib import Path

import pytest

import ttolab

MODULES = sorted(p for p in Path(ttolab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


KNOBS = {"tol", "tol_factor", "rel_tol", "quad_points"}


def _public_functions(tree):
    """Module-level functions and class methods, public or __init__."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in defs:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (not fn.name.startswith("_") or fn.name == "__init__")):
                yield fn


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_knobs(path):
    tree = ast.parse(path.read_text())
    found = sorted(
        f"{fn.name}({arg.arg})" for fn in _public_functions(tree)
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg in KNOBS)
    assert not found, f"{path.name} takes tolerance or grid knobs: {found}"
