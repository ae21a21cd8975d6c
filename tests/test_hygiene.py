"""Source hygiene: no unused imports, no tolerance knobs, numpy the one dependency.

Every name a ttolab module imports is used in that module, and no public
function or constructor takes a tolerance or grid-size argument; the shared
thresholds live in ttolab.tolerances.  ``import ttolab`` loads no module
outside the standard library but numpy.
"""

import ast
import subprocess
import sys
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


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import ttolab
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_numpy_and_the_standard_library_only():
    src = str(Path(ttolab.__file__).parent.parent)
    loaded = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, text=True,
                            capture_output=True, cwd=src).stdout.split()
    assert "ttolab" in loaded
    # _sysconfigdata_<platform> is the standard library's, under a per-platform name
    foreign = sorted(m for m in set(loaded) - set(sys.stdlib_module_names)
                     if m not in ("numpy", "ttolab") and not m.startswith("_sysconfigdata"))
    assert not foreign, f"import ttolab loads {foreign}"
