"""The package's shape: what its modules import, and that each is used.

svstream runs on the standard library, numpy and scipy alone, and a module
that no other module imports is dead code left behind by a refactor (the
command line, cli, and the package's __init__ are the entry points).
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "svstream"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
ENTRY_POINTS = {"__init__", "cli"}


def _imports(module: str) -> tuple:
    """(top-level names of the outside packages the module imports, the
    package modules it imports)."""
    outside, inside = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            # from .mod import x; from . import x, a module or a name of __init__
            inside.update([node.module] if node.module else
                          [a.name if a.name in MODULES else "__init__" for a in node.names])
            continue
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "svstream":
                inside.add(rest.partition(".")[0] or "__init__")
            else:
                outside.add(top)
    return outside, inside


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_stdlib_numpy_scipy_or_the_package(module):
    outside, _ = _imports(module)
    assert outside - set(sys.stdlib_module_names) - {"numpy", "scipy"} == set()


@pytest.mark.parametrize("module", sorted(set(MODULES) - ENTRY_POINTS))
def test_module_is_imported_by_another_package_module(module):
    assert any(module in _imports(other)[1] for other in MODULES if other != module)


def test_imports_are_read_from_the_source():
    # the checks above see what each module imports
    assert _imports("graphcut") == ({"numpy", "scipy"}, {"imageops"})
    assert {"errors", "streamseg", "__init__"} <= _imports("cli")[1]
