"""Every public name of the library has a caller outside the tests.

A name in a module's ``__all__`` counts as used when a ``Name`` or
``Attribute`` node loads it in one of the library's modules or in a
benchmark script.  A public name that only tests reach is deleted, not
kept.  The package ``__init__`` holds only its docstring: callers import
from the submodules, so the package names nothing of its own.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inflap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "benchmarks").glob("*.py"))


def _loaded_names() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


LOADED = _loaded_names()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller(path):
    module = importlib.import_module(f"inflap.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if name not in LOADED] == []


def test_package_init_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree) is not None and len(tree.body) == 1
