"""No library module maps a Python function over an array one entry at a time.

``np.fromiter(map(f, ...))``, ``np.vectorize`` and ``np.frompyfunc`` call
back into Python for every entry, about 100 ns each; the library evaluates
its arrays with ufuncs instead (``jets.exp`` is the kernel this keeps
honest).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "inflap"
MODULES = sorted(PACKAGE.glob("*.py"))


def _callee(node: ast.Call) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _per_entry_calls(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node)
        if name in ("vectorize", "frompyfunc"):
            found.append(f"line {node.lineno}: {name}")
        elif name == "fromiter" and node.args and isinstance(node.args[0], ast.Call) \
                and _callee(node.args[0]) == "map":
            found.append(f"line {node.lineno}: fromiter(map(...))")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_per_entry_python_loop(path):
    assert _per_entry_calls(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source", [
    "np.fromiter(map(math.exp, x), float, n)",
    "np.vectorize(math.exp)(x)",
    "numpy.frompyfunc(f, 1, 1)",
    "vectorize(f)",
])
def test_scan_finds_each_per_entry_form(source):
    assert len(_per_entry_calls(ast.parse(source))) == 1
