"""Validation and dispatch read the registry's facts, never a scenario's name.

``scenarios._CONSTRUCTIONS`` is the one place that knows what each scenario
needs: the fewest targets it takes, the hessian rows of a residual point,
its phase table's reach and its runner.  ``validate_config`` and
``run_scenario`` compare a config with those facts, so neither may hold a
scenario name as a string literal, compare by identity with anything but
None (``spec.build is _polar_spiral``), or name an entry's profile,
builder, residual or runner.
"""

import ast
from pathlib import Path

import pytest

from inflap import scenarios
from inflap.scenarios import SCENARIO_NAMES

SOURCE = Path(scenarios.__file__)
FUNCTIONS = ("validate_config", "run_scenario")
#: module-level names bound to a callable field of some entry: its profile,
#: builder, residual or runner
ENTRY_CALLABLES = {
    name for name, obj in vars(scenarios).items()
    if any(obj is value for spec in scenarios._CONSTRUCTIONS.values()
           for value in vars(spec).values() if callable(value))
}


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _scenario_branches(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value in SCENARIO_NAMES:
            found.append(f"line {node.lineno}: scenario name {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ENTRY_CALLABLES:
            found.append(f"line {node.lineno}: entry callable {node.id}")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)) and not (_is_none(left) or _is_none(right)):
                    found.append(f"line {node.lineno}: identity comparison")
    return found


def _functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(SOURCE.read_text(), str(SOURCE))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in FUNCTIONS}


def test_the_guard_knows_the_entry_callables():
    assert {"_polar_spiral", "_perturbed_scalar", "_run_construction", "_run_properties"} \
        <= ENTRY_CALLABLES


@pytest.mark.parametrize("name", FUNCTIONS)
def test_reads_no_scenario_name_or_builder(name):
    functions = _functions()
    assert name in functions
    assert _scenario_branches(functions[name]) == []


@pytest.mark.parametrize("source", [
    'cfg.scenario == "properties"',
    'cfg.scenario in ("ex1a", "ex1b", "ex2")',
    "spec.build is some_builder",
    "spec.run is not other",
    "targets = 1 if spec.build is _perturbed_scalar else cfg.N",
    "report = _run_properties(cfg)",
])
def test_scan_finds_each_scenario_branch(source):
    assert _scenario_branches(ast.parse(source)) != []


@pytest.mark.parametrize("source", [
    "spec is None",
    "spec.phase is not None",
    'errors.append(f"t_max: must lie in [{lo}, {hi}] for {cfg.scenario}")',
    "report = spec.run(spec, cfg)",
])
def test_scan_passes_what_reads_the_entry(source):
    assert _scenario_branches(ast.parse(source)) == []
