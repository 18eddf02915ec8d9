"""Every function of the library is reached by a ``verify`` run.

The function-level companion of ``test_public_names.py``: a subprocess
installs ``sys.setprofile`` before ``inflap.cli`` is imported (some
functions run only while the modules are imported, such as
``scenarios._along`` building the construction registry), runs the CLI on
a handful of commands and records the code objects it enters.  Every
function and method defined under ``src/inflap`` must be among them,
apart from the allowlist below.  Code no run reaches is deleted, not
maintained.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inflap"

#: module.qualname -> why no verify run enters it
UNREACHED = {
    "profiles.Profile.value": "abstract stub",
    "profiles.Profile.d1": "abstract stub",
    "maps.VectorMap.map_jet": "abstract stub",
    "maps._ProfileMap._components": "abstract stub",
    "profiles._IntegralProfile._integral": "abstract stub",
    "checkers.CheckEvaluationError.__init__": "raised only when an evaluation fails",
    "jets.first_where": "called only to name a failing entry",
    "cli._internal_error": "called only on an unexpected exception",
    "maps.VectorMap.value": "default of the one map without a formula path, TrigQuadMap, "
                            "whose values only tests read (the FD oracle, the block sweeps)",
    "operators.infinity_laplacian": "reached by tests and the benchmark tracer",
}

_SCRIPT = """
import contextlib, io, json, sys

entered = set()

def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(record)
from inflap import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _defined_functions():
    """(file, first line) -> module.qualname of every def under the
    package; a decorated function's code starts at its first decorator."""
    functions = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                functions[(str(path), line)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), path.stem)
    return functions


def test_every_function_is_reached_by_a_verify_run(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults, spelled out\nhull_tol=1e-9\ninject_witnesses=true\n")
    runs = [
        ["all", "--grid", "51"],
        ["ex1a", "ex1b", "--n", "3", "--grid", "101"],
        ["ex3", "--grid", "501"],
        ["all", "--grid", "51", "--n", "2", "--format", "csv",
         "--emit-profiles", str(tmp_path / "profiles"), "--config", str(config)],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(runs)],
        capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads(done.stdout)}
    functions = _defined_functions()
    unreached = sorted(name for key, name in functions.items() if key not in entered)
    assert unreached == sorted(UNREACHED)
