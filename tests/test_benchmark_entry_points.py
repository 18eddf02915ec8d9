"""The benchmark's traced run and set-up probe still run against the library.

A renamed or deleted name they look up, or a checker bound in a table at
import (which hides its calls from the traced run), fails here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}


def _run(args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300
    )


def test_traced_run_reaches_every_layer(tmp_path):
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    proc = _run(["benchmarks/tracer.py", str(trace), "--",
                 "all", "--grid", "51", "--no-timings", "--out", str(report)])
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(trace.read_text())["calls"]
    for key in ("checkers.residual_analytic", "checkers.residual_fd", "checkers.principle",
                "checkers.hull", "checkers.conservation", "checkers.domain", "maps.map_jet",
                "maps.value", "maps.fd_jet", "profiles.choose_M", "profiles.table_build",
                "quadrature.panel", "operators"):
        assert calls.get(key, 0) > 0, key


def test_setup_probe_runs():
    proc = _run(["benchmarks/setup_probe.py", "all"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["setup_s"] > 0.0


@pytest.mark.parametrize("args", [
    ["--workload", "all", "--seconds", "0", "--trace", "0"],
    ["--workload", "all_default", "--seconds", "0", "--seed", "1"],
    ["--workload", "all_default", "--seconds", "0", "--seed", "17"],
    ["--workload", "all", "--seconds", "0", "--trace", "1"],
], ids=["all", "all_default-seed1", "all_default-seed17", "all-traced"])
def test_benchmark_result_line(args):
    # run.py exits 0 even when every verify process of a workload fails (its
    # result then holds setup_s only), so the last line itself is checked
    proc = _run(["benchmarks/run.py", *args])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # a traced run reports the per-layer metrics
    traced = args[-2:] == ["--trace", "1"]
    metrics = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]] if args[1] == "all" else [args[1]]
    assert result["attempted"] >= len(workloads)
    expected = {f"{w}.{m}" for w in workloads for m in metrics} if args[1] == "all" else metrics
    assert set(expected) <= set(result["metrics"]), result
