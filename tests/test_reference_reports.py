"""The benchmark workloads reproduce their frozen reference reports exactly.

``benchmarks/reference/<workload>.json`` was written from the per-point
evaluation path.  Every leaf of a fresh ``--seed 0 --no-timings`` report
must equal the reference leaf, with no tolerance; the reference also
carries a ``config.out_path`` of null, which the report no longer echoes.
"""

import json
import os

import pytest

from inflap.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "all_default": (["all"], 317),
    "vector_n3": (["ex1a", "ex1b", "--n", "3"], 194),
    "scalar_fine": (["ex3", "--grid", "50001"], 60),
}


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_report_leaves_equal_reference(workload, tmp_path):
    args, count = WORKLOADS[workload]
    with open(os.path.join(ROOT, "benchmarks", "reference", f"{workload}.json")) as fh:
        reference = dict(_leaves(json.load(fh)))
    assert len(reference) == count
    out = tmp_path / "report.json"
    main([*args, "--seed", "0", "--no-timings", "--out", str(out)])
    report = dict(_leaves(json.loads(out.read_text())))
    dropped = {k for k in reference if k[-2:] == ("config", "out_path")}
    assert all(reference[k] is None for k in dropped)
    assert report == {k: v for k, v in reference.items() if k not in dropped}
