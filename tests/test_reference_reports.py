"""Frozen ``--no-timings`` reports are reproduced exactly.

``benchmarks/reference/<workload>.json`` holds the benchmark workloads,
written from the per-point evaluation path; it also carries a
``config.out_path`` of null, which the report no longer echoes.
``tests/reference/`` holds the four constructions at n = 3 and n = 4,
written before the finite-difference oracle shared its profile formulas
across the stencil, and the property suite at seeds 1, 2, 3 and 7 (seed 0
is part of ``all_default``).  Their grids fit a residual domain in one or
two blocks; ``stress_n3_grid20001`` sweeps the four constructions at n = 3
over 30 to 44 residual blocks each, the last one shorter, and was written
before the jets went into a workspace reused from block to block.  Every
leaf of a fresh report must equal the reference leaf, with no tolerance.
"""

import json
import os

import pytest

from inflap.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: reference name -> (file, verify arguments before --seed, seed, leaf count)
REFERENCES = {
    "all_default": ("benchmarks/reference/all_default.json", ["all"], 0, 317),
    "vector_n3": ("benchmarks/reference/vector_n3.json", ["ex1a", "ex1b", "--n", "3"], 0, 194),
    "scalar_fine": ("benchmarks/reference/scalar_fine.json", ["ex3", "--grid", "50001"], 0, 60),
    "fd_n3_grid301": ("tests/reference/fd_n3_grid301.json",
                      ["ex1a", "ex1b", "ex2", "ex3", "--n", "3", "--grid", "301"], 0, 325),
    "fd_n4_grid201": ("tests/reference/fd_n4_grid201.json",
                      ["ex1a", "ex1b", "ex2", "ex3", "--n", "4", "--grid", "201"], 0, 354),
    "stress_n3_grid20001": ("tests/reference/stress_n3_grid20001.json",
                            ["ex1a", "ex1b", "ex2", "ex3", "--n", "3", "--grid", "20001"], 0, 325),
    **{f"properties_seed{seed}": (f"tests/reference/properties_seed{seed}.json",
                                  ["properties"], seed, 46) for seed in (1, 2, 3, 7)},
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


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_report_leaves_equal_reference(reference, tmp_path):
    path, args, seed, count = REFERENCES[reference]
    with open(os.path.join(ROOT, path)) as fh:
        expected = dict(_leaves(json.load(fh)))
    assert len(expected) == count
    out = tmp_path / "report.json"
    main([*args, "--seed", str(seed), "--no-timings", "--out", str(out)])
    report = dict(_leaves(json.loads(out.read_text())))
    dropped = {k for k in expected if k[-2:] == ("config", "out_path")}
    assert all(expected[k] is None for k in dropped)
    assert report == {k: v for k, v in expected.items() if k not in dropped}
