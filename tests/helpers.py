"""Reference maps and domains that only the tests use."""

import numpy as np

from inflap.checkers import DomainSpec
from inflap.maps import TrigQuadMap


def affine_map(A, b) -> TrigQuadMap:
    """x -> A x + b: a TrigQuadMap with zero quadratic and zero wave terms."""
    A = np.asarray(A, dtype=float)
    big_n, n = A.shape
    return TrigQuadMap(
        constant=b,
        linear=A,
        quadratic=np.zeros((big_n, n, n)),
        amplitudes=np.zeros((big_n, 0)),
        wavevectors=np.zeros((0, n)),
        phases=np.zeros(0),
    )


def box_domain(intervals, grid_points: int = 11) -> DomainSpec:
    """Axis-aligned box given per-axis (lo, hi); boundary = face samples."""
    intervals = [(float(lo), float(hi)) for lo, hi in intervals]
    n = len(intervals)
    axes = [np.linspace(lo, hi, grid_points) for lo, hi in intervals]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    on_face = np.zeros(len(grid), dtype=bool)
    for i, (lo, hi) in enumerate(intervals):
        on_face |= (grid[:, i] == lo) | (grid[:, i] == hi)
    label = "box(" + ",".join(f"[{lo:g},{hi:g}]" for lo, hi in intervals) + ")"
    return DomainSpec(label, grid[~on_face], grid[on_face])
