"""Reference maps, domains and oracles that only the tests use."""

import re

import numpy as np

from inflap.checkers import DomainSpec, sample
from inflap.jets import Jet2, sorted_distinct
from inflap.maps import TrigQuadMap, finite_difference_map_jet
from inflap.operators import grad_norm_sq


def exact(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing more."""
    return rf"\A{re.escape(message)}\Z"


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


def sampled_residuals(residual, u, domain: DomainSpec, f_map=None, fd_step: float | None = None):
    """The residual checks' field: the norm ``residual(u_jets, f_jets)`` at
    each point of the domain, from the jets of u and of f_map (None without
    one), analytic or, with fd_step, from the finite-difference oracle."""
    if fd_step is None:
        get = lambda m, x: m.map_jet(x)  # noqa: E731
    else:
        get = lambda m, x: finite_difference_map_jet(m, x, h=fd_step)  # noqa: E731
    return sample(
        lambda x: residual(get(u, x), None if f_map is None else get(f_map, x)), domain
    )


def sampled_grad_sq(u, domain: DomainSpec):
    """The conservation check's field: |Du|² of u's analytic jets at each point."""
    return sample(lambda x: grad_norm_sq(u.map_jet(x)), domain)


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


def merged_reference(grid, extra) -> np.ndarray:
    """The grid with the extra values merged in, by concatenating and
    sorting again: the reference for ``jets.merge_distinct``."""
    return sorted_distinct(np.concatenate([grid, np.asarray(extra, dtype=float)]))


def refine_abscissas(ts) -> np.ndarray:
    """Insert exact midpoints: the refined grid contains the coarse one."""
    ts = np.unique(np.asarray(ts, dtype=float))
    mids = 0.5 * (ts[:-1] + ts[1:])
    return np.unique(np.concatenate([ts, mids]))


def fd_jet(f, t: float, h: float = 1e-4) -> Jet2:
    """Central-difference jet of a scalar function: the oracle that
    cross-checks jet arithmetic.

    d1 = (f(t+h) - f(t-h)) / 2h,  d2 = (f(t+h) - 2 f(t) + f(t-h)) / h².
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    fp = f(t + h)
    fm = f(t - h)
    f0 = f(t)
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))
