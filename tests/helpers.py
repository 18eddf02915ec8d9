"""Reference maps, domains and oracles that only the tests use."""

import itertools
import re
import tracemalloc

import numpy as np

from inflap.checkers import Extremum, HullReduction, PrincipleExtrema, sample
from inflap.jets import Jet2
from inflap.maps import TrigQuadMap, finite_difference_map_jet
from inflap.operators import grad_norm_sq


def exact(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing more."""
    return rf"\A{re.escape(message)}\Z"


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


class ArrayDomain:
    """A domain held as explicit interior and boundary arrays, with the
    members the sweep and the checks read from a ``DomainSpec``."""

    def __init__(self, label: str, interior, boundary):
        self.label = label
        self.interior = np.asarray(interior, dtype=float)
        self.boundary = np.asarray(boundary, dtype=float)
        self.n_interior = len(self.interior)

    def __len__(self) -> int:
        return self.n_interior + len(self.boundary)

    def points(self, start: int, stop: int) -> np.ndarray:
        return np.concatenate([self.interior, self.boundary])[start:stop]

    def point(self, i: int) -> np.ndarray:
        return self.points(i, i + 1)[0]


def interior(domain) -> np.ndarray:
    return domain.points(0, domain.n_interior)


def boundary(domain) -> np.ndarray:
    return domain.points(domain.n_interior, len(domain))


def all_points(domain) -> np.ndarray:
    return domain.points(0, len(domain))


def reference_slab(a, b, n=1, grid_points=2001, cross_extent=1.0, witnesses=()) -> ArrayDomain:
    """The slab as ``checkers.slab_domain`` formed it while a domain stored
    its points: the reference for the generated one."""
    ts = np.linspace(a, b, grid_points)
    inside = merged_reference(ts[(ts > a) & (ts < b)], [w for w in witnesses if a < w < b])
    half = 0.5 * cross_extent
    cross = np.asarray(list(itertools.product(*[(-half, 0.0, half)] * (n - 1))), dtype=float)

    def points(t):
        out = np.empty((len(t), len(cross), n))
        out[..., 0] = t[:, None]
        out[..., 1:] = cross
        return out.reshape(-1, n)

    return ArrayDomain(f"slab({a:g},{b:g})", points(inside), points(np.array([a, b])))


def reference_annulus(r_in, r_out, n=1, grid_points=2001, witnesses=()) -> ArrayDomain:
    """The annulus as ``checkers.annulus_domain`` formed it while a domain
    stored its points."""
    rs = np.linspace(r_in, r_out, grid_points)
    inside = merged_reference(rs[(rs > r_in) & (rs < r_out)],
                              [w for w in witnesses if r_in < w < r_out])
    dirs = np.concatenate([np.eye(n), -np.eye(n)])
    return ArrayDomain(f"annulus({r_in:g},{r_out:g})",
                       (inside[:, None, None] * dirs[None, :, :]).reshape(-1, n),
                       (np.array([r_in, r_out])[:, None, None] * dirs[None, :, :]).reshape(-1, n))


def box_domain(intervals, grid_points: int = 11) -> ArrayDomain:
    """Axis-aligned box given per-axis (lo, hi); boundary = face samples."""
    intervals = [(float(lo), float(hi)) for lo, hi in intervals]
    n = len(intervals)
    axes = [np.linspace(lo, hi, grid_points) for lo, hi in intervals]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    on_face = np.zeros(len(grid), dtype=bool)
    for i, (lo, hi) in enumerate(intervals):
        on_face |= (grid[:, i] == lo) | (grid[:, i] == hi)
    label = "box(" + ",".join(f"[{lo:g},{hi:g}]" for lo, hi in intervals) + ")"
    return ArrayDomain(label, grid[~on_face], grid[on_face])


def swept(f, domain, reduction, boundary_first: bool = True):
    """The reduction, fed every block of f sampled on the domain, the
    boundary first as a value domain is swept."""
    sample(lambda x: (f(x),), domain, [reduction], boundary_first)
    return reduction


def sampled_residuals(residual, u, domain, f_map=None, fd_step: float | None = None) -> Extremum:
    """The residual checks' reduction: the running sup of the norm
    ``residual(u_jets, f_jets)`` over the domain, from the jets of u and of
    f_map (None without one), analytic or, with fd_step, from the
    finite-difference oracle."""
    if fd_step is None:
        get = lambda m, x: m.map_jet(x)  # noqa: E731
    else:
        get = lambda m, x: finite_difference_map_jet(m, x, h=fd_step)  # noqa: E731
    return swept(lambda x: residual(get(u, x), None if f_map is None else get(f_map, x)),
                 domain, Extremum(), boundary_first=False)


def sampled_deviation(u, domain, target_sq: float) -> Extremum:
    """The conservation check's reduction: the running sup of |Du|²'s
    deviation from target_sq, from u's analytic jets."""
    return swept(lambda x: np.abs(grad_norm_sq(u.map_jet(x)) - target_sq), domain, Extremum(),
                 boundary_first=False)


def sampled_principle(f, domain) -> PrincipleExtrema:
    """max_principle_check's reduction of the scalar field f."""
    return swept(f, domain, PrincipleExtrema(lambda values: values, domain.n_interior))


def sampled_along(u, domain, xi) -> PrincipleExtrema:
    """directional_check's reduction: the extrema of xi · u."""
    xi = np.asarray(xi, dtype=float)
    project = lambda values: np.vecdot(values, xi)  # noqa: E731
    return swept(u.value, domain, PrincipleExtrema(project, domain.n_interior))


def sampled_hull(u, domain) -> HullReduction:
    """hull_check's reduction of u's values."""
    return swept(u.value, domain, HullReduction(domain.n_interior))


def merged_reference(grid, extra) -> np.ndarray:
    """The sorted, distinct grid with each extra value that equals no node and
    no earlier extra value merged in, by concatenating and sorting again: a
    node wins over an equal extra value, so a -0.0 witness leaves the node
    0.0.  The reference for the domains' witness merge."""
    kept = []
    for w in map(float, extra):
        if not np.any(grid == w) and w not in kept:
            kept.append(w)
    return np.sort(np.concatenate([grid, kept]))


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
