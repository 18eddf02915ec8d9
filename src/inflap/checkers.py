"""Sampled-domain verdicts: residual certification, maximum/minimum
principle margins, convex-hull containment, and gradient-norm conservation.

Domains are finite sample sets (interior strictly inside, boundary exactly
on the boundary equation).  ``sample`` evaluates a field on consecutive
blocks of at most ``BLOCK_POINTS`` domain points and keeps only its
per-point results, so the field's temporaries never span the whole
domain; every check is a reduction of a sampled field with
``argmax``/``argmin`` (the first index wins a tie), so reports are
deterministic for a given grid.  An evaluation error or a NaN or infinite
reduced value aborts with the first offending point in domain order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hull import max_outside_distance
from .jets import BLOCK_POINTS, EvaluationError, merge_distinct

__all__ = [
    "DomainSpec",
    "CheckEvaluationError",
    "slab_domain",
    "annulus_domain",
    "ResidualReport",
    "PrincipleVerdict",
    "HullVerdict",
    "ConservationReport",
    "sample",
    "residual_certify",
    "max_principle_check",
    "directional_check",
    "hull_check",
    "conservation_check",
]

class CheckEvaluationError(EvaluationError):
    """An evaluation failed at a specific sample point."""

    def __init__(self, point, message: str):
        super().__init__(f"evaluation failed at {np.asarray(point).tolist()}: {message}")
        self.point = np.asarray(point, dtype=float)


@dataclass
class DomainSpec:
    """Sampled interior and boundary of a scenario domain."""

    label: str
    interior: np.ndarray  # (m, n), strictly inside
    boundary: np.ndarray  # (k, n), exactly on the boundary

    def __len__(self) -> int:
        return len(self.interior) + len(self.boundary)

    def points(self, start: int, stop: int) -> np.ndarray:
        """A copy of points start to stop - 1 of interior then boundary, the
        order of every sampled field."""
        m = len(self.interior)
        return np.concatenate([
            self.interior[min(start, m) : min(stop, m)],
            self.boundary[max(start - m, 0) : max(stop - m, 0)],
        ])

    def point(self, i: int) -> np.ndarray:
        """A copy of point i of interior then boundary."""
        m = len(self.interior)
        return (self.interior[i] if i < m else self.boundary[i - m]).copy()


def _with_witnesses(values: np.ndarray, witnesses, lo: float, hi: float) -> np.ndarray:
    return merge_distinct(values, [w for w in witnesses if lo < w < hi])


def _cross_sections(n: int, extent: float) -> np.ndarray:
    """Sample offsets for the translation-invariant axes 2..n; for n = 1
    the one empty offset."""
    half = 0.5 * extent
    axes = [(-half, 0.0, half)] * (n - 1)
    return np.asarray(list(itertools.product(*axes)), dtype=float)


def slab_domain(
    a: float,
    b: float,
    n: int = 1,
    grid_points: int = 2001,
    cross_extent: float = 1.0,
    witnesses=(),
) -> DomainSpec:
    """Slab {a < x1 < b} sampled on a bounded section.

    All slab scenarios are exactly translation invariant in x2..xn, so
    extrema over the section equal extrema over the full slab.  Witness
    abscissas strictly inside (a, b) are injected into the interior grid.
    Points are abscissa-major: the cross-section copies of each x1 are
    adjacent, so a profile map evaluates its formulas once per abscissa.
    """
    if not b > a:
        raise ValueError("slab needs a < b")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    ts = np.linspace(a, b, grid_points)
    interior_t = _with_witnesses(ts[(ts > a) & (ts < b)], witnesses, a, b)
    cross = _cross_sections(n, cross_extent)

    def points(t):
        """Each abscissa in t with each cross-section offset, abscissa-major,
        written in place: no temporary of the domain's size."""
        out = np.empty((len(t), len(cross), n))
        out[..., 0] = t[:, None]
        out[..., 1:] = cross
        return out.reshape(-1, n)

    return DomainSpec(f"slab({a:g},{b:g})", points(interior_t), points(np.array([a, b])))


def annulus_domain(
    r_in: float,
    r_out: float,
    n: int = 1,
    grid_points: int = 2001,
    witnesses=(),
) -> DomainSpec:
    """Annulus {r_in < |x| < r_out} sampled along axis directions.

    For n = 1 this degenerates to the two intervals ±(r_in, r_out) with
    four boundary points; in general both spheres carry equal counts.
    Points are radius-major: the 2n axis directions of each radius are
    adjacent, so a radial map evaluates its formulas once per radius.
    """
    if not 0.0 < r_in < r_out:
        raise ValueError("annulus needs 0 < r_in < r_out")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    rs = np.linspace(r_in, r_out, grid_points)
    interior_r = _with_witnesses(rs[(rs > r_in) & (rs < r_out)], witnesses, r_in, r_out)
    dirs = np.concatenate([np.eye(n), -np.eye(n)])
    interior = (interior_r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    boundary = (np.array([r_in, r_out])[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return DomainSpec(f"annulus({r_in:g},{r_out:g})", interior, boundary)


@dataclass
class ResidualReport:
    sup_residual: float
    tol: float
    passed: bool
    worst_point: np.ndarray | None
    n_points: int
    jet_source: str
    domain: str


@dataclass
class PrincipleVerdict:
    """Extrema of a scalar field over interior and boundary samples.

    max_violation_margin = sup_interior - max_boundary; a strictly positive
    margin certifies failure of the maximum principle on the sampled
    domain, which max_violation flags.  min_violation_margin and
    min_violation mirror this for the minimum principle.
    """

    sup_interior: float
    max_boundary: float
    inf_interior: float
    min_boundary: float
    max_violation_margin: float
    min_violation_margin: float
    witness_sup: np.ndarray | None
    witness_inf: np.ndarray | None
    domain: str
    max_violation: bool
    min_violation: bool


@dataclass
class HullVerdict:
    contained: bool
    max_outside_distance: float
    witness_point: np.ndarray | None
    witness_image: np.ndarray | None
    tol: float
    domain: str


@dataclass
class ConservationReport:
    """Max deviation of |Du|² from its target; it passes within tol."""

    max_dev: float
    target_sq: float
    worst_point: np.ndarray | None
    domain: str
    tol: float
    passed: bool


def sample(f, domain: DomainSpec):
    """f on the domain's points, interior then boundary, one block of at
    most BLOCK_POINTS consecutive points at a time.  f returns an array, or
    a tuple of arrays, with one entry or row per point; the blocks' results
    are written in point order into one array per result, so only one block
    of f's temporaries is alive at a time.  An EvaluationError becomes a
    CheckEvaluationError naming the first failing point in domain order.
    Evaluation is pointwise, so the blocks before the failing one pass, and
    within it the shortest failing prefix ends at that point and fails with
    the error the point raises alone."""
    total = len(domain)
    out = None
    for start in range(0, max(total, 1), BLOCK_POINTS):
        block = domain.points(start, start + BLOCK_POINTS)
        try:
            result = f(block)
        except EvaluationError as exc:
            lo, hi = 0, len(block)  # f fails on block[:hi] with exc, not on block[:lo]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    f(block[:mid])
                    lo = mid
                except EvaluationError as prefix_exc:
                    hi, exc = mid, prefix_exc
            raise CheckEvaluationError(block[hi - 1], str(exc)) from exc
        columns = result if isinstance(result, tuple) else (result,)
        if out is None:
            out = tuple(np.empty((total,) + c.shape[1:], c.dtype) for c in columns)
        for o, c in zip(out, columns):
            o[start : start + len(block)] = c
    return out if isinstance(result, tuple) else out[0]


def _finite(values: np.ndarray, point) -> np.ndarray:
    """The values, one entry or row per point, unless one is NaN or
    infinite: a CheckEvaluationError then names the first such point,
    ``point(i)`` for the i-th value."""
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=tuple(range(1, values.ndim))))
    if bad.size:
        i = bad[0]
        raise CheckEvaluationError(point(i), f"sampled value {values[i]} is not finite")
    return values


def _at(values: np.ndarray, point, pick, empty: float):
    """The finite value ``pick`` (argmax or argmin) selects and its point,
    the copy ``point(i)`` for the i-th value; the first index wins a tie.
    No samples give ``empty`` and no point."""
    if len(values) == 0:
        return empty, None
    i = pick(_finite(values, point))
    return float(values[i]), point(i)


def residual_certify(
    residuals: np.ndarray, domain: DomainSpec, tol: float, jet_source: str = "analytic"
) -> ResidualReport:
    """Sup of the residual norms sampled on the domain; jet_source names
    where the jets came from."""
    sup, worst = _at(residuals, domain.point, np.argmax, 0.0)
    return ResidualReport(sup, tol, sup <= tol, worst, len(residuals), jet_source, domain.label)


def max_principle_check(values: np.ndarray, domain: DomainSpec) -> PrincipleVerdict:
    """Compare interior extrema of a sampled scalar field against boundary extrema."""
    m = len(domain.interior)
    inner, outer = values[:m], values[m:]
    sup_i, w_sup = _at(inner, domain.point, np.argmax, -math.inf)
    inf_i, w_inf = _at(inner, domain.point, np.argmin, math.inf)
    max_b, _ = _at(outer, lambda i: domain.point(m + i), np.argmax, -math.inf)
    min_b, _ = _at(outer, lambda i: domain.point(m + i), np.argmin, math.inf)
    max_margin, min_margin = sup_i - max_b, min_b - inf_i
    return PrincipleVerdict(
        sup_interior=sup_i,
        max_boundary=max_b,
        inf_interior=inf_i,
        min_boundary=min_b,
        max_violation_margin=max_margin,
        min_violation_margin=min_margin,
        witness_sup=w_sup,
        witness_inf=w_inf,
        domain=domain.label,
        max_violation=max_margin > 0.0,
        min_violation=min_margin > 0.0,
    )


def directional_check(values: np.ndarray, xi, domain: DomainSpec) -> PrincipleVerdict:
    """Maximum/minimum principle check for the projection xi · u of sampled values."""
    xi = np.asarray(xi, dtype=float)
    if not np.linalg.norm(xi) > 0.0:
        raise ValueError("direction xi must be nonzero")
    return max_principle_check(np.vecdot(values[..., : len(xi)], xi), domain)


def hull_check(values: np.ndarray, domain: DomainSpec, hull_tol: float = 1e-9) -> HullVerdict:
    """Containment of the interior image in the hull of the boundary image.

    The constructions are planar (padded components vanish identically), so
    the check runs on the first two coordinates of the sampled map values.
    """
    if len(domain.boundary) < 1:
        raise ValueError("hull check needs at least one boundary sample")
    m = len(domain.interior)
    images = _finite(values[..., :2], domain.point)
    dist, idx = max_outside_distance(images[:m], images[m:])
    witness = domain.interior[idx].copy() if idx >= 0 else None
    image = images[idx].copy() if idx >= 0 else None
    return HullVerdict(dist <= hull_tol, dist, witness, image, hull_tol, domain.label)


def conservation_check(
    grad_sq: np.ndarray, domain: DomainSpec, target_sq: float, tol: float
) -> ConservationReport:
    """Max deviation of |Du|², sampled on the domain, from its constant target."""
    max_dev, worst = _at(np.abs(grad_sq - target_sq), domain.point, np.argmax, 0.0)
    return ConservationReport(max_dev, target_sq, worst, domain.label, tol, max_dev <= tol)
