"""Sampled-domain verdicts: residual certification, maximum/minimum
principle margins, convex-hull containment, and gradient-norm conservation.

Domains are finite sample sets (interior strictly inside, boundary exactly
on the boundary equation).  ``sample`` evaluates a field on all domain
points at once; every check is a reduction of a sampled field with
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
from .jets import EvaluationError
from .operators import grad_norm_sq, perturbed_scalar, row_norm, tangential

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

    def points(self) -> np.ndarray:
        """Interior then boundary samples, the order of every sampled field."""
        return np.concatenate([self.interior, self.boundary])


def _with_witnesses(values: np.ndarray, witnesses, lo: float, hi: float) -> np.ndarray:
    return np.unique(np.concatenate([values, [w for w in witnesses if lo < w < hi]]))


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
        """Each abscissa in t with each cross-section offset, abscissa-major."""
        return np.column_stack([np.repeat(t, len(cross)), np.tile(cross, (len(t), 1))])

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
    domain.  min_violation_margin mirrors this for the minimum principle.
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

    @property
    def max_violation(self) -> bool:
        return self.max_violation_margin > 0.0

    @property
    def min_violation(self) -> bool:
        return self.min_violation_margin > 0.0


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

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


def sample(f, domain: DomainSpec):
    """f on all points of the domain at once, interior then boundary; returns
    what f returns.  An EvaluationError becomes a CheckEvaluationError
    naming the first failing point in domain order.  Evaluation is
    pointwise, so the shortest failing prefix of the points ends at that
    point and fails with the error the point raises alone."""
    points = domain.points()
    try:
        return f(points)
    except EvaluationError as exc:
        lo, hi = 0, len(points)  # f fails on points[:hi] with exc, not on points[:lo]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                f(points[:mid])
                lo = mid
            except EvaluationError as prefix_exc:
                hi, exc = mid, prefix_exc
        raise CheckEvaluationError(points[hi - 1], str(exc)) from exc


def _finite(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The values, one entry or row per point, unless one is NaN or
    infinite: a CheckEvaluationError then names the first such point."""
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=tuple(range(1, values.ndim))))
    if bad.size:
        i = bad[0]
        raise CheckEvaluationError(points[i], f"sampled value {values[i]} is not finite")
    return values


def _at(values: np.ndarray, points: np.ndarray, pick, empty: float):
    """The finite value ``pick`` (argmax or argmin) selects and a copy of its
    point; the first index wins a tie.  No samples give ``empty`` and no point."""
    if len(values) == 0:
        return empty, None
    i = pick(_finite(values, points))
    return float(values[i]), points[i].copy()


def residual_certify(
    jets, op: str, domain: DomainSpec, tol: float, jet_source: str = "analytic"
) -> ResidualReport:
    """Sup of the selected residual norm over all domain samples.

    jets is the pair (the map's jets, the forcing map's jets or None),
    sampled on the domain; jet_source names where they came from.  op
    selects the residual: "tangential" (Euclidean norm of the tangential
    part) or "perturbed_scalar" (absolute value; needs the forcing jets).
    """
    u_jets, f_jets = jets
    if op == "tangential":
        residual = row_norm(tangential(u_jets))
    elif op == "perturbed_scalar":
        if f_jets is None:
            raise ValueError("perturbed_scalar residual needs the forcing map's jets")
        residual = np.abs(perturbed_scalar(u_jets, f_jets))
    else:
        raise ValueError(f"unknown operator selector {op!r}")
    sup, worst = _at(residual, domain.points(), np.argmax, 0.0)
    return ResidualReport(sup, tol, sup <= tol, worst, len(residual), jet_source, domain.label)


def max_principle_check(values: np.ndarray, domain: DomainSpec) -> PrincipleVerdict:
    """Compare interior extrema of a sampled scalar field against boundary extrema."""
    inner, outer = values[: len(domain.interior)], values[len(domain.interior) :]
    sup_i, w_sup = _at(inner, domain.interior, np.argmax, -math.inf)
    inf_i, w_inf = _at(inner, domain.interior, np.argmin, math.inf)
    max_b, _ = _at(outer, domain.boundary, np.argmax, -math.inf)
    min_b, _ = _at(outer, domain.boundary, np.argmin, math.inf)
    return PrincipleVerdict(
        sup_interior=sup_i,
        max_boundary=max_b,
        inf_interior=inf_i,
        min_boundary=min_b,
        max_violation_margin=sup_i - max_b,
        min_violation_margin=min_b - inf_i,
        witness_sup=w_sup,
        witness_inf=w_inf,
        domain=domain.label,
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
    images = _finite(values[..., :2], domain.points())
    dist, idx = max_outside_distance(images[:m], images[m:])
    witness = domain.interior[idx].copy() if idx >= 0 else None
    image = images[idx].copy() if idx >= 0 else None
    return HullVerdict(dist <= hull_tol, dist, witness, image, hull_tol, domain.label)


def conservation_check(
    jets, domain: DomainSpec, target_sq: float, tol: float
) -> ConservationReport:
    """Max deviation of |Du|² from its constant target over the sampled jets."""
    devs = np.abs(grad_norm_sq(jets) - target_sq)
    max_dev, worst = _at(devs, domain.points(), np.argmax, 0.0)
    return ConservationReport(max_dev, target_sq, worst, domain.label, tol)
