"""Sampled-domain verdicts: residual certification, maximum/minimum
principle margins, convex-hull containment, and gradient-norm conservation.

Domains are finite sample sets (interior strictly inside, boundary exactly
on the boundary equation).  Every check samples its field in domain order
through ``_sample`` and reduces with ``argmax``/``argmin`` (the first index
wins a tie), so reports are deterministic for a given grid.  An evaluation
error or a NaN or infinite sample aborts with the offending point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hull import max_outside_distance
from .jets import EvaluationError
from .maps import VectorMap, finite_difference_map_jet
from .operators import grad_norm_sq, perturbed_scalar, tangential

__all__ = [
    "DomainSpec",
    "CheckEvaluationError",
    "slab_domain",
    "annulus_domain",
    "refine_abscissas",
    "ResidualReport",
    "PrincipleVerdict",
    "HullVerdict",
    "ConservationReport",
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
    abscissas=None,
) -> DomainSpec:
    """Slab {a < x1 < b} sampled on a bounded section.

    All slab scenarios are exactly translation invariant in x2..xn, so
    extrema over the section equal extrema over the full slab.  Witness
    abscissas strictly inside (a, b) are injected into the interior grid.
    """
    if not b > a:
        raise ValueError("slab needs a < b")
    if abscissas is None:
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        ts = np.linspace(a, b, grid_points)
    else:
        ts = np.asarray(abscissas, dtype=float)
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


def refine_abscissas(ts) -> np.ndarray:
    """Insert exact midpoints: the refined grid contains the coarse one."""
    ts = np.unique(np.asarray(ts, dtype=float))
    mids = 0.5 * (ts[:-1] + ts[1:])
    return np.unique(np.concatenate([ts, mids]))


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
    """Max deviation of |Du|² from its target; tol, when a caller sets
    one, decides the pass."""

    max_dev: float
    target_sq: float
    worst_point: np.ndarray | None
    domain: str
    tol: float | None = None

    @property
    def passed(self) -> bool:
        return self.tol is None or self.max_dev <= self.tol


def _sample(f, points: np.ndarray, width: int | None = None) -> np.ndarray:
    """f at each point in order, as floats or rows of ``width`` floats.  The
    one place where an EvaluationError, or a NaN or infinite sample, becomes
    a CheckEvaluationError naming its point."""

    def each():
        for x in points:
            try:
                yield f(x)
            except EvaluationError as exc:
                raise CheckEvaluationError(x, str(exc)) from exc

    dtype = float if width is None else np.dtype((float, width))
    values = np.fromiter(each(), dtype, len(points))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0] // (width or 1)
        raise CheckEvaluationError(points[i], f"sampled value {values[i]} is not finite")
    return values


def _at(values: np.ndarray, points: np.ndarray, pick, empty: float):
    """The value ``pick`` (argmax or argmin) selects and its point; the
    first index wins a tie.  No samples give ``empty`` and no point."""
    if len(values) == 0:
        return empty, None
    i = pick(values)
    return float(values[i]), points[i]


def _jet_getter(map_obj: VectorMap, jet_source: str, fd_step: float):
    if jet_source == "analytic":
        return map_obj.map_jet
    if jet_source == "fd":
        return lambda x: finite_difference_map_jet(map_obj, x, h=fd_step)
    raise ValueError(f"unknown jet source {jet_source!r}")


def residual_certify(
    map_obj: VectorMap,
    op: str,
    domain: DomainSpec,
    tol: float,
    jet_source: str = "analytic",
    fd_step: float = 1e-4,
    f_map: VectorMap | None = None,
) -> ResidualReport:
    """Sup of the selected residual norm over all domain samples.

    op selects the residual: "tangential" (Euclidean norm of the tangential
    part) or "perturbed_scalar" (absolute value; needs f_map).  Evaluation
    domain errors abort with the offending point.
    """
    if op not in ("tangential", "perturbed_scalar"):
        raise ValueError(f"unknown operator selector {op!r}")
    points = np.concatenate([domain.interior, domain.boundary])
    get_jet = _jet_getter(map_obj, jet_source, fd_step)
    if op == "tangential":
        residual = lambda x: np.linalg.norm(tangential(get_jet(x)))
    else:
        if f_map is None:
            raise ValueError("perturbed_scalar residual needs f_map")
        get_f_jet = _jet_getter(f_map, jet_source, fd_step)
        residual = lambda x: abs(perturbed_scalar(get_jet(x), get_f_jet(x)))
    sup, worst = _at(_sample(residual, points), points, np.argmax, 0.0)
    return ResidualReport(sup, tol, sup <= tol, worst, len(points), jet_source, domain.label)


def max_principle_check(field, domain: DomainSpec) -> PrincipleVerdict:
    """Compare interior extrema of a scalar field against boundary extrema."""
    inner = _sample(field, domain.interior)
    outer = _sample(field, domain.boundary)
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


def directional_check(map_obj: VectorMap, xi, domain: DomainSpec) -> PrincipleVerdict:
    """Maximum/minimum principle check for the projection xi · u."""
    xi = np.asarray(xi, dtype=float)
    if not np.linalg.norm(xi) > 0.0:
        raise ValueError("direction xi must be nonzero")
    k = len(xi)
    return max_principle_check(lambda x: xi @ map_obj.value(x)[:k], domain)


def hull_check(map_obj: VectorMap, domain: DomainSpec, hull_tol: float = 1e-9) -> HullVerdict:
    """Containment of the interior image in the hull of the boundary image.

    The constructions are planar (padded components vanish identically), so
    the check runs on the first two image coordinates.
    """
    k = len(domain.boundary)
    if k < 1:
        raise ValueError("hull check needs at least one boundary sample")
    points = np.concatenate([domain.boundary, domain.interior])
    images = _sample(lambda x: map_obj.value(x)[:2], points, width=2)
    dist, idx = max_outside_distance(images[k:], images[:k])
    witness = domain.interior[idx] if idx >= 0 else None
    image = images[k + idx] if idx >= 0 else None
    return HullVerdict(dist <= hull_tol, dist, witness, image, hull_tol, domain.label)


def conservation_check(
    map_obj: VectorMap,
    domain: DomainSpec,
    target_sq: float,
    tol: float | None = None,
) -> ConservationReport:
    """Max deviation of |Du|² from its constant target over all samples."""
    points = np.concatenate([domain.interior, domain.boundary])
    devs = _sample(lambda x: abs(grad_norm_sq(map_obj.map_jet(x)) - target_sq), points)
    max_dev, worst = _at(devs, points, np.argmax, 0.0)
    return ConservationReport(max_dev, target_sq, worst, domain.label, tol)
