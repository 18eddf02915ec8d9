"""Sampled-domain verdicts: residual certification, maximum/minimum
principle margins, convex-hull containment, and gradient-norm conservation.

Domains are finite sample sets (interior strictly inside, boundary exactly
on the boundary equation).  All reducers are sup/inf over fixed-order
sample lists, so reports are deterministic for a given grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hull import max_outside_distance
from .jets import EvaluationError
from .maps import VectorMap, finite_difference_map_jet
from .operators import perturbed_scalar, tangential

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

    kind: str
    label: str
    n: int
    interior: np.ndarray  # (m, n), strictly inside
    boundary: np.ndarray  # (k, n), exactly on the boundary


def _with_witnesses(values: np.ndarray, witnesses, lo: float, hi: float) -> np.ndarray:
    inside = [w for w in witnesses if lo < w < hi]
    if inside:
        values = np.concatenate([values, np.asarray(inside, dtype=float)])
    return np.unique(values)


def _cross_sections(n: int, extent: float) -> np.ndarray:
    """Sample offsets for the translation-invariant axes 2..n."""
    if n == 1:
        return np.zeros((1, 0))
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
    interior = np.asarray(
        [np.concatenate(([t], c)) for t in interior_t for c in cross]
    ).reshape(-1, n)
    boundary = np.asarray(
        [np.concatenate(([t], c)) for t in (a, b) for c in cross]
    ).reshape(-1, n)
    return DomainSpec("slab", f"slab({a:g},{b:g})", n, interior, boundary)


def annulus_domain(
    r_in: float,
    r_out: float,
    n: int = 1,
    grid_points: int = 2001,
    witnesses=(),
    radii=None,
) -> DomainSpec:
    """Annulus {r_in < |x| < r_out} sampled along axis directions.

    For n = 1 this degenerates to the two intervals ±(r_in, r_out) with
    four boundary points; in general both spheres carry equal counts.
    """
    if not 0.0 < r_in < r_out:
        raise ValueError("annulus needs 0 < r_in < r_out")
    if radii is None:
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        rs = np.linspace(r_in, r_out, grid_points)
    else:
        rs = np.asarray(radii, dtype=float)
    interior_r = _with_witnesses(rs[(rs > r_in) & (rs < r_out)], witnesses, r_in, r_out)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = np.concatenate([np.eye(n), -np.eye(n)])
    interior = (interior_r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    boundary = (np.array([r_in, r_out])[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return DomainSpec("annulus", f"annulus({r_in:g},{r_out:g})", n, interior, boundary)


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


def _all_points(domain: DomainSpec) -> np.ndarray:
    parts = [p for p in (domain.interior, domain.boundary) if len(p)]
    if not parts:
        return np.zeros((0, domain.n))
    return np.vstack(parts)


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
    points = _all_points(domain)
    get_jet = _jet_getter(map_obj, jet_source, fd_step)
    if op == "perturbed_scalar":
        if f_map is None:
            raise ValueError("perturbed_scalar residual needs f_map")
        get_f_jet = _jet_getter(f_map, jet_source, fd_step)
    sup = 0.0
    worst = None
    for x in points:
        try:
            m = get_jet(x)
            if op == "tangential":
                r = float(np.linalg.norm(tangential(m)))
            else:
                r = abs(perturbed_scalar(m, get_f_jet(x)))
        except EvaluationError as exc:
            raise CheckEvaluationError(x, str(exc)) from exc
        if r > sup or worst is None:
            sup = r
            worst = x
    return ResidualReport(sup, tol, sup <= tol, worst, len(points), jet_source, domain.label)


def _field_extrema(field, points) -> tuple[float, float, np.ndarray | None, np.ndarray | None]:
    vmax, vmin = -math.inf, math.inf
    wmax = wmin = None
    for x in points:
        try:
            v = float(field(x))
        except EvaluationError as exc:
            raise CheckEvaluationError(x, str(exc)) from exc
        if v > vmax:
            vmax, wmax = v, x
        if v < vmin:
            vmin, wmin = v, x
    return vmax, vmin, wmax, wmin


def max_principle_check(field, domain: DomainSpec) -> PrincipleVerdict:
    """Compare interior extrema of a scalar field against boundary extrema."""
    sup_i, inf_i, w_sup, w_inf = _field_extrema(field, domain.interior)
    max_b, min_b, _, _ = _field_extrema(field, domain.boundary)
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
    return max_principle_check(lambda x: float(xi @ map_obj.value(x)[:k]), domain)


def hull_check(map_obj: VectorMap, domain: DomainSpec, hull_tol: float = 1e-9) -> HullVerdict:
    """Containment of the interior image in the hull of the boundary image.

    The constructions are planar (padded components vanish identically), so
    the check runs on the first two image coordinates.
    """
    if len(domain.boundary) < 1:
        raise ValueError("hull check needs at least one boundary sample")

    def images(points):
        out = []
        for x in points:
            try:
                out.append(map_obj.value(x)[:2])
            except EvaluationError as exc:
                raise CheckEvaluationError(x, str(exc)) from exc
        return np.asarray(out)

    boundary_img = images(domain.boundary)
    interior_img = images(domain.interior)
    if len(domain.interior) == 0:
        return HullVerdict(True, 0.0, None, None, hull_tol, domain.label)
    dist, idx = max_outside_distance(interior_img, boundary_img)
    witness = domain.interior[idx] if idx >= 0 else None
    image = interior_img[idx] if idx >= 0 else None
    return HullVerdict(dist <= hull_tol, dist, witness, image, hull_tol, domain.label)


def conservation_check(
    map_obj: VectorMap,
    domain: DomainSpec,
    target_sq: float | None = None,
) -> ConservationReport:
    """Max deviation of |Du|² from its constant target over all samples."""
    if target_sq is None:
        bound = getattr(map_obj, "speed_bound", None)
        if bound is None:
            raise ValueError("map carries no speed bound; pass target_sq")
        target_sq = bound * bound
    worst_dev = -1.0
    worst = None
    for x in _all_points(domain):
        try:
            m = map_obj.map_jet(x)
        except EvaluationError as exc:
            raise CheckEvaluationError(x, str(exc)) from exc
        dev = abs(float(np.einsum("ai,ai->", m.jacobian, m.jacobian)) - target_sq)
        if dev > worst_dev:
            worst_dev = dev
            worst = x
    return ConservationReport(max(worst_dev, 0.0), target_sq, worst, domain.label)
