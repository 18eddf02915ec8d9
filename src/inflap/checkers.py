"""Sampled-domain verdicts: residual certification, maximum/minimum
principle margins, convex-hull containment, and gradient-norm conservation.

Domains are finite sample sets (interior strictly inside, boundary exactly
on the boundary equation) that write their points block by block.
``sample`` evaluates a field on blocks of at most ``BLOCK_POINTS`` points,
or of the rows ``jet_rows`` sizes by a point's jets, and feeds each to the
checks' reductions, running extrema in which the first index wins a tie:
no array of the domain's size exists, and reports are deterministic for a
given grid.  An evaluation error, then a NaN or infinite reduced value,
aborts with the first offending point."""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hull
from .jets import BLOCK_POINTS, EvaluationError, grid_nodes, sorted_distinct

__all__ = [
    "DomainSpec",
    "CheckEvaluationError",
    "slab_domain",
    "annulus_domain",
    "Extremum",
    "PrincipleExtrema",
    "HullReduction",
    "ResidualReport",
    "PrincipleVerdict",
    "HullVerdict",
    "ConservationReport",
    "jet_rows",
    "sample",
    "residual_certify",
    "max_principle_check",
    "directional_check",
    "hull_check",
    "conservation_check",
]

#: most hessian entries the jets of one block of a residual sweep hold:
#: 2,048 points at n = 3, N = 2, and every n = 1 block keeps BLOCK_POINTS
BLOCK_ENTRIES = 36_864
#: fewest points a block of jets holds however large each point's jets are:
#: each block pays a fixed cost (correction panels, formula passes, Python
#: calls) that fewer points would not amortize
ROW_FLOOR = 2048


def jet_rows(entries: int) -> int:
    """Points in one block of a field whose jets hold ``entries`` hessian
    entries a point: as many as BLOCK_ENTRIES allows, raised to ROW_FLOOR,
    and at most BLOCK_POINTS, all read when called."""
    return min(BLOCK_POINTS, max(ROW_FLOOR, BLOCK_ENTRIES // entries))


class CheckEvaluationError(EvaluationError):
    """An evaluation failed at a specific sample point."""

    def __init__(self, point, message: str):
        super().__init__(f"evaluation failed at {np.asarray(point).tolist()}: {message}")
        self.point = np.asarray(point, dtype=float)


@dataclass
class DomainSpec:
    """k copies of each abscissa of a 1-D grid, written block by block: the
    nodes of ``np.linspace(lo, hi, grid_points)`` strictly inside (lo, hi)
    with the witnesses there merged in, then lo and hi.  Copy j of abscissa
    t is the point t·scale[j] + shift[j]; points are abscissa-major,
    interior then boundary, the order of every sampled field."""

    label: str
    lo: float
    hi: float
    grid_points: int
    inserted: np.ndarray  # the witnesses; once built, those merged in, then lo and hi
    scale: np.ndarray  # (k, n)
    shift: np.ndarray  # (k, n)

    def __post_init__(self):
        lo, hi, g = self.lo, self.hi, self.grid_points
        if g < 2:
            raise ValueError("grid_points must be at least 2")
        ws = sorted_distinct(np.asarray([w for w in self.inserted if lo < w < hi], dtype=float))
        node = lambda i: grid_nodes(lo, hi, g, i, i + 1)[0]  # noqa: E731
        # the interior nodes 1 .. g - 2 below each witness, by bisection
        below = [bisect.bisect_left(range(1, g - 1), w, key=node) for w in ws]
        keep = [b == g - 2 or node(b + 1) != w for b, w in zip(below, ws)]
        self.inserted = np.append(ws[keep], [lo, hi])
        # each inserted abscissa's position among all abscissas
        self.at = np.array(below + [g - 2] * 2)[keep + [True] * 2] + np.arange(len(self.inserted))
        self.n_interior = (g - 4 + len(self.inserted)) * len(self.scale)

    def __len__(self) -> int:
        return self.n_interior + 2 * len(self.scale)

    def points(self, start: int, stop: int) -> np.ndarray:
        """Points start to stop - 1 of interior then boundary."""
        k, n = self.scale.shape
        q, r = start // k, -(-min(stop, len(self)) // k)  # the block's abscissas q to r - 1
        # abscissa i not inserted is node i - (abscissas inserted before i) + 1
        first, last = np.searchsorted(self.at, [q, r])
        t = grid_nodes(self.lo, self.hi, self.grid_points, q - first + 1, r - last + 1)
        if last > first:
            t = np.insert(t, self.at[first:last] - np.arange(q, q + last - first),
                          self.inserted[first:last])
        block = t[:, None, None] * self.scale
        block += self.shift
        np.copyto(block, self.shift, where=self.scale == 0.0)  # a constant keeps its signed zero
        return block.reshape(-1, n)[start - q * k : stop - q * k]

    def point(self, i: int) -> np.ndarray:
        """A copy of point i of interior then boundary."""
        return self.points(i, i + 1)[0].copy()


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
    # the offsets of x2..xn, 3^(n-1) of them; for n = 1 the one empty offset
    half = 0.5 * cross_extent
    cross = np.asarray(list(itertools.product(*[(-half, 0.0, half)] * (n - 1))), dtype=float)
    # x1 is t·1 + (-0.0), exactly t; x2..xn, scaled by 0, are the offsets
    scale = np.repeat(np.eye(n)[:1], len(cross), axis=0)
    shift = np.column_stack([np.full(len(cross), -0.0), cross])
    return DomainSpec(f"slab({a:g},{b:g})", a, b, grid_points, witnesses, scale, shift)


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
    dirs = np.concatenate([np.eye(n), -np.eye(n)])
    # r·d + 0·d is r·d, and an entry of d that is 0.0 or -0.0 stays 0·d, the same zero
    return DomainSpec(f"annulus({r_in:g},{r_out:g})", r_in, r_out, grid_points, witnesses,
                      dirs, 0.0 * dirs)


class Extremum:
    """A running (value, index) argmax or argmin, as ``pick`` says, of values
    fed block by block in domain order; the first index wins a tie.  The
    first NaN or infinite row fed is recorded, and ``result`` raises it."""

    def __init__(self, pick=np.argmax):
        self.pick, self.value, self.index, self.bad = pick, None, -1, None

    def check(self, rows: np.ndarray, start: int) -> None:  # row 0 is point start
        finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
        if self.bad is None and not finite.all():
            i = int(np.argmin(finite))
            self.bad = (start + i, rows[i].copy())

    def feed(self, values: np.ndarray, start: int) -> None:
        self.check(values, start)
        if len(values):
            i = int(self.pick(values))
            # only a strictly better value: pick prefers the first of a tie
            if self.index < 0 or self.pick([self.value, values[i]]) == 1:
                self.value, self.index = values[i], start + i

    def result(self, point, empty: float):
        """The extremum and a copy of its point, or empty and None; raises the first bad row."""
        if self.bad is not None:
            i, row = self.bad
            raise CheckEvaluationError(point(i), f"sampled value {row} is not finite")
        if self.index < 0:
            return empty, None
        return float(self.value), point(self.index)


class PrincipleExtrema:
    """max_principle_check's reduction, fed boundary first: each side's max and min of project."""

    def __init__(self, project, n_interior: int):
        self.project, self.n_interior = project, n_interior
        self.extrema = tuple(Extremum(pick) for pick in (np.argmax, np.argmin) * 2)

    def feed(self, values: np.ndarray, start: int) -> None:
        projected = self.project(values)
        side = 2 if start >= self.n_interior else 0
        for extremum in self.extrema[side : side + 2]:
            extremum.feed(projected, start)


class HullReduction:
    """What hull_check reads from a field sampled boundary first: the
    boundary image and the worst distance of an interior image from it."""

    def __init__(self, n_interior: int):
        self.n_interior, self.boundary = n_interior, np.empty((0, 2))
        self.dist, self.at, self.image = 0.0, -1, None  # the worst distance, its point and image
        self.inner, self.outer = Extremum(), Extremum()  # their first non-finite image

    def feed(self, values: np.ndarray, start: int) -> None:
        images = values[..., :2]
        if start >= self.n_interior:
            self.outer.check(images, start)
            self.boundary = np.concatenate([self.boundary, images])
            return
        self.inner.check(images, start)
        try:
            dist, i = hull.max_outside_distance(images, self.boundary)
        except ValueError:  # hull_check refuses the boundary image last
            return
        if i >= 0 and dist > self.dist:  # strictly: an earlier block keeps a tie
            self.dist, self.at, self.image = dist, start + i, images[i].copy()


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


def sample(f, domain: DomainSpec, reductions, boundary_first: bool = False,
           rows: int | None = None) -> None:
    """Reduce f on the domain's points, rows at a time (BLOCK_POINTS unless
    given): f returns a tuple of arrays, one entry or row per point, and
    the i-th goes to ``reductions[i].feed(values, start)`` for points
    start, start + 1, ...
    Blocks run interior then boundary; with boundary_first, boundary then
    interior, the last boundary block topped up with interior points in
    domain order and feeding its boundary first.  An EvaluationError names
    the first failing point in domain order, a boundary one once the whole
    interior passed: evaluation is pointwise, so the shortest failing
    prefix of the failing block ends there."""
    m, total = domain.n_interior, len(domain)
    rows = BLOCK_POINTS if rows is None else rows
    held = None
    for p in range(0, total, rows):
        start = (p + m) % total if boundary_first else p
        stop = start + min(rows, total - p)
        wrap = max(stop - total, 0)  # the block goes on with points 0 to wrap - 1
        block = domain.points(start, stop)
        if wrap:
            block = np.concatenate([domain.points(0, wrap), block])
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
            error = CheckEvaluationError(block[hi - 1], str(exc))
            error.__cause__ = exc
            if hi <= wrap or start + hi - 1 - wrap < m:
                raise error
            held = held or error
            continue
        for first, end, row in ((start, stop - wrap, wrap), (0, wrap, 0)) if held is None else ():
            for reduction, values in zip(reductions, result):
                if end > first:
                    reduction.feed(values[row : row + end - first], first)
    if held is not None:
        raise held


def residual_certify(
    sup: Extremum, domain: DomainSpec, tol: float, jet_source: str = "analytic"
) -> ResidualReport:
    """The sup of the residual norms sampled on the domain; jet_source
    names where the jets came from."""
    value, worst = sup.result(domain.point, 0.0)
    return ResidualReport(value, tol, value <= tol, worst, len(domain), jet_source, domain.label)


def max_principle_check(extrema: PrincipleExtrema, domain: DomainSpec) -> PrincipleVerdict:
    """Compare interior extrema of a sampled scalar field against boundary extrema."""
    # interior max and min, then boundary max and min; none sampled gives -inf or inf
    empty = (-math.inf, math.inf) * 2
    (sup_i, w_sup), (inf_i, w_inf), (max_b, _), (min_b, _) = (
        e.result(domain.point, none) for e, none in zip(extrema.extrema, empty))
    max_margin, min_margin = sup_i - max_b, min_b - inf_i
    return PrincipleVerdict(sup_i, max_b, inf_i, min_b, max_margin, min_margin, w_sup, w_inf,
                            domain.label, max_margin > 0.0, min_margin > 0.0)


def directional_check(extrema: PrincipleExtrema, xi, domain: DomainSpec) -> PrincipleVerdict:
    """Maximum/minimum principle check from the extrema of xi · u over the sampled values."""
    if not np.linalg.norm(np.asarray(xi, dtype=float)) > 0.0:
        raise ValueError("direction xi must be nonzero")
    return max_principle_check(extrema, domain)


def hull_check(reduction: HullReduction, domain: DomainSpec, hull_tol: float = 1e-9) -> HullVerdict:
    """Containment of the interior image in the hull of the boundary image.

    The constructions are planar (padded components vanish identically), so
    the check reads the first two coordinates of the sampled map values.
    """
    if len(domain) == domain.n_interior:
        raise ValueError("hull check needs at least one boundary sample")
    for images in (reduction.inner, reduction.outer):
        images.result(domain.point, 0.0)
    hull._segment_ends(reduction.boundary)  # refuses a boundary image of more than two points
    dist, witness = reduction.dist, None if reduction.at < 0 else domain.point(reduction.at)
    return HullVerdict(dist <= hull_tol, dist, witness, reduction.image, hull_tol, domain.label)


def conservation_check(
    deviation: Extremum, domain: DomainSpec, target_sq: float, tol: float
) -> ConservationReport:
    """The max deviation of |Du|², sampled on the domain, from its constant target."""
    max_dev, worst = deviation.result(domain.point, 0.0)
    return ConservationReport(max_dev, target_sq, worst, domain.label, tol, max_dev <= tol)
