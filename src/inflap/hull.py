"""Planar convex hulls (monotone chain) and distance-outside queries.

The queries test a batch of points (..., 2) against every hull edge at once.
"""

from __future__ import annotations

import numpy as np

from .jets import BLOCK_POINTS
from .operators import row_norm

__all__ = ["convex_hull", "point_segment_distance", "distance_outside", "max_outside_distance"]


def _cross(o, a, b):
    ox, oy = o[..., 0], o[..., 1]
    return (a[..., 0] - ox) * (b[..., 1] - oy) - (a[..., 1] - oy) * (b[..., 0] - ox)


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped.

    Degenerate inputs yield degenerate hulls: a single point or the two
    endpoints of a collinear set.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    # np.unique(axis=0)'s distinct rows in (x, y) order, without its numpy.ma import
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.empty(len(pts), dtype=bool)
    keep[:1] = True
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])


def point_segment_distance(p, a, b):
    """Distance from each point p to the segment [a, b]; broadcasts."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    denom = np.vecdot(d, d)
    # a degenerate segment (d = 0) gets tau = 0: the distance to its point a
    tau = np.clip(np.vecdot(p - a, d) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    return row_norm(p - (a + tau[..., None] * d))


def distance_outside(p, hull: np.ndarray):
    """Euclidean distance from each point p to the hull, 0 inside or on it."""
    p = np.asarray(p, dtype=float)
    k = len(hull)
    if k == 0:
        raise ValueError("empty hull")
    if k <= 2:
        return point_segment_distance(p, hull[0], hull[-1])
    q, b = p[..., None, :], np.roll(hull, -1, axis=0)
    outside = np.any(_cross(hull, b, q) < 0.0, axis=-1)
    return np.where(outside, point_segment_distance(q, hull, b).min(axis=-1), 0.0)


def max_outside_distance(interior_points, boundary_points) -> tuple[float, int]:
    """Worst distance of interior image points outside the hull of the
    boundary image, tested BLOCK_POINTS points at a time.  Returns
    (distance, witness index); the first index wins a tie, and (0.0, -1)
    means every point is inside."""
    hull = convex_hull(boundary_points)
    points = np.asarray(interior_points, dtype=float).reshape(-1, 2)
    worst, at = 0.0, -1
    for start in range(0, len(points), BLOCK_POINTS):
        d = distance_outside(points[start : start + BLOCK_POINTS], hull)
        d = np.where(d > 0.0, d, 0.0)  # a NaN distance, like an inside one, is no witness
        i = int(np.argmax(d))
        if d[i] > worst:  # strictly: an earlier block keeps a tie
            worst, at = float(d[i]), start + i
    return worst, at
