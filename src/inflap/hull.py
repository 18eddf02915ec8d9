"""Planar convex hulls (monotone chain) and distance-outside queries."""

from __future__ import annotations

import numpy as np

__all__ = ["convex_hull", "point_segment_distance", "distance_outside", "max_outside_distance"]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped.

    Degenerate inputs yield degenerate hulls: a single point or the two
    endpoints of a collinear set.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
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


def point_segment_distance(p, a, b) -> float:
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    tau = float((p - a) @ d) / denom
    tau = min(max(tau, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + tau * d)))


def distance_outside(p, hull: np.ndarray) -> float:
    """Euclidean distance from p to the hull, 0 if inside or on it."""
    p = np.asarray(p, dtype=float)
    k = len(hull)
    if k == 0:
        raise ValueError("empty hull")
    if k == 1:
        return float(np.linalg.norm(p - hull[0]))
    if k == 2:
        return point_segment_distance(p, hull[0], hull[1])
    inside = True
    for i in range(k):
        if _cross(hull[i], hull[(i + 1) % k], p) < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(point_segment_distance(p, hull[i], hull[(i + 1) % k]) for i in range(k))


def max_outside_distance(interior_points, boundary_points) -> tuple[float, int]:
    """Worst distance of interior image points outside the hull of the
    boundary image.  Returns (distance, witness index)."""
    hull = convex_hull(boundary_points)
    worst = 0.0
    witness = -1
    for idx, p in enumerate(np.asarray(interior_points, dtype=float).reshape(-1, 2)):
        d = distance_outside(p, hull)
        if d > worst:
            worst = d
            witness = idx
    return worst, witness
