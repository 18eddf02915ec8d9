"""Distance of interior image points from the hull of a boundary image.

The constructions map each boundary face or sphere to a single point, so
a boundary image has at most two distinct points and its hull is a
segment (a single point when both coincide); a larger image is refused.
The queries test one block of points (..., 2) against that segment at once.
"""

from __future__ import annotations

import numpy as np

from .jets import sorted_distinct
from .operators import row_norm

__all__ = ["point_segment_distance", "max_outside_distance"]


def point_segment_distance(p, a, b):
    """Distance from each point p to the segment [a, b]; broadcasts."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    denom = np.vecdot(d, d)
    # a degenerate segment (d = 0) gets tau = 0: the distance to its point a
    tau = np.clip(np.vecdot(p - a, d) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    return row_norm(p - (a + tau[..., None] * d))


def _segment_ends(points) -> np.ndarray:
    """The distinct rows of points, (x, y) ordered: the one or two points
    whose segment is their hull.  ValueError for none or more than two."""
    # each row as one complex x + iy, which np.sort orders by x, then y
    rows = np.ascontiguousarray(points, dtype=float).reshape(-1, 2).view(complex)[:, 0]
    pts = sorted_distinct(rows).view(float).reshape(-1, 2)
    if not 1 <= len(pts) <= 2:
        raise ValueError(f"boundary image has {len(pts)} distinct points; expected 1 or 2")
    return pts


def max_outside_distance(interior_points, boundary_points) -> tuple[float, int]:
    """Worst distance of interior image points, one block of a sampled
    field, from the segment that is the hull of the boundary image.
    Returns (distance, witness index); the first index wins a tie, and
    (0.0, -1) means every point is on the segment."""
    ends = _segment_ends(boundary_points)
    points = np.asarray(interior_points, dtype=float).reshape(-1, 2)
    d = point_segment_distance(points, ends[0], ends[-1])
    d = np.where(d > 0.0, d, 0.0)  # a NaN distance, like an inside one, is no witness
    i = int(np.argmax(d)) if len(d) else -1
    return (float(d[i]), i) if i >= 0 and d[i] > 0.0 else (0.0, -1)
