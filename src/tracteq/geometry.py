"""Planar geometry primitives for tract polygons and network segments.

All coordinates are projected planar meters. A polygon is a sequence of
exterior-ring (x, y) vertices in either winding order, taken as given: open,
with at least three vertices. Rings are put in that form once, by
`normalize_ring` where they enter the program. No geodesic math anywhere.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ValidationError

Point = tuple[float, float]

# On-boundary tolerance in meters. Grid inputs hit boundaries exactly; this
# only absorbs float noise from upstream arithmetic.
EPS = 1e-9


def normalize_ring(points: Sequence[Point]) -> list[Point]:
    """Return the ring as floats without a closing vertex; require >= 3 vertices."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise ValueError(f"polygon ring needs >= 3 distinct vertices, got {len(pts)}")
    return pts


def require_finite(points: Sequence[Point], where: str) -> Sequence[Point]:
    """points if every vertex is finite, else a ValidationError naming where."""
    isfinite = math.isfinite
    for x, y in points:
        if not (isfinite(x) and isfinite(y)):
            raise ValidationError(f"{where}: non-finite coordinate ({x}, {y})")
    return points


def polygon_area(points: Sequence[Point]) -> float:
    """Unsigned shoelace area of a simple polygon."""
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def polygon_centroid(points: Sequence[Point]) -> Point:
    """Area-weighted centroid; falls back to the vertex mean for degenerate area."""
    a2 = 0.0
    cx = 0.0
    cy = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        cross = x0 * y1 - x1 * y0
        a2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(a2) < 1e-30:
        n = len(points)
        return (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n)
    return (cx / (3.0 * a2), cy / (3.0 * a2))


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Euclidean distance from p to the closed segment ab."""
    px, py = p
    ax, ay = a
    bx, by = b
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / dd
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_in_polygon(p: Point, points: Sequence[Point]) -> bool:
    """Even-odd containment test; a point within EPS of the boundary is inside."""
    for a, b in zip(points, points[1:] + points[:1]):
        if point_segment_distance(p, a, b) <= EPS:
            return True
    px, py = p
    inside = False
    x0, y0 = points[-1]
    for x1, y1 in points:
        if (y0 > py) != (y1 > py):
            x_cross = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            if px < x_cross:
                inside = not inside
        x0, y0 = x1, y1
    return inside


def segment_param_hits(p0: Point, p1: Point, a: Point, b: Point) -> list[float]:
    """Parameters t in [0, 1] along p0->p1 where it meets segment ab.

    A transversal crossing yields one t. A parallel or nearly parallel ab
    yields the two ends of the overlap with the part of ab within EPS of the
    line p0->p1 (one t where they meet in a point). No hit yields an empty
    list.
    """
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    ex = b[0] - a[0]
    ey = b[1] - a[1]
    rx = a[0] - p0[0]
    ry = a[1] - p0[1]
    denom = dx * ey - dy * ex
    d_len = math.hypot(dx, dy)
    e_len = math.hypot(ex, ey)
    if d_len == 0.0:
        return [0.0] if point_segment_distance(p0, a, b) <= EPS else []
    if abs(denom) > EPS * d_len * max(e_len, 1.0):
        t = (rx * ey - ry * ex) / denom
        s = (rx * dy - ry * dx) / denom
        slack_t = EPS / d_len
        slack_s = EPS / e_len if e_len > 0 else 0.0
        if -slack_t <= t <= 1.0 + slack_t and -slack_s <= s <= 1.0 + slack_s:
            return [min(1.0, max(0.0, t))]
        return []
    # Parallel: the signed distance from the p-line runs linearly from ha at
    # a to hb at b, and only the part [u0, u1] of ab within EPS of the line
    # meets it.
    ha = (dx * ry - dy * rx) / d_len
    hb = ha + denom / d_len
    u0, u1 = 0.0, 1.0
    if ha != hb:
        ends = sorted(((EPS - ha) / (hb - ha), (-EPS - ha) / (hb - ha)))
        u0, u1 = max(u0, ends[0]), min(u1, ends[1])
    elif abs(ha) > EPS:
        return []
    if u0 > u1:
        return []
    dd = dx * dx + dy * dy
    ta = (rx * dx + ry * dy) / dd
    tb = ((b[0] - p0[0]) * dx + (b[1] - p0[1]) * dy) / dd
    t0 = ta if u0 == 0.0 else ta + u0 * (tb - ta)
    t1 = tb if u1 == 1.0 else ta + u1 * (tb - ta)
    lo = max(0.0, min(t0, t1))
    hi = min(1.0, max(t0, t1))
    if lo > hi:
        return []
    return [lo, hi] if hi > lo else [lo]


def segment_polygon_breakpoints(p0: Point, p1: Point, points: Sequence[Point]) -> list[float]:
    """All parameters where p0->p1 crosses or touches the polygon boundary."""
    hits: list[float] = []
    for a, b in zip(points, points[1:] + points[:1]):
        hits.extend(segment_param_hits(p0, p1, a, b))
    return sorted(hits)


def segment_intersects_polygon(p0: Point, p1: Point, points: Sequence[Point]) -> bool:
    """True when the segment shares any point with the closed polygon region."""
    if point_in_polygon(p0, points) or point_in_polygon(p1, points):
        return True
    return bool(segment_polygon_breakpoints(p0, p1, points))


def polyline_intersects_polygon(line: Sequence[Point], points: Sequence[Point]) -> bool:
    if len(line) == 1:
        return point_in_polygon(line[0], points)
    return any(segment_intersects_polygon(a, b, points) for a, b in zip(line, line[1:]))


def bounding_box(points: Sequence[Point]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def boxes_overlap(b1: tuple[float, float, float, float],
                  b2: tuple[float, float, float, float],
                  pad: float = EPS) -> bool:
    return not (b1[2] + pad < b2[0] or b2[2] + pad < b1[0]
                or b1[3] + pad < b2[1] or b2[3] + pad < b1[1])
