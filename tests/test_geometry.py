import math

import numpy as np
import pytest

from tracteq.data_model import Tract, TractSet
from tracteq.geometry import (
    EPS,
    bounding_box,
    boxes_overlap,
    normalize_ring,
    point_in_polygon,
    point_segment_distance,
    polygon_area,
    polygon_centroid,
    polyline_intersects_polygon,
    segment_param_hits,
    segment_polygon_breakpoints,
)
from tracteq.network import OUTSIDE_ZONE, Edge, Graph, build_edge_tract_map

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
# concave L: unit squares at (0,0) and (1,0), plus the one above the first
L_SHAPE = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))


def test_area_unit_square():
    assert polygon_area(SQUARE) == 1.0


def test_area_triangle():
    assert polygon_area(((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))) == 6.0


def test_area_orientation_invariant():
    assert polygon_area(tuple(reversed(SQUARE))) == 1.0


def test_area_l_shape():
    assert polygon_area(L_SHAPE) == 3.0


def test_normalize_ring_drops_closing_vertex():
    closed = SQUARE + (SQUARE[0],)
    assert normalize_ring(closed) == list(SQUARE)


def test_normalize_ring_rejects_degenerate():
    with pytest.raises(ValueError):
        normalize_ring(((0.0, 0.0), (1.0, 1.0)))


def test_centroid_square():
    assert polygon_centroid(SQUARE) == (0.5, 0.5)


def test_centroid_l_shape():
    # 3 unit cells at (0.5,0.5), (1.5,0.5), (0.5,1.5), equal areas
    cx, cy = polygon_centroid(L_SHAPE)
    assert math.isclose(cx, (0.5 + 1.5 + 0.5) / 3, abs_tol=1e-12)
    assert math.isclose(cy, (0.5 + 0.5 + 1.5) / 3, abs_tol=1e-12)


def test_centroid_translation():
    shifted = tuple((x + 10.0, y - 4.0) for x, y in L_SHAPE)
    cx, cy = polygon_centroid(L_SHAPE)
    sx, sy = polygon_centroid(shifted)
    assert math.isclose(sx, cx + 10.0, abs_tol=1e-9)
    assert math.isclose(sy, cy - 4.0, abs_tol=1e-9)


def test_centroid_degenerate_falls_back_to_vertex_mean():
    flat = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    assert polygon_centroid(flat) == (1.0, 0.0)


def test_point_segment_distance_perpendicular():
    # vertical segment x=3 from y=-1 to 1; origin projects onto it
    assert point_segment_distance((0.0, 0.0), (3.0, -1.0), (3.0, 1.0)) == 3.0


def test_point_segment_distance_clamps_to_endpoint():
    d = point_segment_distance((5.0, 1.0), (0.0, 0.0), (4.0, 0.0))
    assert math.isclose(d, math.sqrt(2.0), rel_tol=1e-12)


def test_point_segment_distance_degenerate_segment():
    assert point_segment_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == 5.0


def test_point_in_polygon_basic():
    assert point_in_polygon((0.5, 0.5), SQUARE)
    assert not point_in_polygon((1.5, 0.5), SQUARE)
    assert not point_in_polygon((-0.1, 0.5), SQUARE)


def test_point_in_polygon_boundary_switch():
    assert point_in_polygon((1.0, 0.5), SQUARE)
    assert point_in_polygon((0.0, 0.0), SQUARE)


def test_point_in_polygon_concave():
    assert point_in_polygon((0.5, 1.5), L_SHAPE)
    assert not point_in_polygon((1.5, 1.5), L_SHAPE)


def test_point_in_polygon_ray_through_vertex():
    # ray from (0.5, 1.0) passes through vertex (1.0, 1.0) of the notch
    assert point_in_polygon((0.5, 1.0), L_SHAPE)


def test_point_in_polygon_grid_against_matplotlib_free_oracle():
    # compare against a sign-of-winding-free oracle: area additivity. Any
    # interior point of a convex polygon keeps the fan triangulation areas
    # all positive.
    hexagon = tuple(
        (math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 7)[:-1]
    )
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = tuple(rng.uniform(-1.2, 1.2, 2))
        fan = [
            polygon_area((p, hexagon[i], hexagon[(i + 1) % 6]))
            for i in range(6)
        ]
        inside_oracle = math.isclose(sum(fan), polygon_area(hexagon), rel_tol=1e-9)
        assert point_in_polygon(p, hexagon) == inside_oracle


def test_segment_param_hits_transversal():
    hits = segment_param_hits((0.0, -1.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0))
    assert hits == [0.5]


def test_segment_param_hits_parallel_disjoint():
    assert segment_param_hits((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)) == []


def test_segment_param_hits_collinear_overlap():
    hits = segment_param_hits((0.0, 0.0), (10.0, 0.0), (4.0, 0.0), (6.0, 0.0))
    assert hits == [0.4, 0.6]


def test_segment_param_hits_collinear_partial_overlap_clamps():
    hits = segment_param_hits((0.0, 0.0), (10.0, 0.0), (8.0, 0.0), (15.0, 0.0))
    assert hits == [0.8, 1.0]


def test_segment_param_hits_crossing_at_a_tiny_angle():
    # Just steep enough for the transversal branch: one hit at the crossing.
    hits = segment_param_hits((0.0, 0.0), (10.0, 0.0), (0.0, -6 * EPS), (10.0, 6 * EPS))
    assert hits == [pytest.approx(0.5)]


def test_segment_param_hits_near_parallel_counts_only_the_part_within_eps():
    # ab rises 0.4 EPS per meter from EPS/2 below the line: within EPS of
    # it up to x = 3.75 only, though its end a is within EPS.
    hits = segment_param_hits((0.0, 0.0), (10.0, 0.0), (0.0, -EPS / 2), (10.0, 3.5 * EPS))
    assert hits == [0.0, pytest.approx(0.375)]
    # Crossing the line in the near-parallel branch with both ends more
    # than EPS away: the part within EPS, around the crossing.
    hits = segment_param_hits((0.0, 0.0), (10.0, 0.0), (0.0, -4 * EPS), (10.0, 4 * EPS))
    assert hits == [pytest.approx(0.375), pytest.approx(0.625)]


def test_segment_param_hits_endpoint_touch():
    hits = segment_param_hits((0.0, 0.0), (2.0, 2.0), (2.0, 2.0), (3.0, 0.0))
    assert hits == [1.0]


def test_breakpoints_crossing_square():
    ts = segment_polygon_breakpoints((-1.0, 0.5), (2.0, 0.5), SQUARE)
    assert ts == [pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0)]


def clip_meters(p0, p1, polygon):
    """Meters of the edge p0->p1 per tract when split attribution clips it
    to one polygon ("P"); pieces outside it go to OUTSIDE_ZONE."""
    length = math.dist(p0, p1)
    graph = Graph({"a": p0, "b": p1}, [Edge("a", "b", length, 10.0)])
    edge_map = build_edge_tract_map(graph, TractSet([Tract("P", polygon, {})]), mode="split")
    return dict(edge_map.for_edge(graph.edges[0]))


def test_clip_fully_inside():
    assert clip_meters((0.2, 0.5), (0.8, 0.5), SQUARE) == {"P": pytest.approx(0.6)}


def test_clip_fully_outside():
    assert clip_meters((2.0, 0.5), (3.0, 0.5), SQUARE) == {OUTSIDE_ZONE: 1.0}


def test_clip_enters_and_leaves():
    parts = clip_meters((-1.0, 0.5), (2.0, 0.5), SQUARE)
    assert math.isclose(parts["P"], 1.0, abs_tol=1e-12)
    assert math.isclose(parts[OUTSIDE_ZONE], 2.0, abs_tol=1e-12)


def test_clip_40_60_split():
    # polygon covers x in [0, 400]; a 1000 m segment leaves 40% inside
    band = ((0.0, -10.0), (400.0, -10.0), (400.0, 10.0), (0.0, 10.0))
    parts = clip_meters((0.0, 0.0), (1000.0, 0.0), band)
    assert parts == {"P": pytest.approx(400.0), OUTSIDE_ZONE: pytest.approx(600.0)}


def test_clip_concave_two_pieces():
    # horizontal line at y=1.5 crosses only the left arm of the L
    parts = clip_meters((-1.0, 1.5), (3.0, 1.5), L_SHAPE)
    assert math.isclose(parts["P"], 1.0, abs_tol=1e-12)
    assert math.isclose(parts[OUTSIDE_ZONE], 3.0, abs_tol=1e-12)


def test_clip_along_edge_is_detected():
    # segment riding the bottom edge of the square
    assert clip_meters((0.0, 0.0), (1.0, 0.0), SQUARE) == {"P": pytest.approx(1.0)}


def test_polyline_intersects_polygon():
    assert polyline_intersects_polygon(((-1.0, 0.5), (2.0, 0.5)), SQUARE)
    assert polyline_intersects_polygon(((0.4, 0.4), (0.6, 0.6)), SQUARE)
    assert not polyline_intersects_polygon(((-1.0, 2.0), (2.0, 2.5)), SQUARE)
    # touching a corner counts
    assert polyline_intersects_polygon(((1.0, 1.0), (2.0, 2.0)), SQUARE)


def test_bounding_box_and_overlap():
    assert bounding_box(L_SHAPE) == (0.0, 0.0, 2.0, 2.0)
    assert boxes_overlap((0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0))
    assert not boxes_overlap((0.0, 0.0, 1.0, 1.0), (1.1, 0.0, 2.0, 1.0))


# Rings are normalized once where they enter the program (TractSet, the
# GeoJSON reader), and the functions above take theirs as given. A ring that
# kept its closing vertex adds one zero-length edge; these tests show that
# edge changes no containment, area or set of breakpoints.
EQUIVALENCE_RINGS = [
    SQUARE,
    L_SHAPE,
    tuple(reversed(L_SHAPE)),
    ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)),
    tuple((2.0 * math.cos(a), 2.0 * math.sin(a))
          for a in np.linspace(0, 2 * math.pi, 7)[:-1]),
    ((1000.0, 500.0), (1500.0, 500.0), (1500.0, 1000.0), (1000.0, 1000.0)),
]


def probe_points(ring):
    """A grid in eighths of the extent over a padded box (it lands on every
    edge and vertex of the axis-aligned rings), plus each vertex and edge
    midpoint."""
    x0, y0, x1, y1 = bounding_box(ring)
    step = max(x1 - x0, y1 - y0) / 8.0
    grid = [(x0 + i * step, y0 + j * step) for i in range(-2, 11) for j in range(-2, 11)]
    mids = [((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            for a, b in zip(ring, ring[1:] + ring[:1])]
    return grid + list(ring) + mids


@pytest.mark.parametrize("ring", EQUIVALENCE_RINGS)
def test_closed_and_open_rings_agree(ring):
    closed = ring + (ring[0],)
    assert polygon_area(closed).hex() == polygon_area(ring).hex()
    points = probe_points(ring)
    for p in points:
        assert point_in_polygon(p, closed) == point_in_polygon(p, ring)
    rng = np.random.default_rng(11)
    segments = [(points[i], points[j]) for i, j in rng.integers(0, len(points), (300, 2))]
    segments += list(zip(ring, ring[1:] + ring[:1]))  # collinear with an edge
    for a, b in segments:
        assert (set(segment_polygon_breakpoints(a, b, closed))
                == set(segment_polygon_breakpoints(a, b, ring)))
