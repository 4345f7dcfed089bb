import math

import numpy as np
import pytest

from helpers import corridor_subset_linear, grid_tracts
from tracteq.commute import TraversalTable
from tracteq.data_model import HighwayNetworkGeom, HighwayPolyline
from tracteq.equity import corridor_subset, inequity_index, population_weighted_mean
from tracteq.errors import ValidationError
from tracteq.geometry import EPS

GROUPS = ("white", "non_white")


def table(D, C):
    return TraversalTable(groups=GROUPS, D=D, C=C)


def test_index_hand_case():
    # white drives 60 of 100 km through the tract but is 30 of 100 residents
    t = table(
        {"A": {"white": 60.0, "non_white": 40.0}},
        {"A": {"white": 30.0, "non_white": 70.0}},
    )
    idx = inequity_index(t)
    assert idx.values["A"]["white"] == pytest.approx(0.3)
    assert idx.values["A"]["non_white"] == pytest.approx(-0.3)


def test_index_zero_when_shares_match():
    t = table(
        {"A": {"white": 12.0, "non_white": 36.0}},
        {"A": {"white": 5.0, "non_white": 15.0}},
    )
    idx = inequity_index(t)
    assert idx.values["A"]["white"] == pytest.approx(0.0, abs=1e-15)


def test_index_boundary_one():
    # all driving is white, no white residents
    t = table(
        {"A": {"white": 50.0, "non_white": 0.0}},
        {"A": {"white": 0.0, "non_white": 10.0}},
    )
    idx = inequity_index(t)
    assert idx.values["A"]["white"] == 1.0
    assert idx.values["A"]["non_white"] == -1.0


def test_index_undefined_tracts_excluded():
    t = table(
        {"A": {"white": 1.0, "non_white": 1.0}, "B": {"white": 0.0, "non_white": 0.0}},
        {"A": {"white": 1.0, "non_white": 1.0}, "C": {"white": 3.0, "non_white": 3.0}},
    )
    idx = inequity_index(t)
    assert idx.defined == ["A"]
    assert idx.undefined == ("B", "C")


def test_index_zero_sum_and_bounds_random(rng):
    for trial in range(50):
        n = int(rng.integers(1, 12))
        D, C = {}, {}
        for i in range(n):
            tid = f"T{i:03d}"
            D[tid] = {g: float(rng.uniform(0, 100)) for g in GROUPS}
            C[tid] = {g: float(rng.uniform(0, 50)) for g in GROUPS}
        idx = inequity_index(table(D, C))
        for tid, by_group in idx.values.items():
            assert abs(math.fsum(by_group.values())) <= 1e-12
            for v in by_group.values():
                assert -1.0 <= v <= 1.0


def test_index_scale_invariant(rng):
    D, C = {}, {}
    for i in range(6):
        tid = f"T{i}"
        D[tid] = {g: float(rng.uniform(0.1, 100)) for g in GROUPS}
        C[tid] = {g: float(rng.uniform(0.1, 50)) for g in GROUPS}
    base = inequity_index(table(D, C))
    for c in (0.1, 7.0, 1e6):
        scaled = inequity_index(table(
            {t: {g: c * v for g, v in by.items()} for t, by in D.items()},
            {t: {g: c * v for g, v in by.items()} for t, by in C.items()},
        ))
        for tid in base.values:
            for g in GROUPS:
                assert abs(scaled.values[tid][g] - base.values[tid][g]) <= 1e-12


def test_weighted_mean_hand_case():
    ts = grid_tracts(1, 2, attr_fn=lambda r, c: {"population": 3.0 if c == 0 else 1.0})
    t = table(
        {"T000000": {"white": 11.0, "non_white": 9.0},
         "T000001": {"white": 9.0, "non_white": 11.0}},
        {"T000000": {"white": 1.0, "non_white": 1.0},
         "T000001": {"white": 1.0, "non_white": 1.0}},
    )
    idx = inequity_index(t)
    assert idx.values["T000000"]["white"] == pytest.approx(0.05)
    assert idx.values["T000001"]["white"] == pytest.approx(-0.05)
    got, n_defined = population_weighted_mean(idx, ts, ["T000000", "T000001"], "white")
    assert got == pytest.approx((3 * 0.05 + 1 * -0.05) / 4)
    assert n_defined == 2


def test_weighted_mean_constant_index(rng):
    ts = grid_tracts(2, 2, attr_fn=lambda r, c: {"population": float(rng.integers(100, 900))})
    D = {tid: {"white": 30.0, "non_white": 10.0} for tid in ts.ids}
    C = {tid: {"white": 3.0, "non_white": 1.0} for tid in ts.ids}
    idx = inequity_index(table(D, C))
    got, n_defined = population_weighted_mean(idx, ts, ts.ids, "white")
    assert got == pytest.approx(0.0, abs=1e-15)
    assert n_defined == 4


def test_weighted_mean_ignores_undefined_and_validates():
    ts = grid_tracts(1, 2, attr_fn=lambda r, c: {"population": 100.0})
    t = table(
        {"T000000": {"white": 2.0, "non_white": 2.0}},
        {"T000000": {"white": 1.0, "non_white": 1.0},
         "T000001": {"white": 1.0, "non_white": 1.0}},
    )
    idx = inequity_index(t)
    got, n_defined = population_weighted_mean(idx, ts, ts.ids, "white")
    assert got == pytest.approx(0.0, abs=1e-15)
    assert n_defined == 1  # T000001 has no traversal
    with pytest.raises(ValidationError, match="unknown group"):
        population_weighted_mean(idx, ts, ts.ids, "hispanic")
    # A subset without a defined tract averages nothing.
    got, n_defined = population_weighted_mean(idx, ts, ["T000001"], "white")
    assert math.isnan(got) and n_defined == 0


def test_weighted_mean_requires_population():
    ts = grid_tracts(1, 1)
    t = table({"T000000": {"white": 1.0, "non_white": 1.0}},
              {"T000000": {"white": 1.0, "non_white": 1.0}})
    idx = inequity_index(t)
    with pytest.raises(ValidationError, match="population"):
        population_weighted_mean(idx, ts, ts.ids, "white")


def test_corridor_interior_polyline():
    ts = grid_tracts(2, 2)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H1", "interstate", ((100.0, 500.0), (900.0, 500.0))),
    ))
    assert corridor_subset(ts, hw, "H1") == ("T000000",)


def test_corridor_along_shared_edge_touches_both():
    ts = grid_tracts(2, 2)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H1", "interstate", ((0.0, 1000.0), (2000.0, 1000.0))),
    ))
    assert corridor_subset(ts, hw, "H1") == ("T000000", "T000001", "T001000", "T001001")


def test_corridor_box_prefilter_matches_exact_scan():
    rng = np.random.default_rng(5)
    ts = grid_tracts(6, 6)
    for trial in range(40):
        lines = []
        for i in range(int(rng.integers(1, 4))):
            n_points = int(rng.integers(2, 6))
            # Odd trials put vertices on the 500 m lattice, so lines run
            # along tract edges and through corners.
            points = (rng.integers(-1, 14, size=(n_points, 2)) * 500.0 if trial % 2
                      else rng.uniform(-500.0, 6500.0, size=(n_points, 2)))
            points = tuple((float(x), float(y)) for x, y in points)
            lines.append(HighwayPolyline("H1" if i % 2 == 0 else "H2", "interstate", points))
        hw = HighwayNetworkGeom(tuple(lines))
        for label in hw.labels:
            assert corridor_subset(ts, hw, label) == corridor_subset_linear(ts, hw, label), trial


def _slope_line(y0: float, slope: float, x0: float, x1: float) -> HighwayPolyline:
    return HighwayPolyline("H1", "interstate", ((x0, y0 + slope * x0), (x1, y0 + slope * x1)))


@pytest.mark.parametrize("line, hits", [
    # Through the corner the four tracts share.
    (HighwayPolyline("H1", "interstate", ((500.0, 1500.0), (1500.0, 500.0))),
     ("T000000", "T000001", "T001000", "T001001")),
    # Parallel to the south edge, within and beyond the boundary tolerance.
    (_slope_line(-EPS / 2, 0.0, 100.0, 900.0), ("T000000",)),
    (_slope_line(-3 * EPS, 0.0, 100.0, 900.0), ()),
    # Near-parallel to the south edge: its line passes within EPS of the
    # edge's west end, but the line itself stays ~0.8 um below the tract.
    (_slope_line(-EPS / 2, -0.9 * EPS, 900.0, 1000.0), ()),
    # Near-parallel and within EPS of the south edge from end to end.
    (_slope_line(-EPS / 4, -EPS / 2000.0, 100.0, 900.0), ("T000000",)),
])
def test_corridor_boundary_contacts(line, hits):
    ts = grid_tracts(2, 2)
    hw = HighwayNetworkGeom((line,))
    assert corridor_subset_linear(ts, hw, "H1") == hits
    assert corridor_subset(ts, hw, "H1") == hits


def test_corridor_unknown_label_lists_available():
    ts = grid_tracts(1, 1)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H1", "interstate", ((0.0, 0.0), (1.0, 0.0))),
    ))
    with pytest.raises(ValidationError, match="H1"):
        corridor_subset(ts, hw, "H9")


def test_corridor_excludes_nearby_tracts():
    ts = grid_tracts(1, 3)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H1", "interstate", ((100.0, 500.0), (900.0, 500.0))),
    ))
    assert corridor_subset(ts, hw, "H1") == ("T000000",)


def test_corridor_multiple_lines_same_label():
    ts = grid_tracts(1, 3)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H1", "interstate", ((100.0, 500.0), (200.0, 500.0))),
        HighwayPolyline("H1", "interstate", ((2100.0, 500.0), (2200.0, 500.0))),
        HighwayPolyline("H2", "us_route", ((1100.0, 500.0), (1200.0, 500.0))),
    ))
    assert corridor_subset(ts, hw, "H1") == ("T000000", "T000002")
    assert corridor_subset(ts, hw, "H2") == ("T000001",)
