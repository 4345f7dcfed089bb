import math

import numpy as np
import pytest

from helpers import corridor_subset_linear, gap_strip, grid_tracts, index_dict, traversal_table
from tracteq.commute import ODTable, assign_groups, read_traversal, simulate
from tracteq.data_model import HighwayNetworkGeom, HighwayPolyline
from tracteq.equity import corridor_subset, inequity_index, population_weighted_mean
from tracteq.errors import ValidationError
from tracteq.geometry import EPS
from tracteq.network import OUTSIDE_ZONE

GROUPS = ("white", "non_white")


def table(D, C):
    return traversal_table(D, C, GROUPS)


def test_index_hand_case():
    # white drives 60 of 100 km through the tract but is 30 of 100 residents
    t = table(
        {"A": {"white": 60.0, "non_white": 40.0}},
        {"A": {"white": 30.0, "non_white": 70.0}},
    )
    idx = index_dict(inequity_index(t))
    assert idx["A"]["white"] == pytest.approx(0.3)
    assert idx["A"]["non_white"] == pytest.approx(-0.3)


def test_index_zero_when_shares_match():
    t = table(
        {"A": {"white": 12.0, "non_white": 36.0}},
        {"A": {"white": 5.0, "non_white": 15.0}},
    )
    idx = index_dict(inequity_index(t))
    assert idx["A"]["white"] == pytest.approx(0.0, abs=1e-15)


def test_index_boundary_one():
    # all driving is white, no white residents
    t = table(
        {"A": {"white": 50.0, "non_white": 0.0}},
        {"A": {"white": 0.0, "non_white": 10.0}},
    )
    idx = index_dict(inequity_index(t))
    assert idx["A"]["white"] == 1.0
    assert idx["A"]["non_white"] == -1.0


def test_index_undefined_tracts_excluded():
    t = table(
        {"A": {"white": 1.0, "non_white": 1.0}, "B": {"white": 0.0, "non_white": 0.0}},
        {"A": {"white": 1.0, "non_white": 1.0}, "C": {"white": 3.0, "non_white": 3.0}},
    )
    idx = inequity_index(t)
    assert idx.tract_ids == ("A",)
    assert idx.undefined == ("B", "C")


def test_index_zero_sum_and_bounds_random(rng):
    for trial in range(50):
        n = int(rng.integers(1, 12))
        D, C = {}, {}
        for i in range(n):
            tid = f"T{i:03d}"
            D[tid] = {g: float(rng.uniform(0, 100)) for g in GROUPS}
            C[tid] = {g: float(rng.uniform(0, 50)) for g in GROUPS}
        idx = index_dict(inequity_index(table(D, C)))
        for tid, by_group in idx.items():
            assert abs(math.fsum(by_group.values())) <= 1e-12
            for v in by_group.values():
                assert -1.0 <= v <= 1.0


def test_index_scale_invariant(rng):
    D, C = {}, {}
    for i in range(6):
        tid = f"T{i}"
        D[tid] = {g: float(rng.uniform(0.1, 100)) for g in GROUPS}
        C[tid] = {g: float(rng.uniform(0.1, 50)) for g in GROUPS}
    base = index_dict(inequity_index(table(D, C)))
    for c in (0.1, 7.0, 1e6):
        scaled = index_dict(inequity_index(table(
            {t: {g: c * v for g, v in by.items()} for t, by in D.items()},
            {t: {g: c * v for g, v in by.items()} for t, by in C.items()},
        )))
        for tid in base:
            for g in GROUPS:
                assert abs(scaled[tid][g] - base[tid][g]) <= 1e-12



def test_km_outside_every_tract_is_not_an_undefined_tract():
    ts, g, em = gap_strip()
    od = ODTable.from_rows([("A", "B", 4), ("B", "A", 2)], ts)
    traversal = simulate(assign_groups(od, ts), ts, g, em)
    assert traversal.zones == ("A", "B", OUTSIDE_ZONE)
    outside = traversal.zones.index(OUTSIDE_ZONE)
    assert traversal.D[outside].sum() > 0.0 and not traversal.C[outside].any()
    idx = inequity_index(traversal)
    assert idx.tract_ids == ("A", "B")
    assert idx.undefined == ()


def test_index_takes_row_totals_by_fsum(tmp_path):
    # Left to right, 1.0 + 1e-16 + 1e-16 is 1.0; math.fsum rounds the exact
    # sum, 1.0000000000000002.
    d = [1.0, 1e-16, 1e-16]
    c = [1.0, 2.0, 3.0]
    assert math.fsum(d) != d[0] + d[1] + d[2]
    path = tmp_path / "traversal.csv"
    path.write_text("tract_id,group,D_km,C_count\n" + "".join(
        f"A,{g},{dv!r},{cv!r}\n" for g, dv, cv in zip("xyz", d, c)))
    idx = inequity_index(read_traversal(str(path)))
    assert idx.groups == ("x", "y", "z")
    want = [dv / math.fsum(d) - cv / math.fsum(c) for dv, cv in zip(d, c)]
    assert [v.hex() for v in idx.values[0].tolist()] == [v.hex() for v in want]
    assert idx.values[0, 0] != d[0] / (d[0] + d[1] + d[2]) - c[0] / math.fsum(c)


def test_weighted_mean_hand_case():
    ts = grid_tracts(1, 2, attr_fn=lambda r, c: {"population": 3.0 if c == 0 else 1.0})
    t = table(
        {"T000000": {"white": 11.0, "non_white": 9.0},
         "T000001": {"white": 9.0, "non_white": 11.0}},
        {"T000000": {"white": 1.0, "non_white": 1.0},
         "T000001": {"white": 1.0, "non_white": 1.0}},
    )
    idx = inequity_index(t)
    assert index_dict(idx)["T000000"]["white"] == pytest.approx(0.05)
    assert index_dict(idx)["T000001"]["white"] == pytest.approx(-0.05)
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
