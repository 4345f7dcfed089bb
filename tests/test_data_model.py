import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import grid_tracts
from tracteq.data_model import (
    HighwayNetworkGeom,
    HighwayPolyline,
    Tract,
    TractSet,
    TransformSpec,
    build_design,
    distance_to_nearest_highway,
    load_highways,
    load_tracts,
    read_attribute_table,
    with_column,
)
from tracteq.equity import corridor_subset
from tracteq.errors import ParseError, ValidationError
from tracteq.network import build_edge_tract_map
from tracteq.report import svg_choropleth, tracts_to_geojson
from tracteq.synth import write_scenario

UNIT = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def write_tracts_geojson(path, ids, ring_fn=None):
    features = []
    for i, tid in enumerate(ids):
        ring = ring_fn(i) if ring_fn else [
            [i * 2.0, 0.0], [i * 2.0 + 1.0, 0.0],
            [i * 2.0 + 1.0, 1.0], [i * 2.0, 1.0], [i * 2.0, 0.0],
        ]
        features.append({
            "type": "Feature",
            "properties": {"tract_id": tid},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


def shuffled_and_sorted(tracts):
    """Two TractSets from the same tracts: one given in a shuffled order,
    one given sorted by id."""
    given = list(tracts)
    order = np.random.default_rng(5).permutation(len(given))
    assert not np.array_equal(order, np.arange(len(given)))
    shuffled = TractSet([given[i] for i in order])
    ordered = TractSet(sorted(given, key=lambda t: t.tract_id))
    return shuffled, ordered


def test_tractset_keeps_tracts_in_sorted_id_order(step_scenario):
    shuffled, ordered = shuffled_and_sorted(step_scenario.tracts)
    assert list(shuffled) == list(ordered)
    assert shuffled.ids == ordered.ids == sorted(ordered.ids)
    # A tract's index is its id's rank.
    assert [shuffled.index_of(tid) for tid in sorted(ordered.ids)] == list(range(len(ordered)))
    assert shuffled.centroids.tobytes() == ordered.centroids.tobytes()
    spec = [TransformSpec("y", role="response"), TransformSpec("x1")]
    a, b = build_design(shuffled, spec), build_design(ordered, spec)
    assert a.tract_ids == b.tract_ids
    assert a.X.tobytes() == b.X.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_outputs_list_tracts_in_sorted_id_order(step_scenario, tmp_path):
    sc = step_scenario
    shuffled, ordered = shuffled_and_sorted(sc.tracts)
    assert tracts_to_geojson(shuffled) == tracts_to_geojson(ordered)
    values = {tid: (-1.0) ** i * i / 10.0 for i, tid in enumerate(ordered.ids[::3])}
    assert svg_choropleth(shuffled, values) == svg_choropleth(ordered, values)
    attributes = []
    for name, tracts in (("shuffled", shuffled), ("ordered", ordered)):
        paths = write_scenario(replace(sc, tracts=tracts), str(tmp_path / name))
        attributes.append(Path(paths["attributes"]).read_bytes())
    assert attributes[0] == attributes[1]
    for label in sc.highways.labels:
        hits = corridor_subset(shuffled, sc.highways, label)
        assert hits and hits == corridor_subset(ordered, sc.highways, label)
    for mode in ("midpoint", "split"):
        assert (build_edge_tract_map(sc.graph, shuffled, mode).parts
                == build_edge_tract_map(sc.graph, ordered, mode).parts)


def test_tractset_rejects_duplicate_ids():
    with pytest.raises(ValidationError, match="duplicate"):
        TractSet([Tract("A", UNIT, {}), Tract("A", UNIT, {})])


def test_tractset_rejects_zero_area():
    flat = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    with pytest.raises(ValidationError):
        TractSet([Tract("A", flat, {})])


def test_tractset_rejects_share_outside_unit_interval():
    with pytest.raises(ValidationError):
        TractSet([Tract("A", UNIT, {"group_share": 1.5})])


def test_tractset_rejects_negative_population():
    with pytest.raises(ValidationError):
        TractSet([Tract("A", UNIT, {"population": -5.0})])


@pytest.mark.parametrize("column", ["population", "commuters"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_tractset_rejects_an_infinite_count(column, value):
    with pytest.raises(ValidationError, match=rf"tract 'A': {column}={value!r} outside \[0\.0, inf\]"):
        TractSet([Tract("A", UNIT, {column: value})])


def test_tractset_keeps_a_nan_count_as_missing():
    ts = TractSet([Tract("A", UNIT, {"population": math.nan, "commuters": math.nan})])
    assert math.isnan(ts.attribute("population")[0])


def test_attribute_fills_missing_with_nan():
    ts = TractSet([Tract("A", UNIT, {"v": 2.0}), Tract("B", UNIT, {})])
    vals = ts.attribute("v")
    assert vals[0] == 2.0
    assert math.isnan(vals[1])


def test_read_attribute_table_empty_cell_is_nan(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("tract_id,v\nA,1.5\nB,\n")
    rows = read_attribute_table(str(p))
    assert rows["A"]["v"] == 1.5
    assert math.isnan(rows["B"]["v"])


def test_read_attribute_table_rejects_non_numeric(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("tract_id,v\nA,1.5\nB,oops\n")
    with pytest.raises(ValidationError, match=r"line 3.*'oops'.*'v'"):
        read_attribute_table(str(p))


def test_read_attribute_table_rejects_duplicate_id(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("tract_id,v\nA,1\nA,2\n")
    with pytest.raises(ValidationError, match="duplicate"):
        read_attribute_table(str(p))


def test_read_attribute_table_requires_id_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("id,v\nA,1\n")
    with pytest.raises(ValidationError, match="tract_id"):
        read_attribute_table(str(p))


def test_load_tracts_joins_and_sorts(tmp_path):
    geo = tmp_path / "t.geojson"
    write_tracts_geojson(geo, ["B", "A", "C"])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,population\nC,10\nA,30\nB,20\n")
    ts = load_tracts(str(geo), str(attrs))
    assert ts.ids == ["A", "B", "C"]
    assert list(ts.attribute("population")) == [30.0, 20.0, 10.0]


def test_load_tracts_drops_unmatched_rows(tmp_path, caplog):
    geo = tmp_path / "t.geojson"
    write_tracts_geojson(geo, ["A", "B"])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,population\nA,10\nZ,99\n")
    with caplog.at_level("WARNING"):
        ts = load_tracts(str(geo), str(attrs))
    assert ts.ids == ["A"]
    assert "dropped" in caplog.text


def test_load_tracts_no_match_errors(tmp_path):
    geo = tmp_path / "t.geojson"
    write_tracts_geojson(geo, ["A"])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,population\nZ,1\n")
    with pytest.raises(ValidationError, match="no tract_id matched"):
        load_tracts(str(geo), str(attrs))


def test_load_tracts_missing_id_property(tmp_path):
    geo = tmp_path / "t.geojson"
    geo.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
        }],
    }))
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    with pytest.raises(ParseError, match="missing tract_id"):
        load_tracts(str(geo), str(attrs))


def test_load_tracts_multipolygon_keeps_largest_ring(tmp_path):
    geo = tmp_path / "t.geojson"
    big = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
    small = [[50, 50], [51, 50], [51, 51], [50, 51], [50, 50]]
    sliver = [[60, 60], [70, 70], [60, 60]]  # two distinct vertices: skipped
    geo.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"tract_id": "A"},
            "geometry": {"type": "MultiPolygon",
                         "coordinates": [[small], [sliver], [big]]},
        }],
    }))
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    ts = load_tracts(str(geo), str(attrs))
    assert tuple(ts.centroids[0]) == (5.0, 5.0)
    assert ts[0].polygon == ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))


def test_tractset_stores_open_float_rings():
    closed_int = ((0, 0), (2, 0), (2, 1), (0, 1), (0, 0))
    ts = TractSet([Tract("A", closed_int, {}), Tract("B", UNIT, {})])
    assert ts[0].polygon == ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
    assert all(type(v) is float for point in ts[0].polygon for v in point)
    assert ts[1].polygon == UNIT


def test_load_tracts_round_trips_tracts_to_geojson(tmp_path):
    pentagon = ((10.0, 0.0), (13.5, 0.25), (14.0, 3.0), (11.0, 4.5), (9.5, 2.0))
    tracts = TractSet([
        Tract("A", UNIT, {"population": 1.0}),
        Tract("B", tuple(reversed(pentagon)), {"population": 2.0}),
        Tract("C", ((20.0, 0.0), (21.0, 0.0), (20.5, 0.75), (20.0, 0.0)),
              {"population": 3.0}),
    ])
    geo = tmp_path / "t.geojson"
    geo.write_text(tracts_to_geojson(tracts))
    for feature in json.loads(geo.read_text())["features"]:
        ring = feature["geometry"]["coordinates"][0]
        assert ring[-1] == ring[0] and ring[-2] != ring[0]  # closed exactly once
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,population\nA,1\nB,2\nC,3\n")
    loaded = load_tracts(str(geo), str(attrs))
    assert [t.polygon for t in loaded] == [t.polygon for t in tracts]
    assert len(loaded[2].polygon) == 3
    geo2 = tmp_path / "t2.geojson"
    geo2.write_text(tracts_to_geojson(loaded))
    assert geo2.read_bytes() == geo.read_bytes()


def test_load_highways_linestring_and_multi(tmp_path):
    p = tmp_path / "h.geojson"
    p.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"label": "I-5", "class": "interstate"},
             "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}},
            {"type": "Feature", "properties": {"label": "SR-99", "class": "state_route"},
             "geometry": {"type": "MultiLineString",
                          "coordinates": [[[0, 1], [1, 1]], [[2, 1], [3, 1]]]}},
        ],
    }))
    hw = load_highways(str(p))
    assert hw.labels == ["I-5", "SR-99"]
    assert len(hw.polylines) == 3


def test_load_highways_requires_label_and_class(tmp_path):
    p = tmp_path / "h.geojson"
    p.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"label": "I-5"},
                      "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}}],
    }))
    with pytest.raises(ParseError, match="label and class"):
        load_highways(str(p))


@pytest.mark.parametrize("vertex", [[0, 0, 0], [1, "x"], 7, None])
def test_load_highways_rejects_bad_vertex(tmp_path, vertex):
    p = tmp_path / "h.geojson"
    p.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"label": "I-5", "class": "interstate"},
                      "geometry": {"type": "LineString", "coordinates": [[0, 0], vertex]}}],
    }))
    with pytest.raises(ValidationError, match=r"h\.geojson feature 0: bad coordinate"):
        load_highways(str(p))


@pytest.mark.parametrize("vertex", [[0, 0, 0], [1, "x"], 7])
def test_load_tracts_rejects_bad_polygon_vertex(tmp_path, vertex):
    geo = tmp_path / "t.geojson"
    write_tracts_geojson(geo, ["A"], lambda i: [[0, 0], [1, 0], vertex, [0, 1], [0, 0]])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    with pytest.raises(ValidationError, match=r"t\.geojson feature 'A': bad coordinate"):
        load_tracts(str(geo), str(attrs))


def test_load_tracts_multipolygon_skips_ring_with_bad_vertex(tmp_path):
    geo = tmp_path / "t.geojson"
    good = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
    bad = [[50, 50], 7, [51, 51], [50, 51], [50, 50]]
    geo.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"tract_id": "A"},
            "geometry": {"type": "MultiPolygon", "coordinates": [[bad], [good]]},
        }],
    }))
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    ts = load_tracts(str(geo), str(attrs))
    assert ts[0].polygon == ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))


# json.load reads the bare tokens NaN, Infinity and -Infinity as floats.
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_tracts_rejects_non_finite_polygon_vertex(tmp_path, token):
    geo = tmp_path / "t.geojson"
    write_tracts_geojson(geo, ["A"], lambda i: [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
    geo.write_text(geo.read_text().replace("[1, 1]", f"[1, {token}]"))
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    with pytest.raises(ValidationError,
                       match=r"t\.geojson feature 'A': non-finite coordinate"):
        load_tracts(str(geo), str(attrs))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_tracts_rejects_non_finite_multipolygon_part(tmp_path, token):
    # A malformed part is skipped, but a non-finite one is an error: its area
    # is NaN or infinite, so "keep the largest ring" has no answer.
    geo = tmp_path / "t.geojson"
    good = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
    odd = [[50, 50], [51, 50], [51, 51], [50, 51], [50, 50]]
    geo.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"tract_id": "A"},
            "geometry": {"type": "MultiPolygon", "coordinates": [[good], [odd]]},
        }],
    }).replace("[51, 51]", f"[{token}, 51]"))
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    with pytest.raises(ValidationError,
                       match=r"t\.geojson feature 'A': non-finite coordinate"):
        load_tracts(str(geo), str(attrs))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_highways_rejects_non_finite_vertex(tmp_path, token):
    p = tmp_path / "highways.geojson"
    p.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"label": "I-5", "class": "interstate"},
                      "geometry": {"type": "MultiLineString",
                                   "coordinates": [[[0, 0], [1, 0]], [[2, 0], [3, 7]]]}}],
    }).replace("[3, 7]", f"[3, {token}]"))
    with pytest.raises(ValidationError,
                       match=r"highways\.geojson feature 0: non-finite coordinate"):
        load_highways(str(p))


def test_build_design_log_transform():
    e = math.e
    ts = TractSet([
        Tract("A", UNIT, {"y": 1.0, "v": 1.0}),
        Tract("B", ((2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)), {"y": 2.0, "v": e}),
        Tract("C", ((4.0, 0.0), (5.0, 0.0), (5.0, 1.0), (4.0, 1.0)), {"y": 3.0, "v": e * e}),
    ])
    d = build_design(ts, [TransformSpec("y", "identity", "response"),
                          TransformSpec("v", "log", "predictor")])
    assert np.allclose(d.X[:, 1], [0.0, 1.0, 2.0])
    assert d.column_names == ("intercept", "v (log)")
    assert d.X[:, 0].tolist() == [1.0, 1.0, 1.0]


def test_build_design_drops_nonpositive_under_log():
    ts = TractSet([
        Tract("A", UNIT, {"y": 1.0, "v": 2.0}),
        Tract("B", ((2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)), {"y": 2.0, "v": 0.0}),
        Tract("C", ((4.0, 0.0), (5.0, 0.0), (5.0, 1.0), (4.0, 1.0)), {"y": 3.0, "v": -1.0}),
        Tract("D", ((6.0, 0.0), (7.0, 0.0), (7.0, 1.0), (6.0, 1.0)), {"y": 4.0}),
    ])
    d = build_design(ts, [TransformSpec("y", "identity", "response"),
                          TransformSpec("v", "log", "predictor")])
    assert d.tract_ids == ("A",)
    assert d.n_dropped == 3


def test_build_design_requires_one_response():
    ts = TractSet([Tract("A", UNIT, {"y": 1.0, "v": 2.0})])
    with pytest.raises(ValidationError, match="exactly one response"):
        build_design(ts, [TransformSpec("y", "identity", "predictor")])


def test_build_design_missing_column_errors():
    ts = TractSet([Tract("A", UNIT, {"y": 1.0})])
    with pytest.raises(ValidationError, match="absent"):
        build_design(ts, [TransformSpec("y", "identity", "response"),
                          TransformSpec("nope", "identity", "predictor")])


def test_build_design_all_rows_dropped_errors():
    ts = TractSet([Tract("A", UNIT, {"y": 1.0, "v": -1.0})])
    with pytest.raises(ValidationError, match="no rows survive"):
        build_design(ts, [TransformSpec("y", "identity", "response"),
                          TransformSpec("v", "log", "predictor")])


def test_transform_spec_validates():
    with pytest.raises(ValidationError):
        TransformSpec("v", "sqrt", "predictor")
    with pytest.raises(ValidationError):
        TransformSpec("v", "log", "weight")


def test_with_column_adds_and_replaces():
    ts = grid_tracts(1, 2, attr_fn=lambda r, c: {"v": 1.0})
    ts2 = with_column(ts, "w", [5.0, 6.0])
    assert list(ts2.attribute("w")) == [5.0, 6.0]
    assert list(ts2.attribute("v")) == [1.0, 1.0]
    ts3 = with_column(ts2, "v", [9.0, 9.0])
    assert list(ts3.attribute("v")) == [9.0, 9.0]
    with pytest.raises(ValidationError):
        with_column(ts, "w", [1.0])


def test_distance_to_nearest_highway_km():
    # centroid (500, 500); vertical line x=3500 spanning the centroid's y
    ts = grid_tracts(1, 1)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H", "interstate", ((3500.0, -1000.0), (3500.0, 1000.0))),
    ))
    d = distance_to_nearest_highway(ts, hw)
    assert d[0] == 3.0


def test_distance_to_nearest_highway_takes_minimum():
    ts = grid_tracts(1, 1)
    hw = HighwayNetworkGeom((
        HighwayPolyline("far", "us_route", ((9000.0, 0.0), (9000.0, 1000.0))),
        HighwayPolyline("near", "interstate", ((1500.0, -1000.0), (1500.0, 2000.0))),
    ))
    assert distance_to_nearest_highway(ts, hw)[0] == 1.0


def test_distance_on_highway_is_zero():
    ts = grid_tracts(1, 1)
    hw = HighwayNetworkGeom((
        HighwayPolyline("H", "interstate", ((0.0, 500.0), (1000.0, 500.0))),
    ))
    assert distance_to_nearest_highway(ts, hw)[0] == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tractset_rejects_a_non_finite_vertex(value):
    for vertex in range(4):
        for axis in range(2):
            ring = [list(p) for p in UNIT]
            ring[vertex][axis] = value
            with pytest.raises(ValidationError, match=r"^tract 'B': non-finite coordinate"):
                TractSet([Tract("A", UNIT), Tract("B", tuple(map(tuple, ring)))])


def test_tractset_rejects_finite_vertices_whose_centroid_overflows():
    huge = tuple((x * 1e200, y * 1e200) for x, y in UNIT)
    with pytest.raises(ValidationError, match=r"^tract 'B': centroid is not finite"):
        TractSet([Tract("A", UNIT), Tract("B", huge)])


def test_tractset_rejects_no_tracts():
    with pytest.raises(ValidationError, match="tract set is empty"):
        TractSet([])


def write_feature_collection(path, geometries):
    features = [{"type": "Feature", "properties": {"tract_id": f"T{i}"}, "geometry": geometry}
                for i, geometry in enumerate(geometries)]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


@pytest.mark.parametrize("geometry,message", [
    ({"type": "Polygon", "coordinates": []}, "Polygon has no rings"),
    # an empty part and a two-vertex sliver: neither gives a ring
    ({"type": "MultiPolygon", "coordinates": [[], [[[0, 0], [1, 1], [0, 0]]]]},
     "MultiPolygon has no usable ring"),
    ({"type": "Point", "coordinates": [0, 0]}, "unsupported geometry type 'Point'"),
])
def test_load_tracts_rejects_unusable_geometry(tmp_path, geometry, message):
    geo = tmp_path / "t.geojson"
    write_feature_collection(geo, [geometry])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nT0,1\n")
    with pytest.raises(ParseError, match=rf"t\.geojson feature 'T0': {message}"):
        load_tracts(str(geo), str(attrs))


def test_load_tracts_multipolygon_skips_an_empty_part(tmp_path):
    geo = tmp_path / "t.geojson"
    good = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
    write_feature_collection(geo, [{"type": "MultiPolygon", "coordinates": [[], [good]]}])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nT0,1\n")
    ts = load_tracts(str(geo), str(attrs))
    assert ts[0].polygon == ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))


@pytest.mark.parametrize("text,message", [
    ("{not json", r"t\.geojson: Expecting property name"),
    (json.dumps({"type": "Feature", "features": []}), "not a GeoJSON FeatureCollection"),
    (json.dumps({"type": "FeatureCollection"}), "not a GeoJSON FeatureCollection"),
])
def test_load_tracts_rejects_a_document_that_is_no_feature_collection(tmp_path, text, message):
    geo = tmp_path / "t.geojson"
    geo.write_text(text)
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    with pytest.raises(ParseError, match=message):
        load_tracts(str(geo), str(attrs))


@pytest.mark.parametrize("doc,message", [
    ([], r"\.geojson: not a GeoJSON FeatureCollection"),
    ({"type": "FeatureCollection", "features": 5},
     r"\.geojson: not a GeoJSON FeatureCollection \(features is not a list\)"),
    ({"type": "FeatureCollection", "features": [5]}, r"\.geojson feature 0: not an object"),
    ({"type": "FeatureCollection", "features": [{"type": "Feature", "properties": 5}]},
     r"\.geojson feature 0: properties is not an object"),
    ({"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": 5}]},
     r"\.geojson feature 0: geometry is not an object"),
])
@pytest.mark.parametrize("loader", ["tracts", "highways"])
def test_loaders_reject_a_malformed_document_naming_the_file(tmp_path, doc, message, loader):
    geo = tmp_path / f"{loader}.geojson"
    geo.write_text(json.dumps(doc))
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\n")
    with pytest.raises(ParseError, match=rf"{loader}{message}"):
        if loader == "tracts":
            load_tracts(str(geo), str(attrs))
        else:
            load_highways(str(geo))


def test_read_attribute_table_rejects_empty_id(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("tract_id,v\nA,1\n,2\n")
    with pytest.raises(ValidationError, match=r"a\.csv line 3: empty tract_id"):
        read_attribute_table(str(p))


def test_load_tracts_rejects_duplicate_geometry_id(tmp_path):
    geo = tmp_path / "t.geojson"
    write_tracts_geojson(geo, ["A", "B", "A"])
    attrs = tmp_path / "a.csv"
    attrs.write_text("tract_id,v\nA,1\nB,2\n")
    with pytest.raises(ValidationError, match=r"t\.geojson: duplicate tract_id 'A'"):
        load_tracts(str(geo), str(attrs))


@pytest.mark.parametrize("road_class,geometry,error,message", [
    ("footpath", {"type": "LineString", "coordinates": [[0, 0], [1, 0]]},
     ValidationError, "highway 'H': class 'footpath' not in"),
    ("interstate", {"type": "LineString", "coordinates": [[0, 0]]},
     ValidationError, "highway 'H' has < 2 vertices"),
    ("interstate", {"type": "MultiLineString", "coordinates": [[[0, 0], [1, 0]], []]},
     ValidationError, "highway 'H' has < 2 vertices"),
    ("interstate", {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 1], [0, 0]]]},
     ParseError, "feature 0: unsupported geometry type 'Polygon'"),
])
def test_load_highways_rejects_unusable_feature(tmp_path, road_class, geometry, error, message):
    p = tmp_path / "h.geojson"
    p.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"label": "H", "class": road_class},
                      "geometry": geometry}],
    }))
    with pytest.raises(error, match=message):
        load_highways(str(p))


def test_distance_to_a_highway_set_without_segments_errors():
    with pytest.raises(ValidationError, match="highway set has no segments"):
        distance_to_nearest_highway(grid_tracts(1, 1), HighwayNetworkGeom(()))
