import filecmp
import hashlib
import math

import numpy as np
import pytest

from tracteq import synth
from tracteq.cli import main
from tracteq.commute import load_od
from tracteq.data_model import load_highways, load_tracts
from tracteq.errors import ValidationError
from tracteq.network import build_graph
from tracteq.ols import fit_ols
from tracteq.synth import (
    HIGHWAY_SPEED,
    STREET_SPEED,
    ScenarioSpec,
    Surface,
    generate,
    write_scenario,
)


def test_surface_families():
    pts = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 2000.0]])
    assert np.array_equal(Surface("constant", value=2.0).evaluate(pts), [2.0, 2.0, 2.0])
    step = Surface("step", value=1.0, high_value=3.0, axis="x", threshold=500.0)
    assert np.array_equal(step.evaluate(pts), [1.0, 3.0, 1.0])
    grad = Surface("gradient", value=1.0, gx=0.001, gy=0.0005)
    assert np.allclose(grad.evaluate(pts), [1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        Surface("ridge")
    with pytest.raises(ValueError):
        Surface("step", axis="z")


def test_spec_validation():
    with pytest.raises(ValidationError, match="2x2"):
        ScenarioSpec(rows=1, cols=5)
    with pytest.raises(ValidationError, match="noise_sigma"):
        ScenarioSpec(rows=2, cols=2, noise_sigma=-0.1)
    with pytest.raises(ValidationError, match="intercept"):
        ScenarioSpec(rows=2, cols=2, surfaces={"x1": Surface("constant", value=1.0)})
    with pytest.raises(ValidationError, match="highway_row"):
        ScenarioSpec(rows=2, cols=2, highway_row=3)


@pytest.mark.parametrize("field,value", [
    ("od_pairs", -2), ("max_count", 0), ("cell_size", 0.0), ("cell_size", -1.0),
    ("cell_size", math.inf), ("cell_size", math.nan), ("noise_sigma", math.inf),
    ("noise_sigma", math.nan),
])
def test_spec_refuses_a_count_or_size_out_of_range(field, value):
    with pytest.raises(ValidationError, match=rf"{field} must be .*, got {value!r}"):
        ScenarioSpec(rows=2, cols=2, **{field: value})


def test_noiseless_response_is_exact_surface_combination():
    spec = ScenarioSpec(
        rows=3, cols=4, cell_size=250.0,
        surfaces={
            "intercept": Surface("constant", value=0.75),
            "x1": Surface("step", value=1.0, high_value=2.0, axis="x", threshold=500.0),
        },
        noise_sigma=0.0, seed=5,
    )
    sc = generate(spec)
    x1 = sc.tracts.attribute("x1")
    want = 0.75 + sc.truth["x1"] * x1
    assert np.allclose(sc.tracts.attribute("y"), want, atol=1e-12)


def test_truth_evaluated_at_centroids():
    spec = ScenarioSpec(
        rows=2, cols=4, cell_size=500.0,
        surfaces={
            "intercept": Surface("constant", value=0.0),
            "x1": Surface("step", value=1.0, high_value=3.0, axis="x", threshold=1000.0),
        },
    )
    sc = generate(spec)
    # centroids at x = 250, 750, 1250, 1750 per row
    assert sc.truth["x1"].tolist() == [1.0, 1.0, 3.0, 3.0] * 2
    assert np.array_equal(sc.tracts.centroids[0], [250.0, 250.0])


def test_constant_truth_recovered_by_ols():
    spec = ScenarioSpec(
        rows=4, cols=4,
        surfaces={
            "intercept": Surface("constant", value=1.5),
            "x1": Surface("constant", value=-0.75),
        },
        noise_sigma=0.0, seed=3,
    )
    sc = generate(spec)
    fit = fit_ols(sc.design)
    assert np.allclose(fit.coefficients, [1.5, -0.75], atol=1e-10)


def test_same_seed_same_scenario_different_seed_differs():
    spec = ScenarioSpec(rows=3, cols=3, noise_sigma=0.2, od_pairs=10, seed=21)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.design.y, b.design.y)
    assert a.od.rows == b.od.rows
    c = generate(ScenarioSpec(rows=3, cols=3, noise_sigma=0.2, od_pairs=10, seed=22))
    assert not np.array_equal(a.design.y, c.design.y)


def test_lattice_graph_shape():
    spec = ScenarioSpec(rows=3, cols=4, highway_row=2)
    sc = generate(spec)
    assert len(sc.graph.nodes) == 4 * 5
    # horizontal edges: (rows+1)*cols; vertical: rows*(cols+1)
    assert len(sc.graph.edges) == 4 * 4 + 3 * 5
    highway_edges = [e for e in sc.graph.edges if e.road_class == "highway"]
    assert len(highway_edges) == 4
    assert all(e.speed == HIGHWAY_SPEED for e in highway_edges)
    street_edges = [e for e in sc.graph.edges if e.road_class == "street"]
    assert all(e.speed == STREET_SPEED for e in street_edges)
    assert sc.highways is not None
    assert sc.highways.labels == ["H1"]


def test_no_highway_row_means_no_highways():
    sc = generate(ScenarioSpec(rows=2, cols=2))
    assert sc.highways is None
    assert all(e.road_class == "street" for e in sc.graph.edges)


def test_group_share_clipped_to_unit_interval():
    spec = ScenarioSpec(
        rows=2, cols=6, cell_size=1000.0,
        group_share=Surface("gradient", value=-0.5, gx=0.0005),
    )
    sc = generate(spec)
    assert np.all(sc.group_share >= 0.0)
    assert np.all(sc.group_share <= 1.0)
    assert sc.group_share[0] == 0.0  # clipped from below at the west edge


def test_write_scenario_round_trips_through_loaders(tmp_path):
    spec = ScenarioSpec(
        rows=3, cols=3, noise_sigma=0.1, od_pairs=12, seed=9, highway_row=1,
    )
    sc = generate(spec)
    paths = write_scenario(sc, str(tmp_path / "scn"))
    ts = load_tracts(paths["tracts"], paths["attributes"])
    assert ts.ids == list(sc.tracts.ids)
    assert [t.polygon for t in ts] == [t.polygon for t in sc.tracts]
    assert np.allclose(ts.attribute("y"), sc.tracts.attribute("y"))
    assert np.array_equal(ts.centroids, sc.tracts.centroids)
    g = build_graph(paths["nodes"], paths["edges"])
    assert sorted(g.nodes) == sorted(sc.graph.nodes)
    assert len(g.edges) == len(sc.graph.edges)
    assert {e.key for e in g.edges} == {e.key for e in sc.graph.edges}
    od = load_od(paths["od"], ts)
    assert od.rows == sc.od.rows
    hw = load_highways(paths["highways"])
    assert hw.labels == ["H1"]


def test_write_scenario_failure_keeps_previous_files(tmp_path, monkeypatch):
    out, fresh = tmp_path / "scn", tmp_path / "fresh"
    first = generate(ScenarioSpec(rows=6, cols=6, od_pairs=40, highway_row=3, seed=1))
    second = generate(ScenarioSpec(rows=6, cols=6, od_pairs=40, highway_row=3, seed=2))
    write_scenario(first, str(out))
    write_scenario(second, str(fresh))
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    new = {p.name: p.read_bytes() for p in fresh.iterdir()}
    calls = []
    real_fmt = synth.fmt

    def failing_fmt(value):
        # attributes.csv formats 36 tracts x 5 columns; the 50th call falls
        # inside it, after tracts.geojson is written.
        calls.append(value)
        if len(calls) == 50:
            raise RuntimeError("injected failure")
        return real_fmt(value)

    monkeypatch.setattr(synth, "fmt", failing_fmt)
    with pytest.raises(RuntimeError, match="injected"):
        write_scenario(second, str(out))
    now = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(now) == sorted(old)  # no temporary file left behind
    assert old["attributes.csv"] != new["attributes.csv"]
    for name, data in now.items():
        assert data == (new if name == "tracts.geojson" else old)[name], name


# sha256 of each file `tracteq synth` writes for the 6x6 scenario below, the
# same command line the benchmark uses at its own sizes. A change to any of
# these bytes changes the benchmark's inputs.
SYNTH_6X6_SHA256 = {
    "attributes.csv": "5ca39b7729df3444b4289a2958edc73ed9a98d6ca43c33985968bcd8495a0473",
    "config.json": "1050d6343e09b7f0fc22ef513808fe93f496caa93cfcc0de0dfe19f62bcb9c4a",
    "edges.csv": "87f78424cf0edda7baea950ef360df383f9009b02ffeb22f06a555939ea14326",
    "highways.geojson": "c1f7f82c98412d2395e2b8033e13dcccd840d119a9ebba1ea4cdcee40a68400b",
    "nodes.csv": "fb78af17f4dd9b0c67171d287990bea65a09121416c86d347db3f557f1b9536c",
    "od.csv": "66d03f964882f5feba86892aed4a3e9c28a41ba73c985d8fe800cb4e77c7e92e",
    "tracts.geojson": "5c5a44183bc46ebd122e0aa6e58ff83ddaf7102b6237522f3f19efa39488d900",
}


def test_synth_files_pinned(tmp_path):
    out = tmp_path / "scn"
    rc = main(["synth", "--out", str(out), "--rows", "6", "--cols", "6", "--step",
               "--group-gradient", "--highway-row", "3", "--od-pairs", "40",
               "--seed", "1"])
    assert rc == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == SYNTH_6X6_SHA256


def test_write_scenario_byte_identical_across_calls(tmp_path):
    spec = ScenarioSpec(rows=3, cols=3, noise_sigma=0.3, od_pairs=8, seed=2)
    p1 = write_scenario(generate(spec), str(tmp_path / "a"))
    p2 = write_scenario(generate(spec), str(tmp_path / "b"))
    for key in p1:
        assert filecmp.cmp(p1[key], p2[key], shallow=False), key


def test_od_counts_within_bounds():
    spec = ScenarioSpec(rows=3, cols=3, od_pairs=40, max_count=6, seed=13)
    sc = generate(spec)
    assert sum(c for _, _, c in sc.od.rows) > 0
    for home, work, count in sc.od.rows:
        assert 1 <= count  # merged duplicates may exceed max_count
        assert home in sc.tracts
        assert work in sc.tracts
