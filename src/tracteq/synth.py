"""Synthetic lattice scenarios with known ground truth.

Tracts are square grid cells; the street graph is the cell-corner lattice;
the response is built from per-predictor coefficient surfaces evaluated at
tract centroids plus seeded Gaussian noise. Everything downstream (design
matrices, routing, OD tables) comes from the one scenario object, so tests
can check estimates against the exact surfaces that generated them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .artifacts import fmt, write_atomic, write_csv
from .commute import ODTable
from .data_model import (
    DesignData,
    HighwayNetworkGeom,
    HighwayPolyline,
    Tract,
    TractSet,
    TransformSpec,
    build_design,
)
from .errors import ValidationError
from .network import DEFAULT_CLASS_SPEEDS, Edge, EdgeTractMap, Graph, build_edge_tract_map
from .report import tracts_to_geojson

STREET_SPEED = DEFAULT_CLASS_SPEEDS["street"]
HIGHWAY_SPEED = DEFAULT_CLASS_SPEEDS["highway"]


@dataclass(frozen=True)
class Surface:
    """A coefficient surface over the plane.

    constant: value everywhere. step: value where the chosen axis coordinate
    is below threshold, high_value at or above it. gradient: value + gx*x +
    gy*y.
    """

    family: str = "constant"
    value: float = 0.0
    high_value: float = 0.0
    axis: str = "x"
    threshold: float = 0.0
    gx: float = 0.0
    gy: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("constant", "step", "gradient"):
            raise ValueError(f"unknown surface family {self.family!r}")
        if self.axis not in ("x", "y"):
            raise ValueError(f"unknown axis {self.axis!r}")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.family == "constant":
            return np.full(pts.shape[0], self.value)
        if self.family == "step":
            coord = pts[:, 0] if self.axis == "x" else pts[:, 1]
            return np.where(coord < self.threshold, self.value, self.high_value)
        return self.value + self.gx * pts[:, 0] + self.gy * pts[:, 1]


@dataclass(frozen=True)
class ScenarioSpec:
    rows: int
    cols: int
    cell_size: float = 500.0
    surfaces: dict[str, Surface] = field(
        default_factory=lambda: {
            "intercept": Surface("constant", value=1.0),
            "x1": Surface("constant", value=2.0),
        }
    )
    noise_sigma: float = 0.0
    group_share: Surface = Surface("constant", value=0.5)
    od_pairs: int = 0
    max_count: int = 20
    seed: int = 0
    highway_row: int | None = None
    attribution_mode: str = "midpoint"

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValidationError(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        if not 0 < self.cell_size < math.inf:
            raise ValidationError(f"cell_size must be positive and finite, got {self.cell_size!r}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if "intercept" not in self.surfaces:
            raise ValidationError("surfaces must include an 'intercept' entry")
        if self.od_pairs < 0:
            raise ValidationError(f"od_pairs must be >= 0, got {self.od_pairs}")
        if self.max_count < 1:
            raise ValidationError(f"max_count must be >= 1, got {self.max_count}")
        if self.highway_row is not None and not 0 <= self.highway_row <= self.rows:
            raise ValidationError(f"highway_row {self.highway_row} outside [0, {self.rows}]")


@dataclass(frozen=True)
class Scenario:
    spec: ScenarioSpec
    tracts: TractSet
    design: DesignData
    graph: Graph
    edge_map: EdgeTractMap
    od: ODTable
    highways: HighwayNetworkGeom | None
    truth: dict[str, np.ndarray]
    group_share: np.ndarray


def tract_id(r: int, c: int) -> str:
    return f"T{r:03d}{c:03d}"


def node_id(r: int, c: int) -> str:
    return f"N{r:03d}{c:03d}"


def generate(spec: ScenarioSpec) -> Scenario:
    """Build the full scenario; one seeded generator drives all draws in a
    fixed order (predictors, population, commuters, noise, OD)."""
    rng = np.random.default_rng(spec.seed)
    s = spec.cell_size
    n = spec.rows * spec.cols

    predictor_names = [k for k in spec.surfaces if k != "intercept"]
    x_cols = {name: rng.uniform(0.5, 2.5, n) for name in predictor_names}
    population = rng.integers(500, 1501, n)
    commuters = rng.integers(100, 401, n)
    noise = rng.normal(0.0, spec.noise_sigma, n)

    cells = [(r, c) for r in range(spec.rows) for c in range(spec.cols)]
    centroids = np.array([((c + 0.5) * s, (r + 0.5) * s) for r, c in cells])

    truth = {"intercept": spec.surfaces["intercept"].evaluate(centroids)}
    y = truth["intercept"].copy()
    for name in predictor_names:
        truth[name] = spec.surfaces[name].evaluate(centroids)
        y += truth[name] * x_cols[name]
    y += noise

    share = np.clip(spec.group_share.evaluate(centroids), 0.0, 1.0)

    tracts = []
    for i, (r, c) in enumerate(cells):
        polygon = (
            (c * s, r * s),
            ((c + 1) * s, r * s),
            ((c + 1) * s, (r + 1) * s),
            (c * s, (r + 1) * s),
        )
        attrs = {
            "population": float(population[i]),
            "commuters": float(commuters[i]),
            "group_share": float(share[i]),
            "y": float(y[i]),
        }
        for name in predictor_names:
            attrs[name] = float(x_cols[name][i])
        tracts.append(Tract(tract_id(r, c), polygon, attrs))
    tract_set = TractSet(tracts)

    design = build_design(
        tract_set,
        [TransformSpec("y", "identity", "response")]
        + [TransformSpec(name, "identity", "predictor") for name in predictor_names],
    )

    nodes = {
        node_id(r, c): (c * s, r * s)
        for r in range(spec.rows + 1)
        for c in range(spec.cols + 1)
    }
    edges = []
    for r in range(spec.rows + 1):
        for c in range(spec.cols):
            on_highway = spec.highway_row is not None and r == spec.highway_row
            edges.append(
                Edge(
                    node_id(r, c),
                    node_id(r, c + 1),
                    length=s,
                    speed=HIGHWAY_SPEED if on_highway else STREET_SPEED,
                    road_class="highway" if on_highway else "street",
                )
            )
    for r in range(spec.rows):
        for c in range(spec.cols + 1):
            edges.append(
                Edge(node_id(r, c), node_id(r + 1, c), length=s, speed=STREET_SPEED)
            )
    graph = Graph(nodes, edges)
    edge_map = build_edge_tract_map(graph, tract_set, mode=spec.attribution_mode)

    highways = None
    if spec.highway_row is not None:
        hy = spec.highway_row * s
        highways = HighwayNetworkGeom(
            (
                HighwayPolyline(
                    "H1", "interstate", ((0.0, hy), (spec.cols * s, hy))
                ),
            )
        )

    od_rows = []
    for _ in range(spec.od_pairs):
        home = cells[int(rng.integers(0, n))]
        work = cells[int(rng.integers(0, n))]
        count = int(rng.integers(1, spec.max_count + 1))
        od_rows.append((tract_id(*home), tract_id(*work), count))
    od = ODTable.from_rows(od_rows, tract_set)

    return Scenario(
        spec=spec,
        tracts=tract_set,
        design=design,
        graph=graph,
        edge_map=edge_map,
        od=od,
        highways=highways,
        truth=truth,
        group_share=share,
    )


def write_scenario(scenario: Scenario, outdir: str) -> dict[str, str]:
    """Write the scenario in the standard input formats of the other
    modules, each file atomically; returns the path of each artifact by name."""
    paths: dict[str, str] = {}

    def path(name: str, ext: str) -> str:
        paths[name] = os.path.join(outdir, name + ext)
        return paths[name]

    write_atomic(path("tracts", ".geojson"), [tracts_to_geojson(scenario.tracts)])

    columns = sorted({k for t in scenario.tracts for k in t.attributes})
    write_csv(path("attributes", ".csv"), ["tract_id", *columns], (
        [tract.tract_id, *(fmt(tract.attributes[c]) for c in columns)]
        for tract in scenario.tracts
    ))

    if scenario.highways is not None:
        hw_features = [
            {
                "type": "Feature",
                "properties": {"label": line.label, "class": line.road_class},
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[x, y] for x, y in line.points],
                },
            }
            for line in scenario.highways.polylines
        ]
        write_atomic(path("highways", ".geojson"), [json.dumps(
            {"type": "FeatureCollection", "features": hw_features}, sort_keys=True
        )])

    nodes = scenario.graph.nodes
    write_csv(path("nodes", ".csv"), ["id", "x", "y"], (
        [nid, fmt(nodes[nid][0]), fmt(nodes[nid][1])] for nid in sorted(nodes)
    ))
    write_csv(path("edges", ".csv"), ["u", "v", "length_m", "speed_ms", "class", "oneway"], (
        [e.u, e.v, fmt(e.length), fmt(e.speed), e.road_class, "1" if e.oneway else "0"]
        for e in scenario.graph.edges
    ))
    write_csv(path("od", ".csv"), ["home", "work", "count"], (
        [home, work, str(count)] for home, work, count in scenario.od.rows
    ))
    return paths
