"""Tract geometries, attribute tables, and analysis-ready design matrices.

Coordinates are pre-projected planar meters throughout; distances are stored
in meters and reported in kilometers at the interfaces that say so. No
reprojection or topology repair happens here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifacts import first_repeat, read_csv, read_json
from .errors import ParseError, ValidationError
from .geometry import (
    Point,
    normalize_ring,
    point_segment_distance,
    polygon_area,
    polygon_centroid,
    require_finite,
)

log = logging.getLogger(__name__)

ROAD_CLASSES = ("interstate", "us_route", "state_route")

# The zone that takes the km of street outside every tract polygon; no tract
# may have it as its id.
OUTSIDE_ZONE = "__outside__"

# The attribute column read for each demographic a TractSet checks and the
# simulation reads, unless the run config's "demographics" section renames it.
DEMOGRAPHICS = {
    "population": "population",
    "commuters": "commuters",
    "group_share": "group_share",
}


@dataclass(frozen=True)
class Tract:
    tract_id: str
    polygon: tuple[Point, ...]
    attributes: dict[str, float] = field(default_factory=dict)


def _tract_ring(tract: Tract) -> tuple[Point, ...]:
    try:
        return tuple(normalize_ring(tract.polygon))
    except ValueError as exc:
        raise ValidationError(f"tract {tract.tract_id!r}: {exc}") from None


class TractSet:
    """The tracts sorted by tract_id, with cached centroids.

    This is the one tract order: a tract's index is its id's rank, and every
    output lists tracts in it. No tract may take the id OUTSIDE_ZONE. Each tract's ring is stored normalized: open,
    with float vertices.

    Attribute columns are free-form; the demographic columns used by the
    simulation (population, commuters, group share) are looked up by the
    names given at construction, DEMOGRAPHICS by default. Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(
        self,
        tracts: Sequence[Tract],
        population_column: str = DEMOGRAPHICS["population"],
        commuters_column: str = DEMOGRAPHICS["commuters"],
        group_share_column: str = DEMOGRAPHICS["group_share"],
    ) -> None:
        if not tracts:
            raise ValidationError("tract set is empty")
        self.tracts: tuple[Tract, ...] = tuple(
            Tract(t.tract_id, _tract_ring(t), t.attributes)
            for t in sorted(tracts, key=lambda t: t.tract_id)
        )
        self.population_column = population_column
        self.commuters_column = commuters_column
        self.group_share_column = group_share_column

        seen: set[str] = set()
        for t in self.tracts:
            if t.tract_id in seen:
                raise ValidationError(f"duplicate tract_id {t.tract_id!r}")
            if t.tract_id == OUTSIDE_ZONE:
                raise ValidationError(f"tract_id {OUTSIDE_ZONE!r} is reserved for the km "
                                      "outside every tract")
            seen.add(t.tract_id)
            if polygon_area(t.polygon) <= 0.0:
                raise ValidationError(f"tract {t.tract_id!r} has zero-area polygon")
            self._check_range(t, population_column, 0.0, math.inf)
            self._check_range(t, commuters_column, 0.0, math.inf)
            self._check_range(t, group_share_column, 0.0, 1.0)

        self._index = {t.tract_id: i for i, t in enumerate(self.tracts)}
        self._centroids = np.array(
            [polygon_centroid(t.polygon) for t in self.tracts], dtype=float
        )
        # A NaN or infinite vertex makes its ring's centroid NaN, so one test
        # of the centroids finds every such vertex; huge finite ones can
        # overflow it too.
        bad = np.flatnonzero(~np.isfinite(self._centroids).all(axis=1))
        if bad.size:
            t = self.tracts[bad[0]]
            require_finite(t.polygon, f"tract {t.tract_id!r}")
            raise ValidationError(f"tract {t.tract_id!r}: centroid is not finite")

    @staticmethod
    def _check_range(t: Tract, column: str, lo: float, hi: float) -> None:
        v = t.attributes.get(column)
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return
        if not (lo <= v <= hi) or math.isinf(v):
            raise ValidationError(
                f"tract {t.tract_id!r}: {column}={v!r} outside [{lo}, {hi}]"
            )

    def __len__(self) -> int:
        return len(self.tracts)

    def __iter__(self) -> Iterator[Tract]:
        return iter(self.tracts)

    def __getitem__(self, i: int) -> Tract:
        return self.tracts[i]

    @property
    def ids(self) -> list[str]:
        return [t.tract_id for t in self.tracts]

    def index_of(self, tract_id: str) -> int:
        try:
            return self._index[tract_id]
        except KeyError:
            raise KeyError(f"unknown tract_id {tract_id!r}") from None

    def ranks(self, tract_ids: Iterable[str]) -> list[int]:
        """Each id's index, or -1 for an id not in the set."""
        get = self._index.get
        return [get(tid, -1) for tid in tract_ids]

    def __contains__(self, tract_id: str) -> bool:
        return tract_id in self._index

    @property
    def centroids(self) -> np.ndarray:
        """(n, 2) array of geometric polygon centroids, meters."""
        return self._centroids

    def attribute(self, column: str) -> np.ndarray:
        """Column values aligned to tract order; NaN where a tract lacks the column."""
        return np.array(
            [t.attributes.get(column, math.nan) for t in self.tracts], dtype=float
        )


@dataclass(frozen=True)
class TransformSpec:
    column: str
    transform: str = "identity"  # identity | log
    role: str = "predictor"  # response | predictor

    def __post_init__(self) -> None:
        if self.transform not in ("identity", "log"):
            raise ValidationError(f"unknown transform {self.transform!r}")
        if self.role not in ("response", "predictor"):
            raise ValidationError(f"unknown role {self.role!r}")

    @property
    def display_name(self) -> str:
        return f"{self.column} (log)" if self.transform == "log" else self.column


@dataclass(frozen=True)
class DesignData:
    """Complete-case response vector and design matrix with leading intercept."""

    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...]
    tract_ids: tuple[str, ...]
    response_name: str
    n_dropped: int = 0

    def __post_init__(self) -> None:
        n = self.y.shape[0]
        if self.X.shape != (n, len(self.column_names)):
            raise ValidationError("design matrix shape disagrees with column names")
        if len(self.tract_ids) != n:
            raise ValidationError("tract_ids not aligned to design rows")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise ValidationError("design contains non-finite entries")
        if n and not np.all(self.X[:, 0] == 1.0):
            raise ValidationError("first design column must be the intercept")

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class HighwayPolyline:
    label: str
    road_class: str
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.road_class not in ROAD_CLASSES:
            raise ValidationError(
                f"highway {self.label!r}: class {self.road_class!r} not in {ROAD_CLASSES}"
            )
        if len(self.points) < 2:
            raise ValidationError(f"highway {self.label!r} has < 2 vertices")

    def segments(self) -> Iterator[tuple[Point, Point]]:
        return zip(self.points, self.points[1:])


@dataclass(frozen=True)
class HighwayNetworkGeom:
    polylines: tuple[HighwayPolyline, ...]

    @property
    def labels(self) -> list[str]:
        out: list[str] = []
        for line in self.polylines:
            if line.label not in out:
                out.append(line.label)
        return out

    def segments(self) -> Iterator[tuple[Point, Point]]:
        for line in self.polylines:
            yield from line.segments()


def _points(coords, where: str) -> tuple[Point, ...]:
    """The (x, y) float vertices of a GeoJSON coordinate list."""
    try:
        points = tuple((float(x), float(y)) for x, y in coords or [])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: bad coordinate ({exc})") from None
    # json.load accepts NaN and Infinity.
    return require_finite(points, where)


def _feature_ring(feature: dict, where: str) -> tuple[Point, ...]:
    geom = feature.get("geometry") or {}
    gtype = geom.get("type")
    coords = geom.get("coordinates")
    if gtype == "Polygon":
        rings = coords or []
        if not rings:
            raise ParseError(f"{where}: Polygon has no rings")
        return _points(rings[0], where)
    if gtype == "MultiPolygon":
        # Keep the largest exterior ring; small islands do not matter at tract scale.
        best: tuple[Point, ...] | None = None
        best_area = -1.0
        for poly in coords or []:
            if not poly:
                continue
            try:
                ring = tuple(normalize_ring(poly[0]))
            except (TypeError, ValueError):
                continue
            a = polygon_area(require_finite(ring, where))
            if a > best_area:
                best, best_area = ring, a
        if best is None:
            raise ParseError(f"{where}: MultiPolygon has no usable ring")
        return best
    raise ParseError(f"{where}: unsupported geometry type {gtype!r}")


def _read_feature_collection(path: str) -> list[dict]:
    """The features of a GeoJSON FeatureCollection: objects whose properties
    and geometry are each an object or null."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError(f"{path}: not a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError(f"{path}: not a GeoJSON FeatureCollection (features is not a list)")
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ParseError(f"{path} feature {i}: not an object")
        for key in ("properties", "geometry"):
            if not isinstance(feature.get(key) or {}, dict):
                raise ParseError(f"{path} feature {i}: {key} is not an object")
    return features


def read_attribute_table(path: str) -> dict[str, dict[str, float]]:
    """Read a comma-separated attribute file keyed by tract_id.

    Empty cells become NaN (treated as missing downstream); any other
    non-numeric cell is an error naming the row and column.
    """
    rows: dict[str, dict[str, float]] = {}
    for block in read_csv(path, ("tract_id",)):
        faults = block.faults()
        tids = block.cells["tract_id"]
        if "" in tids:
            i = tids.index("")
            faults.note(i, f"{block.where(i)}: empty tract_id")
        i = first_repeat(tids, rows)
        if i is not None:
            faults.note(i, f"{block.where(i)}: duplicate tract_id {tids[i]!r}")
        names = [col for col in block.cells if col != "tract_id"]
        columns = []
        for col in names:
            cells = block.cells[col]
            if "" not in cells:
                columns.append(faults.numbers(cells, col))
                continue
            # An empty cell reads as "nan" and then as math.nan itself.
            values = faults.numbers([c or "nan" for c in cells], col)
            columns.append([v if c else math.nan for v, c in zip(values, cells)])
        faults.raise_first()
        per_row = zip(*columns) if columns else [()] * len(tids)
        rows.update(zip(tids, (dict(zip(names, values)) for values in per_row)))
    return rows


def load_tracts(
    geojson_path: str,
    attributes_path: str,
    population_column: str = DEMOGRAPHICS["population"],
    commuters_column: str = DEMOGRAPHICS["commuters"],
    group_share_column: str = DEMOGRAPHICS["group_share"],
) -> TractSet:
    """Join tract polygons with their attribute rows into a TractSet.

    Features or attribute rows that fail the join are dropped and counted in
    the log. The TractSet sorts the tracts by tract_id, so loads are
    canonical regardless of file ordering.
    """
    features = _read_feature_collection(geojson_path)
    polygons: dict[str, tuple[Point, ...]] = {}
    for i, feature in enumerate(features):
        props = feature.get("properties") or {}
        tid = props.get("tract_id")
        if tid is None:
            raise ParseError(f"{geojson_path} feature {i}: missing tract_id property")
        tid = str(tid)
        if tid in polygons:
            raise ValidationError(f"{geojson_path}: duplicate tract_id {tid!r}")
        polygons[tid] = _feature_ring(feature, f"{geojson_path} feature {tid!r}")

    attributes = read_attribute_table(attributes_path)

    matched = polygons.keys() & attributes.keys()
    geom_only = len(polygons) - len(matched)
    attr_only = len(attributes) - len(matched)
    if geom_only or attr_only:
        log.warning(
            "join dropped %d feature(s) without attributes and %d attribute "
            "row(s) without geometry",
            geom_only,
            attr_only,
        )
    if not matched:
        raise ValidationError("no tract_id matched between geometry and attributes")

    tracts = [Tract(tid, polygons[tid], attributes[tid]) for tid in matched]
    return TractSet(
        tracts,
        population_column=population_column,
        commuters_column=commuters_column,
        group_share_column=group_share_column,
    )


def load_highways(geojson_path: str) -> HighwayNetworkGeom:
    """Read labeled highway polylines from a GeoJSON FeatureCollection.

    Each feature needs `label` and `class` properties and LineString or
    MultiLineString geometry.
    """
    features = _read_feature_collection(geojson_path)
    lines: list[HighwayPolyline] = []
    for i, feature in enumerate(features):
        props = feature.get("properties") or {}
        label = props.get("label")
        road_class = props.get("class")
        if label is None or road_class is None:
            raise ParseError(
                f"{geojson_path} feature {i}: label and class properties required"
            )
        geom = feature.get("geometry") or {}
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "LineString":
            parts = [coords]
        elif gtype == "MultiLineString":
            parts = coords or []
        else:
            raise ParseError(
                f"{geojson_path} feature {i}: unsupported geometry type {gtype!r}"
            )
        for part in parts:
            pts = _points(part, f"{geojson_path} feature {i}")
            lines.append(HighwayPolyline(str(label), str(road_class), pts))
    return HighwayNetworkGeom(tuple(lines))


def build_design(tracts: TractSet, spec: Sequence[TransformSpec]) -> DesignData:
    """Apply transforms and complete-case filtering; prepend the intercept.

    A row is dropped when any used column is missing/non-finite, or is
    non-positive under a log transform.
    """
    responses = [s for s in spec if s.role == "response"]
    predictors = [s for s in spec if s.role == "predictor"]
    if len(responses) != 1:
        raise ValidationError(
            f"exactly one response column required, got {len(responses)}"
        )
    response = responses[0]

    raw: dict[str, np.ndarray] = {}
    for s in spec:
        values = tracts.attribute(s.column)
        if np.all(~np.isfinite(values)):
            raise ValidationError(f"column {s.column!r} absent from attribute table")
        raw[s.column] = values

    keep = np.ones(len(tracts), dtype=bool)
    for s in spec:
        values = raw[s.column]
        ok = np.isfinite(values)
        if s.transform == "log":
            ok &= values > 0.0
        keep &= ok

    n_dropped = int(len(tracts) - keep.sum())
    if n_dropped:
        log.info("complete-case filter dropped %d of %d rows", n_dropped, len(tracts))
    if not keep.any():
        raise ValidationError("no rows survive complete-case filtering")

    def column(s: TransformSpec) -> np.ndarray:
        v = raw[s.column][keep]
        return np.log(v) if s.transform == "log" else v

    y = column(response)
    cols = [np.ones(y.shape[0])] + [column(s) for s in predictors]
    X = np.column_stack(cols)
    names = ("intercept",) + tuple(s.display_name for s in predictors)
    tract_ids = tuple(t.tract_id for t, k in zip(tracts, keep) if k)
    return DesignData(
        y=y,
        X=X,
        column_names=names,
        tract_ids=tract_ids,
        response_name=response.display_name,
        n_dropped=n_dropped,
    )


def with_column(tracts: TractSet, column: str, values: Sequence[float]) -> TractSet:
    """A new TractSet with one attribute column added or replaced."""
    if len(values) != len(tracts):
        raise ValidationError(
            f"column {column!r}: {len(values)} values for {len(tracts)} tracts"
        )
    updated = [
        Tract(t.tract_id, t.polygon, {**t.attributes, column: float(v)})
        for t, v in zip(tracts, values)
    ]
    return TractSet(
        updated,
        population_column=tracts.population_column,
        commuters_column=tracts.commuters_column,
        group_share_column=tracts.group_share_column,
    )


def distance_to_nearest_highway(
    tracts: TractSet, highways: HighwayNetworkGeom
) -> np.ndarray:
    """Per-tract centroid-to-nearest-highway-segment distance, kilometers."""
    segments = list(highways.segments())
    if not segments:
        raise ValidationError("highway set has no segments")
    out = np.empty(len(tracts))
    for i, (cx, cy) in enumerate(tracts.centroids):
        out[i] = min(point_segment_distance((cx, cy), a, b) for a, b in segments)
    return out / 1000.0
