"""Street graph, free-flow shortest paths, and edge-to-tract attribution.

Edge travel cost is free-flow time (length / speed). Shortest paths break
ties between equal-time routes by lexicographic node-id sequence so every
aggregate downstream is reproducible.
"""

from __future__ import annotations

import csv
import heapq
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data_model import TractSet
from .errors import ConsistencyError, ValidationError
from .geometry import (
    bounding_box,
    boxes_overlap,
    point_in_polygon,
    segment_polygon_breakpoints,
)

log = logging.getLogger(__name__)

# Edges whose geometry falls outside every tract polygon attribute their
# length to this sentinel zone.
OUTSIDE_ZONE = "__outside__"

# Fallback free-flow speeds (m/s) by road class for edges without a speed.
DEFAULT_CLASS_SPEEDS: dict[str, float] = {
    "default": 13.9,
    "street": 13.9,
    "highway": 27.8,
}


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    length: float
    speed: float
    oneway: bool = False
    road_class: str = "street"

    @property
    def travel_time(self) -> float:
        return self.length / self.speed

    @property
    def key(self) -> tuple[str, str]:
        """Identity of the edge as declared, shared by both travel directions."""
        return (self.u, self.v)


class Graph:
    """Immutable routing graph; adjacency is sorted for deterministic expansion."""

    def __init__(self, nodes: Mapping[str, tuple[float, float]], edges: Iterable[Edge]):
        self.nodes: dict[str, tuple[float, float]] = {
            str(k): (float(x), float(y)) for k, (x, y) in nodes.items()
        }
        self.edges: tuple[Edge, ...] = tuple(edges)
        seen: set[tuple[str, str]] = set()
        adjacency: dict[str, list[tuple[str, Edge]]] = {k: [] for k in self.nodes}
        for e in self.edges:
            if e.length <= 0 or e.speed <= 0:
                raise ValidationError(
                    f"edge {e.u}->{e.v}: length and speed must be positive "
                    f"(got {e.length}, {e.speed})"
                )
            if e.u not in self.nodes or e.v not in self.nodes:
                raise ValidationError(f"edge {e.u}->{e.v} references a missing node")
            if e.key in seen:
                raise ValidationError(f"duplicate edge {e.u}->{e.v}")
            seen.add(e.key)
            adjacency[e.u].append((e.v, e))
            if not e.oneway:
                adjacency[e.v].append((e.u, e))
        # (neighbour, edge, travel time) sorted by neighbour then edge key;
        # each travel time is computed once, for searches that relax every
        # edge many times.
        self.timed_adjacency: dict[str, tuple[tuple[str, Edge, float], ...]] = {
            k: tuple((nbr, e, e.travel_time)
                     for nbr, e in sorted(v, key=lambda it: (it[0], it[1].key)))
            for k, v in adjacency.items()
        }
        self._node_coords: tuple[tuple[str, ...], np.ndarray] | None = None

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def node_coords(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Node ids in sorted order and their (n, 2) coordinates in that
        order; built on first use."""
        if self._node_coords is None:
            ids = tuple(self.node_ids())
            coords = np.array([self.nodes[i] for i in ids], dtype=float).reshape(-1, 2)
            self._node_coords = (ids, coords)
        return self._node_coords

    def edge_geometry(self, edge: Edge) -> tuple[tuple[float, float], tuple[float, float]]:
        return self.nodes[edge.u], self.nodes[edge.v]


@dataclass(frozen=True)
class Route:
    origin: str
    destination: str
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    total_time: float
    total_length: float


def build_graph(
    nodes_path: str,
    edges_path: str,
    class_speeds: Mapping[str, float] | None = None,
) -> Graph:
    """Read node (id,x,y) and edge (u,v,length_m,speed_ms,class,oneway) tables.

    An empty speed cell falls back to the class table, then to its "default"
    entry.
    """
    speeds = dict(DEFAULT_CLASS_SPEEDS)
    if class_speeds:
        speeds.update(class_speeds)

    nodes: dict[str, tuple[float, float]] = {}
    with open(nodes_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "x", "y"} <= set(reader.fieldnames):
            raise ValidationError(f"{nodes_path}: header must include id,x,y")
        for lineno, row in enumerate(reader, start=2):
            nid = (row["id"] or "").strip()
            if not nid:
                raise ValidationError(f"{nodes_path} line {lineno}: empty node id")
            if nid in nodes:
                raise ValidationError(f"{nodes_path} line {lineno}: duplicate node {nid!r}")
            try:
                nodes[nid] = (float(row["x"]), float(row["y"]))
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{nodes_path} line {lineno}: non-numeric coordinate"
                ) from None

    edges: list[Edge] = []
    with open(edges_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"u", "v", "length_m"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValidationError(f"{edges_path}: header must include u,v,length_m")
        for lineno, row in enumerate(reader, start=2):
            u = (row["u"] or "").strip()
            v = (row["v"] or "").strip()
            road_class = (row.get("class") or "").strip() or "default"
            try:
                length = float(row["length_m"])
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{edges_path} line {lineno}: non-numeric length"
                ) from None
            speed_cell = (row.get("speed_ms") or "").strip()
            if speed_cell:
                try:
                    speed = float(speed_cell)
                except ValueError:
                    raise ValidationError(
                        f"{edges_path} line {lineno}: non-numeric speed"
                    ) from None
            else:
                speed = speeds.get(road_class, speeds.get("default", 0.0))
                if speed <= 0:
                    raise ValidationError(
                        f"{edges_path} line {lineno}: no speed and no class "
                        f"default for {road_class!r}"
                    )
            oneway_cell = (row.get("oneway") or "").strip().lower()
            oneway = oneway_cell in ("1", "true", "yes")
            edges.append(Edge(u, v, length, speed, oneway, road_class))
    return Graph(nodes, edges)


def shortest_path(graph: Graph, origin: str, destination: str) -> Route | None:
    """Minimal free-flow-time route, or None when unreachable.

    Among equal-time routes the lexicographically smallest node sequence
    wins. Travel time accumulates left to right along the path, so totals are
    bit-identical to an in-order sum over the returned edges.
    """
    if origin not in graph.nodes:
        raise ValidationError(f"unknown origin node {origin!r}")
    if destination not in graph.nodes:
        raise ValidationError(f"unknown destination node {destination!r}")
    if origin == destination:
        return Route(origin, destination, (origin,), (), 0.0, 0.0)

    # Heap entries carry the whole node path: tuple comparison gives the
    # lexicographic tie-break. The counter keeps Edge objects out of any
    # comparison.
    counter = 0
    heap: list[tuple[float, tuple[str, ...], int, tuple[Edge, ...]]] = [
        (0.0, (origin,), counter, ())
    ]
    settled: set[str] = set()
    while heap:
        time, path, _, edges = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            total_length = 0.0
            for e in edges:
                total_length += e.length
            return Route(origin, destination, path, edges, time, total_length)
        for neighbor, edge, travel_time in graph.timed_adjacency[node]:
            if neighbor in settled:
                continue
            counter += 1
            heapq.heappush(
                heap,
                (time + travel_time, path + (neighbor,), counter, edges + (edge,)),
            )
    return None


def shortest_paths_from(
    graph: Graph, origin: str, destinations: Iterable[str]
) -> dict[str, Route | None]:
    """shortest_path from one origin to each destination, from one search.

    Lexicographically smallest shortest paths have the prefix property, so
    one tie-broken Dijkstra tree serves every destination; it stops once all
    of them are settled. Each route equals shortest_path's exactly: nodes,
    edges and bit-identical totals. When an edge time is absorbed
    (t + tt == t), the tie-break would depend on the order equal-time nodes
    settle in, so that origin falls back to one shortest_path per
    destination.
    """
    if origin not in graph.nodes:
        raise ValidationError(f"unknown origin node {origin!r}")
    targets = set(destinations)
    for d in targets:
        if d not in graph.nodes:
            raise ValidationError(f"unknown destination node {d!r}")
    tree = _search_tree(graph, origin, targets)
    if tree is None:
        return {d: shortest_path(graph, origin, d) for d in sorted(targets)}
    dist, pred, paths = tree
    routes: dict[str, Route | None] = {}
    for d in sorted(targets):
        if d not in paths:
            routes[d] = None
            continue
        edges: list[Edge] = []
        node = d
        while node != origin:
            node, edge = pred[node]
            edges.append(edge)
        edges.reverse()
        total_length = 0.0
        for e in edges:
            total_length += e.length
        routes[d] = Route(origin, d, paths[d], tuple(edges), dist[d], total_length)
    return routes


def _search_tree(
    graph: Graph, origin: str, targets: set[str]
) -> tuple[dict[str, float], dict[str, tuple[str, Edge]], dict[str, tuple[str, ...]]] | None:
    """Tie-broken Dijkstra from origin until every target is settled.

    Returns (dist, pred, paths): time, (predecessor, edge) and node path of
    each settled node; or None when an edge time was absorbed.
    """
    dist: dict[str, float] = {origin: 0.0}
    pred: dict[str, tuple[str, Edge]] = {}
    paths: dict[str, tuple[str, ...]] = {}
    heap: list[tuple[float, str]] = [(0.0, origin)]
    remaining = set(targets)
    stop = math.inf
    while heap:
        time, node = heapq.heappop(heap)
        # Nodes at the last target's time are still expanded: an absorbed
        # edge among them could change that target's tie-break.
        if time > stop:
            break
        if node in paths:
            continue
        path = paths[pred[node][0]] + (node,) if node != origin else (origin,)
        paths[node] = path
        remaining.discard(node)
        if not remaining:
            stop = time
        for neighbor, edge, travel_time in graph.timed_adjacency[node]:
            t = time + travel_time
            if t == time:
                return None
            if neighbor in paths:
                continue
            best = dist.get(neighbor)
            if best is None or t < best:
                dist[neighbor] = t
                pred[neighbor] = (node, edge)
                heapq.heappush(heap, (t, neighbor))
            elif t == best:
                # Compare whole candidate paths, v included: a bare
                # predecessor path would sort before its own extension.
                if path + (neighbor,) < paths[pred[neighbor][0]] + (neighbor,):
                    pred[neighbor] = (node, edge)
    return dist, pred, paths


class EdgeTractMap:
    """Per-edge attribution of length (meters) to tracts.

    parts[edge_key] is a tuple of (tract_id, meters) with tract ids unique
    per edge and sorted; midpoint mode always has exactly one part.
    """

    def __init__(self, parts: dict[tuple[str, str], tuple[tuple[str, float], ...]], mode: str):
        self.parts = parts
        self.mode = mode

    def for_edge(self, edge: Edge) -> tuple[tuple[str, float], ...]:
        try:
            return self.parts[edge.key]
        except KeyError:
            raise ConsistencyError(
                f"edge {edge.u}->{edge.v} missing from edge-tract map"
            ) from None


def _containing_tract(point: tuple[float, float], tracts: TractSet,
                      order: list[int], boxes: list[tuple[float, float, float, float]]) -> str:
    """First containing tract in sorted-id order; boundary points go to the
    first matching tract so shared borders resolve deterministically."""
    x, y = point
    for i in order:
        b = boxes[i]
        if not (b[0] - 1e-9 <= x <= b[2] + 1e-9 and b[1] - 1e-9 <= y <= b[3] + 1e-9):
            continue
        if point_in_polygon(point, tracts[i].polygon, include_boundary=True):
            return tracts[i].tract_id
    return OUTSIDE_ZONE


def build_edge_tract_map(graph: Graph, tracts: TractSet, mode: str = "midpoint") -> EdgeTractMap:
    """Attribute each edge's length to tracts.

    midpoint mode gives the full length to the tract containing the edge
    midpoint; split mode cuts the segment at every polygon boundary and
    assigns each piece by its own midpoint. Pieces covered by no tract go to
    the OUTSIDE_ZONE sentinel.
    """
    if mode not in ("midpoint", "split"):
        raise ValueError(f"unknown attribution mode {mode!r}")
    order = sorted(range(len(tracts)), key=lambda i: tracts[i].tract_id)
    boxes = [bounding_box(t.polygon) for t in tracts]

    parts: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    uncovered = 0
    for edge in graph.edges:
        a, b = graph.edge_geometry(edge)
        if mode == "midpoint":
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            tid = _containing_tract(mid, tracts, order, boxes)
            edge_parts = ((tid, edge.length),)
        else:
            seg_box = bounding_box([a, b])
            ts = {0.0, 1.0}
            for i in order:
                if not boxes_overlap(seg_box, boxes[i]):
                    continue
                ts.update(segment_polygon_breakpoints(a, b, tracts[i].polygon))
            cuts = sorted(ts)
            acc: dict[str, float] = {}
            for lo, hi in zip(cuts, cuts[1:]):
                if hi - lo <= 1e-12:
                    continue
                m = (lo + hi) / 2.0
                mid = (a[0] + (b[0] - a[0]) * m, a[1] + (b[1] - a[1]) * m)
                tid = _containing_tract(mid, tracts, order, boxes)
                acc[tid] = acc.get(tid, 0.0) + (hi - lo) * edge.length
            edge_parts = tuple(sorted(acc.items()))
        if any(tid == OUTSIDE_ZONE for tid, _ in edge_parts):
            uncovered += 1
        parts[edge.key] = edge_parts
    if uncovered:
        log.info("%d of %d edges extend outside all tracts", uncovered, len(graph.edges))
    return EdgeTractMap(parts, mode)


def route_tract_distances(route: Route, edge_map: EdgeTractMap) -> dict[str, float]:
    """Per-tract meters along a route, keys sorted.

    Per-tract totals use exact summation, so in midpoint mode the values sum
    back to total_length whenever the lengths themselves add without
    rounding.
    """
    contributions: dict[str, list[float]] = {}
    for edge in route.edges:
        for tid, meters in edge_map.for_edge(edge):
            contributions.setdefault(tid, []).append(meters)
    return {tid: math.fsum(vals) for tid, vals in sorted(contributions.items())}
