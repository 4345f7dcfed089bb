"""Shared builders and brute-force oracles used across the test modules."""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

import numpy as np

from tracteq.commute import GROUPS, TraversalTable
from tracteq.data_model import DesignData, Tract, TractSet
from tracteq.errors import ValidationError
from tracteq.geometry import (
    bounding_box,
    boxes_overlap,
    point_in_polygon,
    polyline_intersects_polygon,
    segment_polygon_breakpoints,
)
from tracteq.network import (
    OUTSIDE_ZONE,
    Edge,
    EdgeTractMap,
    Graph,
    Route,
    _EdgeParts,
    build_edge_tract_map,
)


def square_tract(tid: str, col: int, row: int, size: float = 1000.0, **attrs) -> Tract:
    x0, y0 = col * size, row * size
    polygon = ((x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size))
    return Tract(tid, polygon, {k: float(v) for k, v in attrs.items()})


def grid_tracts(rows: int, cols: int, size: float = 1000.0, attr_fn=None) -> TractSet:
    """Rows x cols lattice of unit-square tracts; attr_fn(r, c) -> dict."""
    tracts = []
    for r in range(rows):
        for c in range(cols):
            attrs = attr_fn(r, c) if attr_fn else {}
            tracts.append(square_tract(f"T{r:03d}{c:03d}", c, r, size, **attrs))
    return TractSet(tracts)


def gap_strip(ids=("A", "B")) -> tuple[TractSet, Graph, EdgeTractMap]:
    """Two 1 km square tracts 1 km apart, with group shares 0.5 and 0.25,
    a node at each centroid and a 2 km street between them: with split
    attribution the street leaves 500 m in each tract and 1 km in
    OUTSIDE_ZONE."""
    ts = TractSet([square_tract(ids[0], 0, 0, population=100.0, group_share=0.5),
                   square_tract(ids[1], 2, 0, population=300.0, group_share=0.25)])
    g = Graph({"a": (500.0, 500.0), "b": (2500.0, 500.0)}, [Edge("a", "b", 2000.0, 10.0)])
    return ts, g, build_edge_tract_map(g, ts, mode="split")


def design_from_arrays(y, X, ids=None, names=None) -> DesignData:
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    return DesignData(
        y=y,
        X=X,
        column_names=tuple(names) if names else ("intercept",) + tuple(f"x{i}" for i in range(1, p)),
        tract_ids=tuple(ids) if ids else tuple(f"T{i:04d}" for i in range(n)),
        response_name="y",
    )


def gaussian_kernel(sq_distances, bandwidth) -> np.ndarray:
    """Gaussian kernel weights exp(-(d / bandwidth)^2 / 2) from the squared
    distances d*d, as one multiply by -0.5 / bandwidth^2 and one exp: the
    bits gwr._kernel must give."""
    return np.exp(sq_distances * (-0.5 / (bandwidth * bandwidth)))


def normal_equations_beta(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(X.T @ X, X.T @ y)


def criterion1_designs(seed: int = 101, count: int = 100):
    """(X, y) pairs drawn exactly as acceptance criterion 1 draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(1, 7))
        X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k)])
        beta = rng.normal(scale=2.0, size=k + 1)
        y = X @ beta + rng.normal(scale=0.5, size=n)
        yield X, y


def hc1_by_hand(X: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Element-by-element sandwich evaluation with explicit Python loops."""
    n, p = X.shape
    xtx = [[sum(X[i][a] * X[i][b] for i in range(n)) for b in range(p)] for a in range(p)]
    meat = [
        [sum(X[i][a] * e[i] * e[i] * X[i][b] for i in range(n)) for b in range(p)]
        for a in range(p)
    ]
    bread = np.linalg.inv(np.array(xtx))
    return (n / (n - p)) * bread @ np.array(meat) @ bread


def enumerate_best_path(graph: Graph, origin: str, destination: str):
    """Exhaustive simple-path minimum by (time, node sequence).

    Times accumulate left to right exactly like the router, so equal routes
    compare bit-identically. The adjacency is built here from graph.edges,
    in (neighbour, edge key) order, not read from the graph's own.
    """
    adjacency: dict[str, list[tuple[str, Edge]]] = {nid: [] for nid in graph.nodes}
    for e in graph.edges:
        adjacency[e.u].append((e.v, e))
        if not e.oneway:
            adjacency[e.v].append((e.u, e))
    for out in adjacency.values():
        out.sort(key=lambda it: (it[0], it[1].key))
    best = None
    stack = [(0.0, (origin,), ())]
    while stack:
        time, path, edges = stack.pop()
        node = path[-1]
        if node == destination:
            key = (time, path)
            if best is None or key < (best[0], best[1]):
                best = (time, path, edges)
            continue
        for neighbor, edge in adjacency[node]:
            if neighbor in path:
                continue
            stack.append((time + edge.travel_time, path + (neighbor,), edges + (edge,)))
    return best


def path_carrying_shortest_path(graph: Graph, origin: str, destination: str) -> Route | None:
    """network.shortest_path by a search that carries each candidate's whole
    path: the oracle the routing tree is checked against.

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

    # Heap entries carry the whole path of ranks: tuple comparison gives the
    # lexicographic tie-break. The counter keeps Edge objects out of any
    # comparison.
    adjacency = graph.rank_adjacency
    target = graph.rank[destination]
    counter = 0
    heap: list[tuple[float, tuple[int, ...], int, tuple[Edge, ...]]] = [
        (0.0, (graph.rank[origin],), counter, ())
    ]
    settled: set[int] = set()
    while heap:
        time, path, _, edges = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            total_length = 0.0
            for e in edges:
                total_length += e.length
            nodes = tuple(graph._ids[r] for r in path)
            return Route(origin, destination, nodes, edges, time, total_length)
        for neighbor, edge, travel_time in adjacency[node]:
            if neighbor in settled:
                continue
            counter += 1
            heapq.heappush(
                heap,
                (time + travel_time, path + (neighbor,), counter, edges + (graph.edges[edge],)),
            )
    return None


def tract_distances_from(
    graph: Graph, origin: str, destinations: Iterable[str], edge_map: EdgeTractMap
) -> dict[str, dict[str, float] | None]:
    """route_tract_distances of shortest_path from one origin to each
    destination (None when unreachable), keyed by the sorted distinct
    destinations, from the routing tree and per-zone meters that
    commute.simulate reads (network._EdgeParts.route_meters)."""
    if origin not in graph.nodes:
        raise ValidationError(f"unknown origin node {origin!r}")
    targets = sorted(set(destinations))
    for d in targets:
        if d not in graph.nodes:
            raise ValidationError(f"unknown destination node {d!r}")
    parts = _EdgeParts(graph, edge_map)
    out: dict[str, dict[str, float] | None] = {}
    homes = [(graph.rank[origin], [graph.rank[d] for d in targets])]
    for first, reachable, pair, zone, meters in parts.route_meters(homes):
        for i, ok in enumerate(reachable.tolist(), first):
            out[targets[i]] = {} if ok else None
        for p, z, m in zip(pair.tolist(), zone.tolist(), meters.tolist()):
            out[targets[first + p]][parts.zones[z]] = m
    return out


def random_graph(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.45) -> Graph:
    """Random coordinates and edges; lengths and speeds take two values each,
    as in tie_heavy_graph, so that many routes tie exactly. Each length and
    speed is picked by one uniform draw."""
    nodes = {}
    for i in range(n_nodes):
        nodes[f"n{i:02d}"] = (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
    ids = sorted(nodes)
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.append(
                    Edge(
                        ids[i],
                        ids[j],
                        length=(100.0, 200.0)[int(rng.uniform(0, 2))],
                        speed=(10.0, 20.0)[int(rng.uniform(0, 2))],
                        oneway=bool(rng.random() < 0.2),
                    )
                )
    return Graph(nodes, edges)


def nearest_node_brute(graph: Graph, point) -> str | None:
    """Full scan in sorted-id order; the first node at the smallest squared
    distance wins, so ties go to the smallest id. None for an empty graph."""
    best_id = None
    best_d = float("inf")
    for nid in sorted(graph.nodes):
        x, y = graph.nodes[nid]
        d = (x - point[0]) ** 2 + (y - point[1]) ** 2
        if d < best_d:
            best_d = d
            best_id = nid
    return best_id


def tie_heavy_graph(rng: np.random.Generator, rows: int, cols: int) -> Graph:
    """Grid with few distinct lengths and speeds (so many routes tie exactly),
    some one-way streets, and some node pairs joined by both A->B and B->A.
    Node ids are g<row><col>, each index two digits wide, so they stay unique
    and sort in row-major order up to 100 rows and columns."""
    nodes = {f"g{r:02d}{c:02d}": (float(c), float(r)) for r in range(rows) for c in range(cols)}
    edges = []

    def add(u: str, v: str) -> None:
        edges.append(
            Edge(
                u,
                v,
                length=float(rng.choice([100.0, 200.0])),
                speed=float(rng.choice([10.0, 20.0])),
                oneway=bool(rng.random() < 0.2),
            )
        )

    for r in range(rows):
        for c in range(cols):
            here = f"g{r:02d}{c:02d}"
            for nbr in ((f"g{r:02d}{c + 1:02d}" if c + 1 < cols else None),
                        (f"g{r + 1:02d}{c:02d}" if r + 1 < rows else None)):
                if nbr is None:
                    continue
                add(here, nbr)
                if rng.random() < 0.25:
                    add(nbr, here)
    return Graph(nodes, edges)


def rank_adjacency_by_node(graph: Graph) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """Graph.rank_adjacency built one node at a time: each node's (neighbour,
    edge, edge index) entries in edge order, one per travel direction,
    sorted by neighbour id then edge key, with each travel time read off
    the edge."""
    adjacency: dict[str, list[tuple[str, Edge, int]]] = {nid: [] for nid in graph.nodes}
    for i, e in enumerate(graph.edges):
        adjacency[e.u].append((e.v, e, i))
        if not e.oneway:
            adjacency[e.v].append((e.u, e, i))
    return tuple(
        tuple((graph.rank[nbr], i, e.travel_time)
              for nbr, e, i in sorted(adjacency[nid], key=lambda it: (it[0], it[1].key)))
        for nid in sorted(graph.nodes)
    )


def absorbed_edge_inputs(big: float) -> tuple[dict, list[Edge]]:
    """Nodes and edges of a graph whose 0.5 s edges sit beside big s ones.

    Every node but "0" has a 3 * big s edge to "0", which no shortest route
    uses. From "a", the route (a, c, d) to d is 0.5 s faster than
    (a, b, e, d). From big = 2**52 = 0.5 * 2**53 on, a route at big s cannot
    add 0.5 s (t + tt == t): both routes would take big s and the tie-break
    would pick (a, b, e, d). Graph refuses the edges from a much smaller big
    on. The nodes sit on two 1 km tracts of grid_tracts(1, 2) so that the
    two routes cross different tracts; a and d sit on the tract centroids.
    """
    nodes = {
        "0": (100.0, 100.0),
        "a": (500.0, 500.0),
        "b": (500.0, 900.0),
        "c": (1900.0, 100.0),
        "d": (1500.0, 500.0),
        "e": (1000.0, 950.0),
    }
    edges = [Edge("0", nid, 3 * big, 1.0) for nid in nodes if nid != "0"]
    edges += [
        Edge("a", "b", big, 1.0),
        Edge("a", "c", big, 1.0),
        Edge("b", "e", 0.5, 1.0),
        Edge("e", "d", 0.5, 1.0),
        Edge("c", "d", 0.5, 1.0),
    ]
    return nodes, edges


def edge_identity_map(graph: Graph) -> EdgeTractMap:
    """An edge-tract map that gives each edge its own zone, "u>v", with the
    edge's full length.

    Per-zone meters of a route under this map name its edge set, and on a
    simple path from a fixed origin the edge set fixes the node sequence: two
    routes' meters are equal exactly when the routes are.
    """
    return EdgeTractMap(
        {e.key: ((f"{e.u}>{e.v}", e.length),) for e in graph.edges}
    )


def containing_tract_linear(point, tracts: TractSet, order, boxes) -> str:
    """First containing tract by a scan of every tract box in sorted-id
    order: the rule the grid-indexed edge-tract map must keep."""
    x, y = point
    for i in order:
        b = boxes[i]
        if not (b[0] - 1e-9 <= x <= b[2] + 1e-9 and b[1] - 1e-9 <= y <= b[3] + 1e-9):
            continue
        if point_in_polygon(point, tracts[i].polygon):
            return tracts[i].tract_id
    return OUTSIDE_ZONE


def build_edge_tract_map_linear(graph: Graph, tracts: TractSet, mode: str) -> EdgeTractMap:
    """build_edge_tract_map with a linear scan of all tracts for every point
    and every segment box."""
    order = sorted(range(len(tracts)), key=lambda i: tracts[i].tract_id)
    boxes = [bounding_box(t.polygon) for t in tracts]
    parts = {}
    for edge in graph.edges:
        a, b = graph.edge_geometry(edge)
        if mode == "midpoint":
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            edge_parts = ((containing_tract_linear(mid, tracts, order, boxes), edge.length),)
        else:
            seg_box = bounding_box([a, b])
            ts = {0.0, 1.0}
            for i in order:
                if boxes_overlap(seg_box, boxes[i]):
                    ts.update(segment_polygon_breakpoints(a, b, tracts[i].polygon))
            cuts = sorted(ts)
            acc = {}
            for lo, hi in zip(cuts, cuts[1:]):
                if hi - lo <= 1e-12:
                    continue
                m = (lo + hi) / 2.0
                mid = (a[0] + (b[0] - a[0]) * m, a[1] + (b[1] - a[1]) * m)
                tid = containing_tract_linear(mid, tracts, order, boxes)
                acc[tid] = acc.get(tid, 0.0) + (hi - lo) * edge.length
            edge_parts = tuple(sorted(acc.items()))
        parts[edge.key] = edge_parts
    return EdgeTractMap(parts)


def corridor_subset_linear(tracts: TractSet, highways, route_label: str) -> tuple[str, ...]:
    """corridor_subset by the exact test on every tract and polyline, with no
    box prefilter."""
    lines = [line for line in highways.polylines if line.label == route_label]
    return tuple(sorted(
        t.tract_id for t in tracts
        if any(polyline_intersects_polygon(line.points, t.polygon) for line in lines)
    ))


def simulate_reference(assignment, tracts: TractSet, graph: Graph, edge_map: EdgeTractMap,
                       exclude_home: bool = False):
    """(D, C) of commute.simulate, computed pair by pair over assignment.od:
    nearest nodes by full scan, one path_carrying_shortest_path per pair,
    per-tract meters by math.fsum, and one add() per group and tract in
    sorted pair order."""
    D, C = {}, {}

    def add(table, tract, group, value):
        table.setdefault(tract, dict.fromkeys(GROUPS, 0.0))[group] += value

    for (home, work, _count), weight_row in zip(assignment.od.rows, assignment.weights):
        by_group = dict(zip(GROUPS, weight_row.tolist()))
        o = nearest_node_brute(graph, tracts.centroids[tracts.index_of(home)])
        d = nearest_node_brute(graph, tracts.centroids[tracts.index_of(work)])
        route = path_carrying_shortest_path(graph, o, d)
        if route is None:
            continue
        contributions = {}
        for edge in route.edges:
            for tid, meters in edge_map.parts[edge.key]:
                contributions.setdefault(tid, []).append(meters)
        per_tract = {tid: math.fsum(v) for tid, v in sorted(contributions.items())}
        for g in GROUPS:
            add(C, home, g, by_group[g])
        for tid in sorted(per_tract):
            if exclude_home and tid == home:
                continue
            km = per_tract[tid] / 1000.0
            for g in GROUPS:
                w = by_group[g]
                if w:
                    add(D, tid, g, w * km)
    return D, C


def traversal_table(D: dict, C: dict, groups=GROUPS) -> TraversalTable:
    """The TraversalTable of tract -> group -> value dicts: a row per tract
    of D or C, in sorted-id order, and 0.0 where a dict has no value."""
    zones = sorted(D.keys() | C.keys())

    def cells(table):
        return np.array([[table.get(z, {}).get(g, 0.0) for g in groups] for z in zones],
                        float).reshape(len(zones), len(groups))

    return TraversalTable(tuple(zones), tuple(groups), cells(D), cells(C))


def traversal_dicts(table: TraversalTable) -> tuple[dict, dict]:
    """table's D and C as zone -> group -> value dicts, a row per zone."""
    return tuple({z: dict(zip(table.groups, row)) for z, row in zip(table.zones, cells.tolist())}
                 for cells in (table.D, table.C))


def index_dict(index) -> dict:
    """An InequityTable's values as tract -> group -> index, defined tracts only."""
    return {tid: dict(zip(index.groups, row))
            for tid, row in zip(index.tract_ids, index.values.tolist())}
