"""Street graph, free-flow shortest paths, and edge-to-tract attribution.

Edge travel cost is free-flow time (length / speed). Shortest paths break
ties between equal-time routes by lexicographic node-id sequence so every
aggregate downstream is reproducible. Graph refuses an edge time that is
not finite and positive, or so small beside the summed edge time that a
route's float time could not add it (t + tt == t): times rise strictly
along every route.

Searches index nodes by rank, an id's index in sorted-id order, so ranks
compare as ids do. Every route comes from one tie-broken Dijkstra tree
(_search_tree): the tree keeps no paths, and a tie on time is broken on
demand by walking both candidates up to their common ancestor.
The tree's predecessor edges are indices into graph.edges.
shortest_path walks one destination's chain into a Route, which
`tracteq route` prints. _EdgeParts.route_meters serves many destinations
from one tree without building routes: each chain walk appends edge
indices to a flat buffer, and once it holds _FLUSH_STEPS steps, at the end
of an origin's pairs, a flush expands the edges into their (zone, meters)
parts through flat arrays aligned to graph.edges and groups them by (pair,
zone) in pair order. A group's meters are its one term as is, a + b for two
terms (the correctly rounded sum, as math.fsum gives) and math.fsum for
three or more, so they equal route_tract_distances of the pair's route;
commute.simulate adds them up. The step bound keeps the buffer's memory
independent of the number of pairs. The tests check the tree against a
search that carries each candidate's whole path.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .artifacts import first_repeat, read_csv
from .data_model import TractSet
from .errors import ConsistencyError, ValidationError
from .geometry import (
    EPS,
    bounding_box,
    boxes_overlap,
    point_in_polygon,
    require_finite,
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
    """Immutable routing graph; adjacency is sorted for deterministic expansion.

    Searches index nodes by rank, an id's index in sorted-id order, so that
    comparing two ranks gives the same answer as comparing the two ids and
    the lexicographic tie-break can compare ranks. rank_adjacency[r] holds
    the (neighbour rank, edge index into edges, travel time) of the node of
    rank r, sorted by neighbour then edge key. Each edge's travel time is
    computed once, and the lists come from one sort of a (from rank, to
    rank, edge key, edge index) record per travel direction.
    """

    def __init__(self, nodes: Mapping[str, tuple[float, float]], edges: Iterable[Edge]):
        self.nodes: dict[str, tuple[float, float]] = {
            str(k): (float(x), float(y)) for k, (x, y) in nodes.items()
        }
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._ids: tuple[str, ...] = tuple(sorted(self.nodes))
        self.rank: dict[str, int] = {nid: r for r, nid in enumerate(self._ids)}
        rank = self.rank
        seen: set[tuple[str, str]] = set()
        times: list[float] = []
        records: list[tuple[int, int, tuple[str, str], int, float]] = []
        for i, e in enumerate(self.edges):
            if not (e.length > 0 and e.speed > 0):
                raise ValidationError(
                    f"edge {e.u}->{e.v}: length and speed must be positive "
                    f"(got {e.length}, {e.speed})"
                )
            travel_time = e.length / e.speed
            if math.isnan(travel_time):
                raise ValidationError(
                    f"edge {e.u}->{e.v}: travel time is NaN "
                    f"(length {e.length} at speed {e.speed})"
                )
            if not 0.0 < travel_time < math.inf:
                raise ValidationError(
                    f"edge {e.u}->{e.v}: travel time must be finite and positive "
                    f"(got {travel_time} s, length {e.length} at speed {e.speed})"
                )
            if e.u not in rank or e.v not in rank:
                raise ValidationError(f"edge {e.u}->{e.v} references a missing node")
            key = (e.u, e.v)
            if key in seen:
                raise ValidationError(f"duplicate edge {e.u}->{e.v}")
            seen.add(key)
            times.append(travel_time)
            u, v = rank[e.u], rank[e.v]
            records.append((u, v, key, i, travel_time))
            if not e.oneway:
                records.append((v, u, key, i, travel_time))
        # Keys are unique, so no two records of different edges tie before
        # the edge index, and the travel time never decides the order.
        records.sort()
        adjacency: list[list[tuple[int, int, float]]] = [[] for _ in self._ids]
        for u, v, _, i, travel_time in records:
            adjacency[u].append((v, i, travel_time))
        self.rank_adjacency: tuple[tuple[tuple[int, int, float], ...], ...] = tuple(
            map(tuple, adjacency))
        # A route's float time stays below twice the summed edge time, and
        # t + tt == t needs t >= tt * 2**53: a sum below the smallest edge
        # time times 2**52 makes times rise strictly along every route.
        if times:
            least = min(times)
            total = sum(times)
            if total >= least * 2.0**52:
                e = self.edges[times.index(least)]
                raise ValidationError(
                    f"edge {e.u}->{e.v}: travel time {least} s is too small "
                    f"for a route to add: the summed edge time {total} s is at least 2**52 times it")
        self._node_coords: tuple[tuple[str, ...], np.ndarray] | None = None

    def node_coords(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Node ids in sorted order and their (n, 2) coordinates in that
        order; built on first use."""
        if self._node_coords is None:
            coords = np.array([self.nodes[i] for i in self._ids], dtype=float).reshape(-1, 2)
            self._node_coords = (self._ids, coords)
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
    entry; an empty class cell is the class "default". A class_speeds class
    other than "default" that no edge has is refused, since it is most
    likely a misspelling of one that some edge has.
    """
    speeds = dict(DEFAULT_CLASS_SPEEDS)
    if class_speeds:
        speeds.update(class_speeds)
    fallback = speeds.get("default", 0.0)

    nodes: dict[str, tuple[float, float]] = {}
    for block in read_csv(nodes_path, ("id", "x", "y")):
        faults = block.faults()
        ids = block.cells["id"]
        if "" in ids:
            i = ids.index("")
            faults.note(i, f"{block.where(i)}: empty node id")
        i = first_repeat(ids, nodes)
        if i is not None:
            faults.note(i, f"{block.where(i)}: duplicate node {ids[i]!r}")
        xs = faults.numbers(block.cells["x"], "x")
        ys = faults.numbers(block.cells["y"], "y")
        points = list(zip(xs, ys))
        for i, point in enumerate(points):
            try:
                require_finite((point,), block.where(i))
            except ValidationError as exc:
                faults.note(i, str(exc))
                break
        faults.raise_first()
        nodes.update(zip(ids, points))

    edges: list[Edge] = []
    for block in read_csv(edges_path, ("u", "v", "length_m")):
        faults = block.faults()
        cells = block.cells
        blank = [""] * len(block.lines)
        classes = [c or "default" for c in cells.get("class", blank)]
        lengths = faults.numbers(cells["length_m"], "length_m")
        # An empty speed cell reads as NaN here and takes its class speed below.
        given = cells.get("speed_ms", blank)
        edge_speeds = faults.numbers([s or "nan" for s in given], "speed_ms")
        if "" in given:
            for i, cell in enumerate(given[:faults.end]):
                if not cell:
                    speed = edge_speeds[i] = speeds.get(classes[i], fallback)
                    if speed <= 0:
                        faults.note(i, f"{block.where(i)}: no speed and no class "
                                       f"default for {classes[i]!r}")
                        break
        faults.raise_first()
        oneway = [c.lower() in ("1", "true", "yes") for c in cells.get("oneway", blank)]
        edges += map(Edge, cells["u"], cells["v"], lengths, edge_speeds, oneway, classes)
    unused = sorted(set(class_speeds or ()) - {"default"} - {e.road_class for e in edges})
    if unused:
        raise ValidationError(
            f"{edges_path}: no edge has the class_speeds class "
            + ", ".join(repr(c) for c in unused)
        )
    return Graph(nodes, edges)


def shortest_path(graph: Graph, origin: str, destination: str) -> Route | None:
    """Minimal free-flow-time route, or None when unreachable.

    Among equal-time routes the lexicographically smallest node sequence
    wins. The route is read off the routing tree (_search_tree) that
    simulate reads, walked back from the destination. total_time is the
    destination's tree time, which is the left-to-right sum of its edge
    times, and total_length adds the edge lengths left to right.
    """
    if origin not in graph.nodes:
        raise ValidationError(f"unknown origin node {origin!r}")
    if destination not in graph.nodes:
        raise ValidationError(f"unknown destination node {destination!r}")
    source, target = graph.rank[origin], graph.rank[destination]
    dist, pred, pred_edge, settled = _search_tree(graph, source, {target})
    if not settled[target]:
        return None
    r, nodes, edges = target, [destination], []
    while r != source:
        edges.append(graph.edges[pred_edge[r]])
        r = pred[r]
        nodes.append(graph._ids[r])
    nodes.reverse()
    edges.reverse()
    total_length = 0.0
    for e in edges:
        total_length += e.length
    return Route(origin, destination, tuple(nodes), tuple(edges), dist[target], total_length)


def _search_tree(
    graph: Graph, source: int, targets: set[int]
) -> tuple[list[float], list[int], list[int], list[bool]]:
    """Tie-broken Dijkstra over node ranks from source until every target
    is settled.

    Returns (dist, pred, pred_edge, settled), indexed by rank: time,
    predecessor rank (-1 when none), index into graph.edges of the
    predecessor edge (-1 when none), and whether the node was settled.
    Times rise strictly along every edge (see Graph), so a node settled
    after the last target reaches a settled node only at a larger time: the
    search stops as that target settles.
    """
    adjacency = graph.rank_adjacency
    n = len(adjacency)
    dist = [math.inf] * n
    pred = [-1] * n
    pred_edge = [-1] * n
    depth = [0] * n
    settled = [False] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    heappush = heapq.heappush
    heappop = heapq.heappop
    is_target = [False] * n
    for r in targets:
        is_target[r] = True
    remaining = len(targets)
    while heap:
        time, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if is_target[u]:
            remaining -= 1
        # With no target, only the origin is settled.
        if not remaining:
            break
        for v, edge, travel_time in adjacency[u]:
            if settled[v]:
                continue
            t = time + travel_time
            best = dist[v]
            if t < best:
                dist[v] = t
                heappush(heap, (t, v))
            elif t != best or pred[v] == u:
                continue
            elif not _tie_prefers(u, v, pred, depth):
                continue
            pred[v] = u
            pred_edge[v] = edge
            depth[v] = depth[u] + 1
    return dist, pred, pred_edge, settled


def _tie_prefers(u: int, v: int, pred: list[int], depth: list[int]) -> bool:
    """Whether path(u) + (v,) sorts before path(pred[v]) + (v,).

    u and p = pred[v] are settled, and so is every node on their tree paths,
    whose predecessors no longer change. Both paths agree up to the common
    ancestor of u and p, so the first difference is between the two nodes
    just below it: ranks compare as ids do. When p itself is that ancestor
    (the prefix case), u's side is compared with v. The mirror case, u an
    ancestor of p, cannot occur: times rise strictly along the tree, since
    Graph refuses an edge time that a route's time cannot add
    (t + tt == t), so every ancestor of p settled before p, while u, the
    node being expanded, settled after it.
    """
    x, y = u, pred[v]
    while depth[x] > depth[y] + 1:
        x = pred[x]
    if depth[x] > depth[y]:
        if pred[x] == y:
            return x < v
        x = pred[x]
    while depth[y] > depth[x]:
        y = pred[y]
    while pred[x] != pred[y]:
        x = pred[x]
        y = pred[y]
    return x < y


class EdgeTractMap:
    """Per-edge attribution of length (meters) to tracts.

    parts[edge_key] is a tuple of (tract_id, meters) with tract ids unique
    per edge and sorted; midpoint mode always has exactly one part.
    """

    def __init__(self, parts: dict[tuple[str, str], tuple[tuple[str, float], ...]]):
        self.parts = parts

    def for_edge(self, edge: Edge) -> tuple[tuple[str, float], ...]:
        try:
            return self.parts[edge.key]
        except KeyError:
            raise ConsistencyError(
                f"edge {edge.u}->{edge.v} missing from edge-tract map"
            ) from None


class _TractGrid:
    """Uniform grid over the tracts' bounding boxes, each padded by EPS.

    A tract's position is its TractSet index, so positions follow sorted-id
    order. Each cell lists, in that order, every tract whose padded box
    touches it. A cell index is the floor of a coordinate's offset from the
    grid corner times cells per meter, clamped to the grid; that function
    only rises with the coordinate, so the cell of a point inside a padded
    box lies within the cells the box was listed in. A point's cell list
    therefore holds every tract a sorted-id scan of all boxes would test,
    in the same order.
    """

    def __init__(self, tracts: TractSet):
        # Per position: id, polygon, box and padded box.
        self.ids = tracts.ids
        self.polygons = [t.polygon for t in tracts]
        self.boxes = [bounding_box(p) for p in self.polygons]
        self.padded = [(b[0] - EPS, b[1] - EPS, b[2] + EPS, b[3] + EPS) for b in self.boxes]
        self.side = max(1, math.isqrt(len(tracts)))
        self.x0 = min(b[0] for b in self.padded)
        self.y0 = min(b[1] for b in self.padded)
        width = max(b[2] for b in self.padded) - self.x0
        height = max(b[3] for b in self.padded) - self.y0
        # Cells per meter; a zero, infinite or NaN extent gives 0, one column
        # or row.
        self.sx = self.side / width if width > 0 else 0.0
        self.sy = self.side / height if height > 0 else 0.0
        self.cells: list[list[int]] = [[] for _ in range(self.side * self.side)]
        for pos, b in enumerate(self.padded):
            for cell in self._cells(b):
                self.cells[cell].append(pos)

    def _index(self, v: float, lo: float, scale: float) -> int:
        f = (v - lo) * scale
        if f >= self.side:
            return self.side - 1
        return int(f) if f >= 0.0 else 0  # NaN goes to 0

    def _cells(self, box: tuple[float, float, float, float]) -> list[int]:
        """Cells under a box, row-major."""
        c0 = self._index(box[0], self.x0, self.sx)
        c1 = self._index(box[2], self.x0, self.sx)
        r0 = self._index(box[1], self.y0, self.sy)
        r1 = self._index(box[3], self.y0, self.sy)
        return [r * self.side + c for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)]

    def containing(self, point: tuple[float, float]) -> str:
        """First containing tract in sorted-id order; boundary points go to
        the first matching tract so shared borders resolve deterministically."""
        x, y = point
        cell = (self._index(y, self.y0, self.sy) * self.side
                + self._index(x, self.x0, self.sx))
        padded = self.padded
        for pos in self.cells[cell]:
            b = padded[pos]
            if not (b[0] <= x <= b[2] and b[1] <= y <= b[3]):
                continue
            if point_in_polygon(point, self.polygons[pos]):
                return self.ids[pos]
        return OUTSIDE_ZONE

    def overlapping(self, box: tuple[float, float, float, float]) -> list[int]:
        """Positions, in sorted-id order, of the tracts whose box overlaps
        `box` by boxes_overlap. boxes_overlap(box, b) implies
        b[0] - EPS <= box[2] + EPS and box[0] - EPS <= b[2] + EPS (and the
        same in y), so the cells under `box` padded by EPS reach every such
        tract's cells."""
        seen: set[int] = set()
        for cell in self._cells((box[0] - EPS, box[1] - EPS, box[2] + EPS, box[3] + EPS)):
            seen.update(self.cells[cell])
        return [pos for pos in sorted(seen) if boxes_overlap(box, self.boxes[pos])]


def build_edge_tract_map(graph: Graph, tracts: TractSet, mode: str = "midpoint") -> EdgeTractMap:
    """Attribute each edge's length to tracts.

    midpoint mode gives the full length to the tract containing the edge
    midpoint; split mode cuts the segment at every polygon boundary and
    assigns each piece by its own midpoint. Pieces covered by no tract go to
    the OUTSIDE_ZONE sentinel. A point goes to the first tract in sorted-id
    order that contains it; a grid over the tract boxes (_TractGrid) picks
    the tracts to test.
    """
    if mode not in ("midpoint", "split"):
        raise ValueError(f"unknown attribution mode {mode!r}")
    grid = _TractGrid(tracts)

    parts: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    uncovered = 0
    for edge in graph.edges:
        a, b = graph.edge_geometry(edge)
        if mode == "midpoint":
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            edge_parts = ((grid.containing(mid), edge.length),)
        else:
            ts = {0.0, 1.0}
            for pos in grid.overlapping(bounding_box([a, b])):
                ts.update(segment_polygon_breakpoints(a, b, grid.polygons[pos]))
            cuts = sorted(ts)
            acc: dict[str, float] = {}
            for lo, hi in zip(cuts, cuts[1:]):
                if hi - lo <= 1e-12:
                    continue
                m = (lo + hi) / 2.0
                mid = (a[0] + (b[0] - a[0]) * m, a[1] + (b[1] - a[1]) * m)
                tid = grid.containing(mid)
                acc[tid] = acc.get(tid, 0.0) + (hi - lo) * edge.length
            edge_parts = tuple(sorted(acc.items()))
        if any(tid == OUTSIDE_ZONE for tid, _ in edge_parts):
            uncovered += 1
        parts[edge.key] = edge_parts
    if uncovered:
        log.info("%d of %d edges extend outside all tracts", uncovered, len(graph.edges))
    return EdgeTractMap(parts)


def route_tract_distances(route: Route, edge_map: EdgeTractMap) -> dict[str, float]:
    """Per-tract meters along a route, keys sorted.

    Per-tract totals use math.fsum, which is exact until its one final
    rounding, so the order of a tract's terms does not matter, and in
    midpoint mode the values sum back to total_length whenever the lengths
    themselves add without rounding. An edge missing from the map raises
    for_edge's ConsistencyError for the first such edge along the route.
    """
    terms: dict[str, list[float]] = {}
    for edge in route.edges:
        for tid, meters in edge_map.for_edge(edge):
            terms.setdefault(tid, []).append(meters)
    return {tid: math.fsum(vals) for tid, vals in sorted(terms.items())}


# A routing batch (_EdgeParts.route_meters) is flushed at the first home
# boundary at or past this many edge steps, so the steps held at a time do
# not grow with the number of pairs.
_FLUSH_STEPS = 1 << 11


class _RouteBatch(NamedTuple):
    """Per-zone meters of the pairs first, first + 1, ...: reachable[i]
    tells whether pair first + i is reachable, and group j, in pair order
    then zone order, holds the meters[j] of pair first + pair[j] in zone
    zone[j]."""

    first: int
    reachable: np.ndarray  # bool, one per pair
    pair: np.ndarray  # intp, one per (pair, zone) group
    zone: np.ndarray  # intp
    meters: np.ndarray  # float64


class _EdgeParts:
    """An EdgeTractMap's parts as flat arrays aligned to graph.edges.

    Edge i's parts are zone[start[i]:start[i + 1]], indices into zones, and
    meters[start[i]:start[i + 1]]; missing[i] marks an edge that the map
    lacks, which has no parts. zones lists first_zones, then every other
    zone of the map in sorted order.
    """

    def __init__(self, graph: Graph, edge_map: EdgeTractMap, first_zones: Iterable[str] = ()):
        self.graph = graph
        self.edge_map = edge_map
        self.zones: list[str] = list(dict.fromkeys(first_zones))
        rows = [edge_map.parts.get(e.key) for e in graph.edges]
        self.missing = [r is None for r in rows]
        self.any_missing = any(self.missing)
        rows = [r or () for r in rows]
        index = {z: k for k, z in enumerate(self.zones)}
        extra = sorted({tid for r in rows for tid, _ in r} - index.keys())
        index.update((z, k) for k, z in enumerate(extra, len(self.zones)))
        self.zones += extra
        counts = np.fromiter((len(r) for r in rows), np.intp, len(rows))
        self.start = np.zeros(len(rows) + 1, np.intp)
        np.cumsum(counts, out=self.start[1:])
        total = int(self.start[-1])
        self.zone = np.fromiter((index[tid] for r in rows for tid, _ in r), np.intp, total)
        self.meters = np.fromiter((m for r in rows for _, m in r), np.float64, total)

    def route_meters(
        self, homes: Iterable[tuple[int, list[int]]]
    ) -> Iterator[_RouteBatch]:
        """Per-zone meters of each pair's shortest_path route, in batches.

        homes yields (origin, destinations) as graph node ranks
        (graph.rank), one destination per pair, and pairs are numbered from
        0 in that order. One routing tree (_search_tree) serves each
        origin: each pair's chain is walked from its destination back to
        the origin, appending edge indices to a flat buffer, and no Route
        is built. Once the buffer holds
        _FLUSH_STEPS steps, at the end of an origin's pairs, it is flushed
        into a _RouteBatch of (pair, zone) groups. A group's meters are its
        one part as is, a + b for two parts (the correctly rounded sum,
        which math.fsum also gives) and math.fsum of three or more, so they
        equal route_tract_distances of the pair's route. An edge missing
        from the map raises for_edge's ConsistencyError for the first such
        edge along the route to the origin's first destination, in id
        order, whose route has one.
        """
        steps: list[int] = []
        ends: list[int] = []  # per pair: len(steps) after its walk
        reachable: list[bool] = []
        first = 0
        for source, targets in homes:
            _, pred, pred_edge, settled = _search_tree(self.graph, source, set(targets))
            if self.any_missing:
                self._check_routes(source, pred, pred_edge, settled, targets)
            append = steps.append
            for r in targets:
                ok = settled[r]
                if ok:
                    while r != source:
                        append(pred_edge[r])
                        r = pred[r]
                reachable.append(ok)
                ends.append(len(steps))
            if len(steps) >= _FLUSH_STEPS:
                yield self._groups(first, steps, ends, reachable)
                first += len(ends)
                steps, ends, reachable = [], [], []
        if ends:
            yield self._groups(first, steps, ends, reachable)

    def _groups(
        self, first: int, steps: list[int], ends: list[int], reachable: list[bool]
    ) -> _RouteBatch:
        """One route_meters batch from a flat buffer of edge steps."""
        edge = np.array(steps, dtype=np.intp)
        lo = self.start[edge]
        n_parts = self.start[edge + 1] - lo
        step_pair = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        pair = np.repeat(step_pair, n_parts)
        part = np.arange(len(pair)) + np.repeat(lo - (np.cumsum(n_parts) - n_parts), n_parts)
        n_zones = len(self.zones)
        key = pair * n_zones + self.zone[part]
        order = np.argsort(key, kind="stable")
        key = key[order]
        meters = self.meters[part[order]]
        head = np.flatnonzero(np.diff(key, prepend=-1))
        count = np.diff(head, append=len(key))
        out = meters[head]
        two = np.flatnonzero(count == 2)
        out[two] += meters[head[two] + 1]
        for g in np.flatnonzero(count > 2).tolist():
            h = head[g]
            out[g] = math.fsum(meters[h:h + count[g]].tolist())
        key = key[head]
        return _RouteBatch(first, np.array(reachable, dtype=bool), key // n_zones,
                           key % n_zones, out)

    def _check_routes(self, source, pred, pred_edge, settled, targets) -> None:
        """Raise for the first missing edge along the route to the first
        reachable target, in rank order, whose route has one."""
        missing = self.missing
        for r in sorted(set(targets)):
            if not settled[r]:
                continue
            bad = -1
            while r != source:
                if missing[pred_edge[r]]:
                    bad = pred_edge[r]  # the last one seen is the first along the route
                r = pred[r]
            if bad >= 0:
                self.edge_map.for_edge(self.graph.edges[bad])  # raises ConsistencyError
