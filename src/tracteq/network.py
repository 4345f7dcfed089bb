"""Street graph, free-flow shortest paths, and edge-to-tract attribution.

Edge travel cost is free-flow time (length / speed). Shortest paths break
ties between equal-time routes by lexicographic node-id sequence so every
aggregate downstream is reproducible. Graph refuses an edge time that is
not finite and positive, or so small beside the summed edge time that a
route's float time could not add it (t + tt == t): times rise strictly
along every route.

Searches index nodes by rank, an id's index in sorted-id order, so ranks
compare as ids do. Graph holds one arc per travel direction as flat
arrays in adjacency order, with out-arc and in-arc offsets and each
node's least in-arc time, min_in. Every route comes from one batched
label-setting search (_search_batch), which builds the trees of a batch
of origins together as flat (origin, node) cells, 26 B each: float64
time, int32 predecessor, jump pointer, predecessor edge (an index into
graph.edges) and depth, and a settled and a target flag. A batch holds
max(_BATCH_ORIGINS, _BATCH_CELLS // n) origins, so its memory depends on
neither the number of origins nor the number of pairs. Each round
settles, per origin, every frontier node v with time < m + min_in[v], m
being the origin's least unsettled time (the IN criterion of Crauser,
Mehlhorn, Meyer and Sanders, 1998). The test is strict and float
addition is monotone, so a settled time is final and no node settled in
a round is a tied predecessor of another settled in it. A settled node's
predecessor is then its in-arc from a settled node whose time plus the
arc's is its own; parallel arcs from one node resolve to the first in
adjacency order, and a tie on time is broken by walking both candidates
up to the children of their common ancestor, in lockstep over the
round's tied nodes, by skew-binary jump pointers in O(log depth) steps.
Either candidate can be the other's ancestor (the prefix case), and then
the child below the ancestor is compared with the node itself. The trees
equal those of a one-node-at-a-time Dijkstra search bit for bit; the
tests check them against that heap search (tests/helpers.py::search_tree)
and against a search that carries each candidate's whole path.

shortest_path reads a batch of one origin into a Route, which `tracteq
route` prints. EdgeTractMap.route_meters serves many destinations from
each batch without building routes: every pair's chain is walked in
numpy, in lockstep over pairs, into a flat buffer of edge indices, and
once it holds _FLUSH_STEPS steps, at a home boundary, a flush expands the
edges into their (zone, meters) parts through the map's flat arrays, which
build_edge_tract_map aligns to graph.edges once, and groups them by (pair,
zone) in pair order. A group's meters are its one term as is, a + b for
two terms (the correctly rounded sum, as math.fsum gives) and math.fsum
for three or more, so they equal route_tract_distances of the pair's
route. Those rules give the same bits in any order of a pair's steps,
groups are stable-sorted by (pair, zone), and commute.simulate adds the
groups in pair order across flushes: so neither where a flush falls nor
where a batch ends changes a result. The step bound keeps the buffer's
memory independent of the number of pairs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .artifacts import first_repeat, read_csv
from .data_model import OUTSIDE_ZONE, TractSet
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
    """Immutable routing graph; arcs are sorted for deterministic expansion.

    Searches index nodes by rank, an id's index in sorted-id order, so that
    comparing two ranks gives the same answer as comparing the two ids and
    the lexicographic tie-break can compare ranks. Each edge gives one arc
    per travel direction, held as flat arrays in adjacency order: by from
    rank, to rank, then edge key. Arc a runs from arc_from[a] to arc_to[a]
    over graph.edges[arc_edge[a]] in arc_time[a] seconds; node r's out-arcs
    are out_start[r]:out_start[r + 1]. in_arcs lists the arcs by to rank,
    in adjacency order within a node, and node r's in-arcs are
    in_arcs[in_start[r]:in_start[r + 1]]; min_in[r] is its least in-arc
    time (inf for none). Each edge's travel time is computed once.
    edge_index maps each edge key to its index into edges.
    """

    def __init__(self, nodes: Mapping[str, tuple[float, float]], edges: Iterable[Edge]):
        self.nodes: dict[str, tuple[float, float]] = {
            str(k): (float(x), float(y)) for k, (x, y) in nodes.items()
        }
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._ids: tuple[str, ...] = tuple(sorted(self.nodes))
        self.rank: dict[str, int] = {nid: r for r, nid in enumerate(self._ids)}
        rank = self.rank
        self.edge_index: dict[tuple[str, str], int] = {}
        times: list[float] = []
        us: list[int] = []
        vs: list[int] = []
        two_way: list[int] = []
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
            if key in self.edge_index:
                raise ValidationError(f"duplicate edge {e.u}->{e.v}")
            self.edge_index[key] = i
            times.append(travel_time)
            us.append(rank[e.u])
            vs.append(rank[e.v])
            if not e.oneway:
                two_way.append(i)
        # An edge key compares as the ranks of its ends, and keys are
        # unique, so one lexsort of the arcs by (from, to, rank of u, rank
        # of v) gives adjacency order without a tie.
        u, v = np.array(us, np.int32), np.array(vs, np.int32)
        edge = np.concatenate((np.arange(len(us), dtype=np.int32), np.array(two_way, np.int32)))
        frm = np.concatenate((u, v[two_way]))
        to = np.concatenate((v, u[two_way]))
        order = np.lexsort((v[edge], u[edge], to, frm))
        n = len(self._ids)
        self.arc_from: np.ndarray = frm[order]
        self.arc_to: np.ndarray = to[order]
        self.arc_edge: np.ndarray = edge[order]
        self.arc_time: np.ndarray = np.array(times, np.float64)[self.arc_edge]
        self.out_start: np.ndarray = np.searchsorted(self.arc_from, np.arange(n + 1))
        self.in_arcs: np.ndarray = np.argsort(self.arc_to, kind="stable")
        self.in_start: np.ndarray = np.searchsorted(self.arc_to[self.in_arcs], np.arange(n + 1))
        self.min_in: np.ndarray = np.full(n, np.inf)
        np.minimum.at(self.min_in, self.arc_to, self.arc_time)
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
    wins. The route is read off the routing tree that simulate reads (a
    _search_batch of one origin), walked back from the destination.
    total_time is the destination's tree time, which is the left-to-right
    sum of its edge times, and total_length adds the edge lengths left to
    right.
    """
    if origin not in graph.nodes:
        raise ValidationError(f"unknown origin node {origin!r}")
    if destination not in graph.nodes:
        raise ValidationError(f"unknown destination node {destination!r}")
    source, target = graph.rank[origin], graph.rank[destination]
    trees = _search_batch(graph, np.array([source]), np.array([1]), np.array([target]))
    if not trees.settled[0, target]:
        return None
    pred, pred_edge = trees.pred[0].tolist(), trees.pred_edge[0].tolist()
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
    return Route(origin, destination, tuple(nodes), tuple(edges),
                 float(trees.dist[0, target]), total_length)


# A routing batch holds max(_BATCH_ORIGINS, _BATCH_CELLS // n) origins of
# an n-node graph, in (origin, node) cells of 26 B each (_search_batch).
# Each round costs a few dozen numpy calls whatever the batch size, so the
# fewer origins share them, the slower a batch runs per origin: at 3 to 6
# origins, on 96x96 and 128x128 lattices, simulate took 1.0 to 1.2 times
# as long as with a heap search per origin; at 32 it took 0.44 to 0.62
# times as long. 2**16 cells (1.7 MB of state) is the largest power of two
# that keeps the peak of `tracteq run` on a 24x24, 4,000-pair scenario
# under 44 MB (42.8 MB; 2**17 took 45.3 MB). Past 2,048 nodes the floor of
# 32 origins rules, and a batch's state is 832 B per node, below the
# ~1.3 KB per node that the Graph itself holds. The peak RSS of simulate
# grows by more than the state: by 5.8 MB for 2.0 MB of state at 48x48
# (44.2 to 50.0 MB) and by 11 MB for 7.8 MB at 96x96 (68.3 to 79.5 MB),
# from allocator growth under the per-round temporaries.
_BATCH_CELLS = 1 << 16
_BATCH_ORIGINS = 32


class _Trees(NamedTuple):
    """The routing trees of a batch of origins: row b is the tree of
    sources[b], column r the node of rank r."""

    dist: np.ndarray  # float64, inf where unreached
    pred: np.ndarray  # int32 predecessor rank, -1 where none
    pred_edge: np.ndarray  # int32 index into graph.edges, -1 where none
    depth: np.ndarray  # int32 edges from the origin, 0 where unsettled
    settled: np.ndarray  # bool
    rounds: int  # settling rounds the batch took


def _spans(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) over every j in start[rows[i]]:start[rows[i] + 1], i rising
    and j rising within each i."""
    lo = start[rows]
    count = start[rows + 1] - lo
    i = np.repeat(np.arange(len(rows)), count)
    return i, np.arange(len(i)) + np.repeat(lo - (np.cumsum(count) - count), count)


def _search_batch(
    graph: Graph, sources: np.ndarray, counts: np.ndarray, targets: np.ndarray
) -> _Trees:
    """Tie-broken shortest-path trees of a batch of origins, built together
    by the IN rule of the module docstring.

    Origin b is the node of rank sources[b], and its counts[b] targets are
    the next counts[b] entries of targets, all node ranks. Cell b * n + r
    holds node r of origin b; pred holds the predecessor's cell during the
    search, and jump a cell on the path (_predecessors), so that tie walks
    need no offsets. An origin retires once all its targets are settled,
    and every settled node's entries equal those of its origin's full
    tree.
    """
    n = len(graph.rank)
    size = len(sources) * n
    dist = np.full(size, np.inf)
    pred = np.full(size, -1, np.int32)
    jump = np.full(size, -1, np.int32)
    pred_edge = np.full(size, -1, np.int32)
    depth = np.zeros(size, np.int32)
    settled = np.zeros(size, bool)
    is_target = np.zeros(size, bool)
    base = np.arange(len(sources)) * n
    source = base + sources
    is_target[np.repeat(base, counts) + targets] = True
    is_target[source] = False
    dist[source] = 0.0
    jump[source] = source
    settled[source] = True
    left = np.bincount(np.flatnonzero(is_target) // n, minlength=len(sources))
    new = source[left > 0]
    frontier = new[:0]
    rounds = 0
    while True:
        # Relax the arcs out of the nodes settled last; a cell first
        # reached joins the frontier.
        node = new % n
        at, arc = _spans(graph.out_start, node)
        head = (new - node)[at] + graph.arc_to[arc]
        fresh = np.sort(head[dist[head] == np.inf])
        np.minimum.at(dist, head, dist[new][at] + graph.arc_time[arc])
        frontier = np.concatenate((frontier, fresh[:1], fresh[1:][fresh[1:] != fresh[:-1]]))
        if not frontier.size:
            break
        rounds += 1
        owner = frontier // n
        time = dist[frontier]
        least = np.full(len(sources), np.inf)
        np.minimum.at(least, owner, time)
        ok = time < least[owner] + graph.min_in[frontier - owner * n]
        new, frontier = frontier[ok], frontier[~ok]
        settled[new] = True
        _predecessors(graph, new, dist, pred, jump, pred_edge, depth)
        hit = new[is_target[new]]
        if hit.size:
            left -= np.bincount(hit // n, minlength=len(sources))
            live = left > 0
            new, frontier = new[live[new // n]], frontier[live[frontier // n]]
    shape = (len(sources), n)
    # The search keeps each predecessor's cell; the trees give its rank.
    ranks = pred.reshape(shape)
    np.subtract(ranks, base[:, None], out=ranks, where=ranks >= 0)
    return _Trees(dist.reshape(shape), ranks, pred_edge.reshape(shape),
                  depth.reshape(shape), settled.reshape(shape), rounds)


def _predecessors(graph: Graph, new: np.ndarray, dist: np.ndarray, pred: np.ndarray,
                  jump: np.ndarray, pred_edge: np.ndarray, depth: np.ndarray) -> None:
    """Set pred and jump (cells), pred_edge and depth of the cells new,
    settled this round, from their in-arcs (u, v) with dist[u] + w ==
    dist[v].

    No settled test is needed: a node not settled before this round has
    dist[u] >= m, so dist[u] + w >= m + min_in[v] > dist[v].
    """
    n = len(graph.rank)
    node = new % n
    at, arc = _spans(graph.in_start, node)
    arc = graph.in_arcs[arc]
    cand = (new - node)[at] + graph.arc_from[arc]
    tie = dist[cand] + graph.arc_time[arc] == dist[new][at]
    at, arc, cand = at[tie], arc[tie], cand[tie]
    # A node's in-arcs run by (from rank, adjacency order): keep the first
    # of parallel arcs.
    again = (cand[1:] == cand[:-1]) & (at[1:] == at[:-1])
    if again.any():
        first = np.concatenate(([True], ~again))
        at, arc, cand = at[first], arc[first], cand[first]
    # Every new cell was reached, so it has a candidate: group i is new[i].
    count = np.bincount(at, minlength=len(new))
    head = np.cumsum(count) - count
    best = head.copy()
    for j in range(1, int(count.max(initial=0))):
        g = np.flatnonzero(count > j)
        other = head[g] + j
        won = _path_before(cand[other], cand[best[g]], new[g], pred, jump, depth)
        best[g[won]] = other[won]
    u = cand[best]
    pred[new] = u
    pred_edge[new] = graph.arc_edge[arc[best]]
    depth[new] = depth[u] + 1
    # Skew-binary jump pointers (Myers 1983): where u's jump and its jump's
    # span equal depths, v's jump spans both, else it is u. A jump's depth
    # then depends on the depth alone, and a walk up d edges takes
    # O(log d) steps.
    up = jump[u]
    far = jump[up]
    jump[new] = np.where(depth[u] - depth[up] == depth[up] - depth[far], far, u)


def _path_before(x: np.ndarray, y: np.ndarray, v: np.ndarray, pred: np.ndarray,
                 jump: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Whether path(x[i]) + (v[i],) sorts before path(y[i]) + (v[i],), for
    each i: x[i] and y[i] are distinct settled cells of the tree of v[i]'s
    origin, and pred and jump hold predecessor and jump cells.

    Both paths agree up to the common ancestor of x and y, so the first
    difference is between the two nodes just below it. Cells of one origin
    compare as their ranks do, and ranks as ids do. Either of x and y can
    be the other's ancestor (the prefix case): then the child below the
    ancestor, on the deeper one's path, is compared with v. The walks run
    in lockstep over every i and take a jump wherever it stays below the
    ancestor sought, so each takes O(log depth) steps.
    """
    swap = depth[x] < depth[y]
    x, y = np.where(swap, y, x), np.where(swap, x, y)  # x the deeper
    below = depth[x] > depth[y]
    # Lift x to one below y's depth.
    top = depth[y] + 1
    while (up := depth[x] > top).any():
        far = jump[x]
        x = np.where(up, np.where(depth[far] >= top, far, pred[x]), x)
    prefix = below & (pred[x] == y)
    x = np.where(below & ~prefix, pred[x], x)
    # Walk both to the children of their common ancestor: x and y are at
    # one depth, so their jumps are too, and differ only below it. A prefix
    # pair is decided already: with y = x it stays put.
    y = np.where(prefix, x, y)
    while True:
        px, py = pred[x], pred[y]
        walk = px != py
        if not walk.any():
            break
        jx, jy = jump[x], jump[y]
        far = jx != jy
        x, y = np.where(walk, np.where(far, jx, px), x), np.where(walk, np.where(far, jy, py), y)
    return np.where(prefix, x < v, x < y) != swap


# EdgeTractMap.route_meters flushes its walked steps at the first home
# boundary at or past this many, so the steps held at a time do not grow
# with the number of pairs.
_FLUSH_STEPS = 1 << 11


def _flush_ends(home_steps: np.ndarray, homes_end: np.ndarray) -> list[int]:
    """Where a batch of homes is flushed: after the first home at or past
    _FLUSH_STEPS steps since the last flush, home_steps[h] counting the
    steps held at home h's end and homes_end[h] the pairs through it. The
    flushes fall after homes_end[h] pairs, for each such h."""
    ends, k, since = [], -1, 0
    while True:
        k += 1 + int(np.searchsorted(home_steps[k + 1:], since + _FLUSH_STEPS))
        if k >= len(home_steps):
            return ends
        ends.append(int(homes_end[k]))
        since = home_steps[k]


def _chain_steps(trees: _Trees, cells: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The edge indices along each pair's chain, from its destination cell
    back to its origin, pairs in order: lengths[i] steps for pair i, the
    depth of its destination (0 when unreachable). The walks run in
    lockstep, longest first, so step k reads a prefix of the pairs."""
    n = trees.pred.shape[1]
    pred, pred_edge = trees.pred.reshape(-1), trees.pred_edge.reshape(-1)
    ends = np.cumsum(lengths)
    steps = np.empty(int(ends[-1]) if len(ends) else 0, np.int32)
    order = np.argsort(-lengths, kind="stable")
    cell = cells[order]
    at = (ends - lengths)[order]
    base = cell - cell % n
    live = np.searchsorted(-lengths[order], -np.arange(int(lengths.max(initial=0))))
    for k, c in enumerate(live.tolist()):
        steps[at[:c] + k] = pred_edge[cell[:c]]
        cell[:c] = base[:c] + pred[cell[:c]]
    return steps


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


@dataclass(frozen=True, eq=False)
class EdgeTractMap:
    """Per-edge attribution of length (meters) to zones, as flat arrays
    aligned to graph.edges.

    Edge i's parts are zone[start[i]:start[i + 1]], indices into zones, and
    meters[start[i]:start[i + 1]], with a zone at most once per edge;
    midpoint mode gives each edge exactly one part. build_edge_tract_map's
    zones are (*tracts.ids, OUTSIDE_ZONE): a zone's index is its tract's
    rank, and OUTSIDE_ZONE's is len(tracts). Every edge of graph has its
    row of parts, so no route over graph lacks one.
    """

    graph: Graph
    zones: tuple[str, ...]
    start: np.ndarray  # intp, len(graph.edges) + 1
    zone: np.ndarray  # intp, one per part
    meters: np.ndarray  # float64, one per part

    def __post_init__(self):
        if len(self.start) != len(self.graph.edges) + 1:
            raise ValidationError(f"edge-tract map has {len(self.start) - 1} edge rows "
                                  f"for a graph of {len(self.graph.edges)} edges")

    @property
    def parts(self) -> dict[tuple[str, str], tuple[tuple[str, float], ...]]:
        """{edge key: for_edge(edge)} over graph.edges, built on each access."""
        names = [self.zones[z] for z in self.zone.tolist()]
        bounds, meters = self.start.tolist(), self.meters.tolist()
        return {e.key: tuple(sorted(zip(names[lo:hi], meters[lo:hi])))
                for e, lo, hi in zip(self.graph.edges, bounds, bounds[1:])}

    def for_edge(self, edge: Edge) -> tuple[tuple[str, float], ...]:
        """The edge's (zone id, meters) parts, sorted by id."""
        i = self.graph.edge_index.get(edge.key)
        if i is None:
            raise ConsistencyError(f"edge {edge.u}->{edge.v} missing from edge-tract map")
        lo, hi = self.start[i:i + 2].tolist()
        names = [self.zones[z] for z in self.zone[lo:hi].tolist()]
        return tuple(sorted(zip(names, self.meters[lo:hi].tolist())))

    def route_meters(
        self, sources: np.ndarray, counts: np.ndarray, targets: np.ndarray
    ) -> Iterator[_RouteBatch]:
        """Per-zone meters of each pair's shortest_path route, in batches.

        Home h has counts[h] pairs from the node sources[h], one to each of
        its next counts[h] entries of targets, all graph node ranks
        (graph.rank); pairs are numbered from 0 in that order. The homes'
        trees come from one _search_batch per max(_BATCH_ORIGINS,
        _BATCH_CELLS // n) homes, and the pairs' chains are walked
        (_chain_steps) into a flat buffer, flushed into a _RouteBatch of
        (pair, zone) groups at the first home boundary at or past
        _FLUSH_STEPS steps (_groups). No Route is built, and a group's
        meters equal route_tract_distances of the pair's route.
        """
        n = len(self.graph.rank)
        per_batch = max(_BATCH_ORIGINS, _BATCH_CELLS // max(1, n))
        pair_start = np.cumsum(counts) - counts
        # The walked pairs not yet flushed: steps, lengths and reachability.
        steps, lengths, reachable = np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, bool)
        first = 0
        for lo in range(0, len(sources), per_batch):
            home_counts = counts[lo:lo + per_batch]
            homes_end = np.cumsum(home_counts)
            batch_targets = targets[pair_start[lo]:pair_start[lo] + homes_end[-1]]
            trees = _search_batch(self.graph, sources[lo:lo + per_batch], home_counts,
                                  batch_targets)
            cells = np.repeat(np.arange(len(home_counts)) * n, home_counts) + batch_targets
            ok = trees.settled.reshape(-1)[cells]
            depth = np.where(ok, trees.depth.reshape(-1)[cells], 0)
            home_steps = len(steps) + np.concatenate(([0], np.cumsum(depth)))[homes_end]
            walked = 0
            for end in _flush_ends(home_steps, homes_end) + [None]:
                part = slice(walked, end)
                steps = np.concatenate((steps, _chain_steps(trees, cells[part], depth[part])))
                lengths = np.concatenate((lengths, depth[part]))
                reachable = np.concatenate((reachable, ok[part]))
                if end is None:
                    break
                yield self._groups(first, steps, np.cumsum(lengths), reachable)
                first += len(lengths)
                steps, lengths, reachable = steps[:0], lengths[:0], reachable[:0]
                walked = end
            # Free this batch's cells before the next batch takes its own.
            del trees
        if len(lengths):
            yield self._groups(first, steps, np.cumsum(lengths), reachable)

    def _groups(
        self, first: int, steps: np.ndarray, ends: np.ndarray, reachable: np.ndarray
    ) -> _RouteBatch:
        """One route_meters batch from a flat buffer of edge steps: pair i's
        are steps[ends[i - 1]:ends[i]]. A group's meters are its one part
        as is, a + b for two parts and math.fsum of three or more."""
        edge = np.array(steps, dtype=np.intp)
        step_pair = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        step, part = _spans(self.start, edge)
        pair = step_pair[step]
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
        # Per position: polygon, box and padded box.
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

    def containing(self, point: tuple[float, float]) -> int:
        """Position of the first containing tract in sorted-id order, or
        len(tracts) when no tract contains the point; boundary points go to
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
                return pos
        return len(self.polygons)

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
    """Attribute each edge's length to tracts, over the zones
    (*tracts.ids, OUTSIDE_ZONE).

    midpoint mode gives the full length to the tract containing the edge
    midpoint; split mode cuts the segment at every polygon boundary and
    assigns each piece by its own midpoint, adding a tract's pieces in cut
    order. Pieces covered by no tract go to the OUTSIDE_ZONE sentinel. A
    point goes to the first tract in sorted-id order that contains it; a
    grid over the tract boxes (_TractGrid) picks the tracts to test.
    """
    if mode not in ("midpoint", "split"):
        raise ValueError(f"unknown attribution mode {mode!r}")
    grid = _TractGrid(tracts)

    start = [0]
    zone: list[int] = []  # tract positions, len(tracts) for OUTSIDE_ZONE
    meters: list[float] = []
    for edge in graph.edges:
        a, b = graph.edge_geometry(edge)
        if mode == "midpoint":
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            acc = {grid.containing(mid): edge.length}
        else:
            ts = {0.0, 1.0}
            for pos in grid.overlapping(bounding_box([a, b])):
                ts.update(segment_polygon_breakpoints(a, b, grid.polygons[pos]))
            cuts = sorted(ts)
            acc = {}
            for lo, hi in zip(cuts, cuts[1:]):
                if hi - lo <= 1e-12:
                    continue
                m = (lo + hi) / 2.0
                mid = (a[0] + (b[0] - a[0]) * m, a[1] + (b[1] - a[1]) * m)
                pos = grid.containing(mid)
                acc[pos] = acc.get(pos, 0.0) + (hi - lo) * edge.length
        zone += acc
        meters += acc.values()
        start.append(len(zone))
    uncovered = zone.count(len(tracts))
    if uncovered:
        log.info("%d of %d edges extend outside all tracts", uncovered, len(graph.edges))
    return EdgeTractMap(graph, (*tracts.ids, OUTSIDE_ZONE), np.array(start, np.intp),
                        np.array(zone, np.intp), np.array(meters, np.float64))


def route_tract_distances(route: Route, edge_map: EdgeTractMap) -> dict[str, float]:
    """Per-tract meters along a route, keys sorted.

    Per-tract totals use math.fsum, which is exact until its one final
    rounding, so the order of a tract's terms does not matter, and in
    midpoint mode the values sum back to total_length whenever the lengths
    themselves add without rounding. An edge that is not in the map's graph
    raises for_edge's ConsistencyError for the first such edge along the
    route.
    """
    terms: dict[str, list[float]] = {}
    for edge in route.edges:
        for tid, meters in edge_map.for_edge(edge):
            terms.setdefault(tid, []).append(meters)
    return {tid: math.fsum(vals) for tid, vals in sorted(terms.items())}
