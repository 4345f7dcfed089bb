"""Commute microsimulation: OD trips, demographic labels, per-tract distance.

The OD table is three columns over tract ranks (TractSet indices), 16 B per
pair, that every consumer indexes per-tract arrays by. Trips route once per
origin-destination pair (free-flow routing makes every worker on a pair take
the same path), from one routing tree per home tract, in sorted pair order.
After each home's tree, the pairs' chain walks append edge indices to a
flat buffer (network._EdgeParts.route_meters); a flush, at the end of a
home once the buffer holds network._FLUSH_STEPS steps, turns them into one
meters figure per (pair, tract): a single term as is, a + b for two terms
(equal to math.fsum of two floats) and math.fsum for three or more.
simulate adds those with np.add.at into (zones x groups) arrays in pair
order; np.add.at adds repeated indices one after another, so each cell
takes the same additions in the same order as a loop over the sorted
pairs, and the sums are bit-identical to it. Those arrays' rows, sorted by
zone id, are the TraversalTable that traversal.csv holds and the equity
stage reads. Memory held for routing is
bounded by the step count, not by the number of pairs. Trip weights are
one float per group and OD row (16 B per pair). Group labels come either
from a deterministic fractional split or from counter-based coin flips
keyed by (seed, home, work, worker index), so bernoulli draws never depend
on iteration or parallel order.
"""

from __future__ import annotations

import itertools
import logging
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifacts import BLOCK_ROWS, Faults, first_repeat, fmt, read_csv, write_csv
from .data_model import TractSet
from .errors import ValidationError
from .network import OUTSIDE_ZONE, EdgeTractMap, Graph, _EdgeParts, _RouteBatch

log = logging.getLogger(__name__)

GROUPS = ("white", "non_white")


@dataclass(frozen=True, eq=False)
class ODTable:
    """Origin-destination worker counts over a TractSet's tracts.

    ids are the tract set's ids, in rank order; row i is the pair
    (ids[home[i]], ids[work[i]]) with count[i] workers. Rows are sorted by
    (home, work), and duplicate pairs are merged by an exact integer sum.
    Both from_rows and load_od check their rows with _Pairs, which refuses
    a count that is negative, not a whole number, or that takes the table's
    total count past the int64 range, and a tract outside the set unless
    the caller drops such rows.
    """

    ids: tuple[str, ...]
    home: np.ndarray  # int32 tract ranks
    work: np.ndarray  # int32 tract ranks
    count: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.count)

    @property
    def rows(self) -> tuple[tuple[str, str, int], ...]:
        """(home id, work id, count) per row, built on each call."""
        return tuple((self.ids[h], self.ids[w], c) for h, w, c in zip(
            self.home.tolist(), self.work.tolist(), self.count.tolist()))

    @staticmethod
    def from_rows(rows: Iterable[tuple[str, str, int]], tracts: TractSet) -> "ODTable":
        """The table of (home id, work id, count) rows, streamed into typed
        arrays block by block: no row is held as a Python object. A fault
        names its pair."""
        pairs = _Pairs(tracts)
        rows = iter(rows)
        while block := list(itertools.islice(rows, BLOCK_ROWS)):
            homes, works, counts = (list(column) for column in zip(*block))
            faults = Faults(len(block), lambda i: f"OD pair {homes[i]}->{works[i]}")
            pairs.add(homes, works, counts, faults, drop_unknown=False, ints=False)
        return pairs.table()


_INT64_MAX = 2**63 - 1


class _Pairs:
    """OD rows, checked a block at a time and gathered as typed arrays: the
    one place that holds the count and tract rules."""

    def __init__(self, tracts: TractSet):
        self.tracts = tracts
        self.keys: list[np.ndarray] = []  # home rank * n + work rank
        self.counts: list[np.ndarray] = []
        self.total = 0
        self.dropped = 0

    def add(self, homes: list[str], works: list[str], counts: list, faults: Faults,
            drop_unknown: bool, ints: bool) -> None:
        """Check a block of rows and keep them, or raise faults' first fault.

        A row is checked in this order: both tracts in the set (unless
        drop_unknown), a whole count (unless ints: the counts are ints
        already), a nonnegative count; a row that names another tract is
        then dropped under drop_unknown; and the count must not take the
        total count past the int64 range.
        """
        home = self.tracts.ranks(homes)
        work = self.tracts.ranks(works)
        unknown = -1 in home or -1 in work
        if unknown and not drop_unknown:
            i = next(i for i, (h, w) in enumerate(zip(home, work)) if h < 0 or w < 0)
            role, tid = ("home", homes[i]) if home[i] < 0 else ("work", works[i])
            faults.note(i, f"OD {role} tract {tid!r} not in tract set")
        wholes = counts[:faults.end] if ints else self._wholes(counts[:faults.end], faults)
        if wholes and min(wholes) < 0:
            i = next(i for i, c in enumerate(wholes) if c < 0)
            faults.note(i, f"{faults.where(i)}: negative count {wholes[i]}")
        kept: Sequence[int] = range(faults.end)
        wholes = wholes[:faults.end]
        if unknown and drop_unknown:
            kept = [i for i in kept if home[i] >= 0 and work[i] >= 0]
            home, work, wholes = ([column[i] for i in kept] for column in (home, work, wholes))
        total = self.total + sum(wholes)
        if total > _INT64_MAX:
            running = itertools.accumulate(wholes, initial=self.total)
            k = next(k for k, t in enumerate(running) if t > _INT64_MAX) - 1
            i = kept[k]
            faults.note(i, f"{faults.where(i)}: count {wholes[k]} takes the total "
                           f"count past the int64 limit {_INT64_MAX}")
        faults.raise_first()
        self.dropped += len(homes) - len(kept)
        self.total = total
        n = len(self.tracts)
        self.keys.append(np.array(home, np.int64) * n + np.array(work, np.int64))
        self.counts.append(np.array(wholes, np.int64))

    @staticmethod
    def _wholes(counts: list, faults: Faults) -> list[int]:
        """counts as ints, stopping before the first that is not a whole
        number, which is noted."""
        wholes = []
        for i, count in enumerate(counts):
            try:
                whole = int(count)
            except (TypeError, ValueError, OverflowError):
                whole = None
            if whole is None or whole != count:
                faults.note(i, f"{faults.where(i)}: count {count} is not a whole number")
                break
            wholes.append(whole)
        return wholes

    def table(self) -> ODTable:
        """The rows kept, sorted by pair, a repeated pair's counts summed."""
        n = len(self.tracts)
        key = np.concatenate(self.keys) if self.keys else np.zeros(0, np.int64)
        counts = np.concatenate(self.counts) if self.counts else np.zeros(0, np.int64)
        self.keys, self.counts = [], []
        order = np.argsort(key)
        key = key[order]
        head = np.flatnonzero(np.diff(key, prepend=-1))
        # The total fits int64, so every merged sum is exact.
        count = np.add.reduceat(counts[order], head)
        key = key[head]
        return ODTable(tuple(self.tracts.ids), (key // n).astype(np.int32),
                       (key % n).astype(np.int32), count)


def load_od(path: str, tracts: TractSet) -> ODTable:
    """Read a home,work,count table; counts must be nonnegative integers,
    and their total must fit int64.

    Each block of rows becomes tract ranks and int counts and is checked by
    _Pairs, so a fault names the file and line; rows naming tracts not in
    tracts are dropped and counted in the log.
    """
    pairs = _Pairs(tracts)
    for block in read_csv(path, ("home", "work", "count")):
        faults = block.faults()
        counts = faults.numbers(block.cells["count"], "count", int)
        pairs.add(block.cells["home"], block.cells["work"], counts, faults,
                  drop_unknown=True, ints=True)
    table = pairs.table()
    if pairs.dropped:
        log.warning("dropped %d OD row(s) naming unknown tracts", pairs.dropped)
    if not len(table):
        raise ValidationError(f"{path}: no usable OD rows")
    return table


@dataclass(frozen=True)
class TripAssignment:
    """Trip weights for od's rows: weights[i] holds row i's weight per group,
    in GROUPS order, and sums to the (possibly drive-share-scaled) count."""

    od: ODTable
    weights: np.ndarray  # float64, len(od) x len(GROUPS)


def _pair_counter(home: str, work: str) -> list[int]:
    # Imported here: loading OpenSSL costs every run that draws no coin.
    import hashlib

    digest = hashlib.sha256(f"{home}\x1f{work}".encode()).digest()
    return list(struct.unpack("<4Q", digest))


def assign_groups(
    od: ODTable, tracts: TractSet, mode: str = "fractional", seed: int = 0
) -> TripAssignment:
    """Split each pair's workers into group weights.

    fractional: weights are count*p and count*(1-p) with p the home tract's
    group share. bernoulli: each worker flips an independent coin; the stream
    for a pair is keyed by hashing (home, work) into the generator counter,
    with the worker's index selecting the draw, so any evaluation order gives
    identical output for a fixed seed.
    """
    if mode not in ("bernoulli", "fractional"):
        raise ValueError(f"unknown assignment mode {mode!r}")

    share = tracts.attribute(tracts.group_share_column)[od.home]
    bad = np.flatnonzero(~np.isfinite(share))
    if bad.size:
        raise ValidationError(f"tract {od.ids[od.home[bad[0]]]!r} has no group share")
    counts = od.count.astype(np.float64)
    weights = np.empty((len(od), len(GROUPS)))
    if mode == "fractional":
        np.multiply(counts, share, out=weights[:, 0])
    else:
        for i, (home, work, count) in enumerate(
                zip(od.home.tolist(), od.work.tolist(), od.count.tolist())):
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=_pair_counter(od.ids[home], od.ids[work]))
            )
            weights[i, 0] = np.count_nonzero(gen.random(count) < share[i])
    np.subtract(counts, weights[:, 0], out=weights[:, 1])
    return TripAssignment(od, weights)


def scale_by_drive_share(
    assignment: TripAssignment, drive_share: np.ndarray
) -> TripAssignment:
    """Multiply every group weight by the home tract's driving share.

    drive_share is indexed by tract rank, as TractSet.attribute returns a
    column. A home whose share is NaN or outside [0, 1] is an error; the
    first such home in row order, the smallest id, is named.
    """
    od = assignment.od
    share = drive_share[od.home]
    bad = np.flatnonzero(~((share >= 0.0) & (share <= 1.0)))
    if bad.size:
        home, value = od.ids[od.home[bad[0]]], float(share[bad[0]])
        if math.isnan(value):
            raise ValidationError(f"no drive share for home tract {home!r}")
        raise ValidationError(f"tract {home!r}: drive share {value} outside [0,1]")
    return TripAssignment(od, assignment.weights * share[:, None])


@dataclass(frozen=True, eq=False)
class TraversalTable:
    """Distance driven through each zone (km) and commuters living in each
    zone, by group: row i of D and C is zones[i], column k is groups[k].
    zones are sorted ids, OUTSIDE_ZONE among them when km lay outside every
    tract."""

    zones: tuple[str, ...]
    groups: tuple[str, ...]
    D: np.ndarray  # float64, len(zones) x len(groups), km
    C: np.ndarray  # float64, len(zones) x len(groups), commuter weight
    n_pairs: int = 0
    n_unreachable: int = 0

    def total_km(self) -> float:
        return math.fsum(self.D.ravel().tolist())


def write_traversal(table: TraversalTable, path: str, header_lines: list[str] | None = None) -> None:
    """Serialize as tract_id,group,D_km,C_count rows; floats round-trip via repr."""
    rows = (
        [zone, g, fmt(d), fmt(c)]
        for zone, d_row, c_row in zip(table.zones, table.D.tolist(), table.C.tolist())
        for g, d, c in zip(table.groups, d_row, c_row)
    )
    write_csv(path, ["tract_id", "group", "D_km", "C_count"], rows, header_lines or ())


def read_traversal(path: str) -> TraversalTable:
    """Inverse of write_traversal; a (tract, group) without a row reads 0.0.
    A repeated (tract, group) row is an error, and so is a D_km or C_count
    that is negative or not finite."""
    rows: dict[tuple[str, str], tuple[float, float]] = {}
    columns = ("D_km", "C_count")
    for block in read_csv(path, ("tract_id", "group", *columns)):
        faults = block.faults()
        keys = list(zip(block.cells["tract_id"], block.cells["group"]))
        i = first_repeat(keys, rows)
        if i is not None:
            faults.note(i, f"{block.where(i)}: duplicate row for tract {keys[i][0]!r}, "
                           f"group {keys[i][1]!r}")
        values = []
        for column in columns:
            values.append(faults.numbers(block.cells[column], column))
            i = next((i for i, v in enumerate(values[-1]) if not 0.0 <= v < math.inf), None)
            if i is not None:
                faults.note(i, f"{block.where(i)}: {block.cells[column][i]!r} in column "
                               f"{column!r} is not a finite nonnegative number")
        faults.raise_first()
        rows.update(zip(keys, zip(*values)))
    zones = sorted({tid for tid, _ in rows})
    groups = tuple(dict.fromkeys(g for _, g in rows))
    index = {zone: i for i, zone in enumerate(zones)}
    D, C = np.zeros((2, len(zones), len(groups)))
    at = (np.array([index[tid] for tid, _ in rows], np.intp),
          np.array([groups.index(g) for _, g in rows], np.intp))
    D[at], C[at] = np.array(list(rows.values())).reshape(-1, 2).T
    return TraversalTable(tuple(zones), groups, D, C)


def nearest_node(graph: Graph, point: tuple[float, float]) -> str:
    """Graph node closest to a point; equidistant nodes resolve to the
    smallest id."""
    ids, _ = graph.node_coords()
    return ids[int(_nearest_nodes(graph, np.array([point], float))[0])]


# Cells (points x nodes) per chunk of _nearest_nodes' distance rows.
_NEAREST_CELLS = 1 << 14


def _nearest_nodes(graph: Graph, points: np.ndarray) -> np.ndarray:
    """The rank of the node closest to each of the (m, 2) points, by
    squared distance, computed for a chunk of points at a time. argmin
    returns the first minimum, and ranks follow sorted ids: ties go to the
    smallest id."""
    if not len(points):
        return np.zeros(0, np.intp)
    if not graph.nodes:
        raise ValidationError("graph has no nodes")
    _, coords = graph.node_coords()
    step = max(1, _NEAREST_CELLS // len(coords))
    out = np.empty(len(points), np.intp)
    for s in range(0, len(points), step):
        dx = coords[:, 0] - points[s:s + step, 0, None]
        dy = coords[:, 1] - points[s:s + step, 1, None]
        out[s:s + step] = np.argmin(dx * dx + dy * dy, axis=1)
    return out


def tract_node(graph: Graph, tracts: TractSet, tract_id: str) -> str:
    """The graph node a tract's trips start and end at: the nearest node to
    its centroid."""
    return nearest_node(graph, tuple(tracts.centroids[tracts.index_of(tract_id)]))


def _pair_meters(
    od: ODTable, tracts: TractSet, graph: Graph, edge_map: EdgeTractMap,
    first_zones: tuple[str, ...] = (),
) -> tuple[list[str], Iterator[_RouteBatch]]:
    """The zones and the batches of network._EdgeParts.route_meters for
    od's rows in order: each home's rows are consecutive, and their routes
    come from one routing tree. Each tract that od uses takes its nearest
    node once, in one chunked pass (_nearest_nodes)."""
    used = np.zeros(len(od.ids), bool)
    used[od.home] = True
    used[od.work] = True
    node = np.zeros(len(od.ids), np.intp)  # graph node rank per tract rank
    node[used] = _nearest_nodes(graph, tracts.centroids[used])
    starts = np.flatnonzero(np.diff(od.home, prepend=-1)).tolist()
    parts = _EdgeParts(graph, edge_map, first_zones)
    homes = ((int(node[od.home[s]]), node[od.work[s:e]].tolist())
             for s, e in zip(starts, starts[1:] + [len(od)]))
    return parts.zones, parts.route_meters(homes)


def _log_unreachable(n_unreachable: int, n_pairs: int) -> None:
    if n_unreachable:
        level = logging.WARNING if n_unreachable > 0.05 * n_pairs else logging.INFO
        log.log(level, "%d of %d OD pairs unreachable", n_unreachable, n_pairs)


def route_traversals(
    od: ODTable,
    tracts: TractSet,
    graph: Graph,
    edge_map: EdgeTractMap,
) -> tuple[dict[tuple[str, str], dict[str, float] | None], int]:
    """Shortest-path per-tract meters for every OD pair.

    Returns a map from pair to {tract_id: meters}, keys sorted (None when
    unreachable), plus the unreachable count: the (pair, tract) meters that
    simulate adds up (_pair_meters). Pairs whose endpoints snap to the same
    node yield an empty route and contribute nothing. simulate does not
    build this table; it serves callers that need each pair's meters, such
    as the variance term of acceptance criterion 9.
    """
    zones, batches = _pair_meters(od, tracts, graph, edge_map)
    routes: list[dict[str, float] | None] = []
    for _, reachable, pair, zone, meters in batches:
        batch = [{} if ok else None for ok in reachable.tolist()]
        for p, z, m in zip(pair.tolist(), zone.tolist(), meters.tolist()):
            batch[p][zones[z]] = m  # zones are sorted, so keys come sorted
        routes += batch
    traversals = {(home, work): r for (home, work, _), r in zip(od.rows, routes)}
    unreachable = routes.count(None)
    _log_unreachable(unreachable, len(traversals))
    return traversals, unreachable


def simulate(
    assignment: TripAssignment,
    tracts: TractSet,
    graph: Graph,
    edge_map: EdgeTractMap,
    exclude_home: bool = False,
) -> TraversalTable:
    """Accumulate per-tract, per-group traversal km and commuter counts for
    the pairs of assignment.od.

    Pairs are accumulated in sorted (home, work) order, so outputs are
    bit-identical across reruns. By default the home tract counts among the
    traversed tracts; exclude_home drops its distance contribution
    (commuter counts keep the home tract either way).
    Each pair's km in a tract are its meters there (_pair_meters) / 1000,
    so they equal route_tract_distances of the pair's shortest_path route.
    """
    od = assignment.od
    zones, batches = _pair_meters(od, tracts, graph, edge_map, (*tracts.ids, OUTSIDE_ZONE))
    # Rows are zones, in tract rank order with OUTSIDE_ZONE next; each
    # batch adds its pairs in pair order with np.add.at, which adds
    # repeated indices one after another in index order. So each cell
    # takes, in sorted pair order, the additions that a loop over the
    # pairs makes, starting from 0.0: a pair adds once to each cell it
    # touches. A row is kept only if a nonzero weight reached it or a
    # reachable pair lives there.
    D = np.zeros((len(zones), len(GROUPS)))
    C = np.zeros((len(zones), len(GROUPS)))
    kept = np.zeros(len(zones), bool)
    n_unreachable = 0
    for first, reachable, pair, zone, meters in batches:
        home = od.home[first:first + len(reachable)]
        weights = assignment.weights[first:first + len(home)]
        n_unreachable += len(home) - int(np.count_nonzero(reachable))
        np.add.at(C, home[reachable], weights[reachable])
        kept[home[reachable]] = True
        if exclude_home:
            keep = zone != home[pair]
            pair, zone, meters = pair[keep], zone[keep], meters[keep]
        w = weights[pair]
        km = meters / 1000.0
        nonzero = w != 0.0
        kept[zone[nonzero.any(axis=1)]] = True
        j, g = np.nonzero(nonzero)
        # On D's flat view, add.at takes numpy's fast one-index path.
        np.add.at(D.reshape(-1), zone[j] * len(GROUPS) + g, w[j, g] * km[j])
    _log_unreachable(n_unreachable, len(od))
    # By id, not by rank: an id may sort on either side of OUTSIDE_ZONE.
    rows = sorted(np.flatnonzero(kept).tolist(), key=zones.__getitem__)
    return TraversalTable(tuple(zones[z] for z in rows), GROUPS, D[rows], C[rows],
                          n_pairs=len(od), n_unreachable=n_unreachable)
