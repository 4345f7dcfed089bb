"""Commute microsimulation: OD trips, demographic labels, per-tract distance.

Trips route once per origin-destination pair (free-flow routing makes every
worker on a pair take the same path), from one routing tree per home tract.
simulate takes the pairs from a trip assignment's OD table, reads each
home's tree into per-tract meter terms for each of its destinations
(network._tract_terms_from) and adds every pair's km from them in sorted
pair order, so its own memory does not grow with the number of pairs. Trip
weights are one float per group and OD row (16 B per pair). Group labels
come either from a deterministic fractional split or from counter-based coin
flips keyed by (seed, home, work, worker index), so bernoulli draws never
depend on iteration or parallel order.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Mapping

import numpy as np

from .artifacts import fmt, read_csv, read_number, write_csv
from .data_model import TractSet
from .errors import ValidationError
from .network import EdgeTractMap, Graph, _tract_meters, _tract_terms_from

log = logging.getLogger(__name__)

GROUPS = ("white", "non_white")


@dataclass(frozen=True)
class ODTable:
    """Origin-destination worker counts, one row per (home, work) pair.

    Rows are sorted by (home, work); duplicate pairs are merged by summing.
    """

    rows: tuple[tuple[str, str, int], ...]

    @staticmethod
    def from_rows(rows) -> "ODTable":
        merged: dict[tuple[str, str], int] = {}
        for home, work, count in rows:
            count = int(count)
            if count < 0:
                raise ValidationError(f"OD pair {home}->{work}: negative count {count}")
            merged[(home, work)] = merged.get((home, work), 0) + count
        return ODTable(
            tuple((h, w, c) for (h, w), c in sorted(merged.items()))
        )


def load_od(path: str, tracts: TractSet) -> ODTable:
    """Read a home,work,count table; counts must be nonnegative integers.

    Rows naming tracts not in tracts are dropped and counted in the log.
    """
    dropped = 0

    def rows() -> Iterator[tuple[str, str, int]]:
        nonlocal dropped
        for lineno, row in read_csv(path, ("home", "work", "count")):
            home, work = row["home"], row["work"]
            count = read_number(path, lineno, row, "count", int)
            if count < 0:
                raise ValidationError(f"{path} line {lineno}: negative count {count}")
            if home not in tracts or work not in tracts:
                dropped += 1
                continue
            yield home, work, count

    # The rows stream into the merge, so no list of every raw row is held.
    table = ODTable.from_rows(rows())
    if dropped:
        log.warning("dropped %d OD row(s) naming unknown tracts", dropped)
    if not table.rows:
        raise ValidationError(f"{path}: no usable OD rows")
    return table


@dataclass(frozen=True)
class TripAssignment:
    """Trip weights for od's rows: weights[i] holds row i's weight per group,
    in GROUPS order, and sums to the (possibly drive-share-scaled) count."""

    od: ODTable
    weights: np.ndarray  # float64, len(od.rows) x len(GROUPS)


def _pair_counter(home: str, work: str) -> list[int]:
    digest = hashlib.sha256(f"{home}\x1f{work}".encode()).digest()
    return list(struct.unpack("<4Q", digest))


def _home_column(od: ODTable, value_for: Callable[[str], float]) -> np.ndarray:
    """value_for(home) per OD row, called once per home in (sorted) row order."""
    values = {home: value_for(home) for home in dict.fromkeys(h for h, _, _ in od.rows)}
    return np.fromiter((values[h] for h, _, _ in od.rows), np.float64, len(od.rows))


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

    def share_of(home: str) -> float:
        if home not in tracts:
            raise ValidationError(f"OD home tract {home!r} not in tract set")
        p = tracts[tracts.index_of(home)].attributes.get(tracts.group_share_column)
        if p is None or not math.isfinite(p):
            raise ValidationError(f"tract {home!r} has no group share")
        return float(p)

    share = _home_column(od, share_of)
    counts = np.fromiter((c for _, _, c in od.rows), np.float64, len(od.rows))
    weights = np.empty((len(od.rows), len(GROUPS)))
    if mode == "fractional":
        np.multiply(counts, share, out=weights[:, 0])
    else:
        for i, (home, work, count) in enumerate(od.rows):
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=_pair_counter(home, work))
            )
            weights[i, 0] = np.count_nonzero(gen.random(count) < share[i])
    np.subtract(counts, weights[:, 0], out=weights[:, 1])
    return TripAssignment(od, weights)


def scale_by_drive_share(
    assignment: TripAssignment, drive_share: Mapping[str, float]
) -> TripAssignment:
    """Multiply every group weight by the home tract's driving share; a home
    that drive_share lacks or gives as NaN is an error."""

    def share_of(home: str) -> float:
        share = float(drive_share.get(home, math.nan))
        if math.isnan(share):
            raise ValidationError(f"no drive share for home tract {home!r}")
        if not 0.0 <= share <= 1.0:
            raise ValidationError(f"tract {home!r}: drive share {share} outside [0,1]")
        return share

    share = _home_column(assignment.od, share_of)
    return TripAssignment(assignment.od, assignment.weights * share[:, None])


@dataclass(frozen=True)
class TraversalTable:
    """Distance driven through each tract (km) and commuters living in each
    tract, both broken down by group."""

    groups: tuple[str, ...]
    D: dict[str, dict[str, float]]  # tract -> group -> km
    C: dict[str, dict[str, float]]  # tract -> group -> commuter weight
    n_pairs: int = 0
    n_unreachable: int = 0

    def tract_ids(self) -> list[str]:
        return sorted(self.D.keys() | self.C.keys())

    def D_total(self, tract_id: str) -> float:
        return math.fsum(self.D.get(tract_id, {}).values())

    def C_total(self, tract_id: str) -> float:
        return math.fsum(self.C.get(tract_id, {}).values())

    def total_km(self) -> float:
        return math.fsum(
            v for by_group in self.D.values() for v in by_group.values()
        )


def write_traversal(table: TraversalTable, path: str, header_lines: list[str] | None = None) -> None:
    """Serialize as tract_id,group,D_km,C_count rows; floats round-trip via repr."""
    rows = (
        [tid, g, fmt(table.D.get(tid, {}).get(g, 0.0)), fmt(table.C.get(tid, {}).get(g, 0.0))]
        for tid in table.tract_ids() for g in table.groups
    )
    write_csv(path, ["tract_id", "group", "D_km", "C_count"], rows, header_lines or ())


def read_traversal(path: str) -> TraversalTable:
    """Inverse of write_traversal; a repeated (tract, group) row is an error."""
    D: dict[str, dict[str, float]] = {}
    C: dict[str, dict[str, float]] = {}
    groups: list[str] = []
    for lineno, row in read_csv(path, ("tract_id", "group", "D_km", "C_count")):
        tid, g = row["tract_id"], row["group"]
        if g not in groups:
            groups.append(g)
        if g in D.get(tid, ()):
            raise ValidationError(
                f"{path} line {lineno}: duplicate row for tract {tid!r}, group {g!r}")
        D.setdefault(tid, {})[g] = read_number(path, lineno, row, "D_km")
        C.setdefault(tid, {})[g] = read_number(path, lineno, row, "C_count")
    return TraversalTable(groups=tuple(groups), D=D, C=C)


def nearest_node(graph: Graph, point: tuple[float, float]) -> str:
    """Graph node closest to a point; equidistant nodes resolve to the
    smallest id."""
    if not graph.nodes:
        raise ValidationError("graph has no nodes")
    ids, coords = graph.node_coords()
    dx = coords[:, 0] - point[0]
    dy = coords[:, 1] - point[1]
    # argmin returns the first minimum, and ids are sorted: ties go to the
    # smallest id.
    return ids[int(np.argmin(dx * dx + dy * dy))]


def tract_node(graph: Graph, tracts: TractSet, tract_id: str) -> str:
    """The graph node a tract's trips start and end at: the nearest node to
    its centroid."""
    return nearest_node(graph, tuple(tracts.centroids[tracts.index_of(tract_id)]))


def _home_routes(
    od: ODTable, tracts: TractSet, graph: Graph, edge_map: EdgeTractMap
) -> Iterator[tuple[str, list[str], list[dict[str, list[float]] | None]]]:
    """Yield (home, works, terms) per home tract for od's rows in order,
    terms[i] being the per-tract meter terms of the route to works[i]
    ({tract_id: [meters, ...]}, None when unreachable). A home's rows are
    consecutive, and its terms come from one routing tree
    (network._tract_terms_from), so only one home's terms are alive at a
    time."""
    node_for = {tid: tract_node(graph, tracts, tid)
                for tid in dict.fromkeys(t for h, w, _ in od.rows for t in (h, w))}
    for home, rows in itertools.groupby(od.rows, key=itemgetter(0)):
        works = [w for _, w, _ in rows]
        by_node = _tract_terms_from(
            graph, node_for[home], {node_for[w] for w in works}, edge_map
        )
        yield home, works, [by_node[node_for[w]] for w in works]


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
    unreachable), plus the unreachable count: the meter terms that
    simulate reads off each home's tree (_home_routes), summed per tract.
    Pairs whose endpoints snap to the same node yield an empty route and
    contribute nothing. simulate does not build this table; it serves
    callers that need each pair's meters, such as the variance term of
    acceptance criterion 9.
    """
    traversals = {
        (home, work): None if terms is None else _tract_meters(terms)
        for home, works, routes in _home_routes(od, tracts, graph, edge_map)
        for work, terms in zip(works, routes)
    }
    unreachable = sum(1 for r in traversals.values() if r is None)
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
    Each pair's km are added from the meter terms that its home's tree
    gives (_home_routes): a tract's meters are math.fsum of its terms, a
    single term as is, so they equal route_tract_distances of the pair's
    shortest_path route.
    """
    od = assignment.od
    # Each row starts at 0.0 for every group and takes the pairs' additions
    # in sorted pair order; a D row is made only for a nonzero weight. A
    # pair adds to each of its tracts' rows once, so their order is free.
    D: dict[str, dict[str, float]] = {}
    C: dict[str, dict[str, float]] = {}
    n_unreachable = 0
    fsum = math.fsum
    first = 0
    for home, works, routes in _home_routes(od, tracts, graph, edge_map):
        last = first + len(works)
        weight_rows = assignment.weights[first:last].tolist()
        first = last
        for per_tract, weight_row in zip(routes, weight_rows):
            if per_tract is None:
                n_unreachable += 1
                continue
            by_group = list(zip(GROUPS, weight_row))
            row = C.get(home)
            if row is None:
                row = C[home] = dict.fromkeys(GROUPS, 0.0)
            for g, w in by_group:
                row[g] += w
            nonzero = [(g, w) for g, w in by_group if w]
            if not nonzero:
                continue
            for tid, terms in per_tract.items():
                if exclude_home and tid == home:
                    continue
                km = (terms[0] if len(terms) == 1 else fsum(terms)) / 1000.0
                row = D.get(tid)
                if row is None:
                    row = D[tid] = dict.fromkeys(GROUPS, 0.0)
                for g, w in nonzero:
                    row[g] += w * km
    _log_unreachable(n_unreachable, len(od.rows))
    return TraversalTable(groups=GROUPS, D=D, C=C, n_pairs=len(od.rows),
                          n_unreachable=n_unreachable)

