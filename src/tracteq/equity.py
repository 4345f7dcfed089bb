"""Traversal inequity index and its weighted and corridor summaries.

For tract j and group g the index is the group's share of distance driven
through j minus its share of commuters living in j. Tracts with zero
traversal or zero commuters are undefined and stay out of every summary.
Tracts come in sorted-id order, that of TraversalTable.tract_ids and of a
TractSet, so nothing here sorts them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

from .commute import TraversalTable
from .data_model import HighwayNetworkGeom, TractSet
from .errors import ValidationError
from .geometry import EPS, bounding_box, boxes_overlap, polyline_intersects_polygon

log = logging.getLogger(__name__)

# The farthest apart a ring's box and a polyline's box can be while the
# exact test still reports contact: a contact point lies within EPS of the
# polyline and within EPS of the ring.
CONTACT_PAD = 2.0 * EPS


@dataclass(frozen=True)
class InequityTable:
    """Index values of defined tracts and ids of undefined ones, both in sorted-id order."""

    groups: tuple[str, ...]
    values: dict[str, dict[str, float]]  # tract -> group -> index, defined tracts only
    undefined: tuple[str, ...]

    @property
    def defined(self) -> list[str]:
        return list(self.values)


def inequity_index(traversal: TraversalTable) -> InequityTable:
    """I_jg = D_jg / D_j - C_jg / C_j per defined tract."""
    values: dict[str, dict[str, float]] = {}
    undefined: list[str] = []
    for tid in traversal.tract_ids():
        d_j = traversal.D_total(tid)
        c_j = traversal.C_total(tid)
        if d_j <= 0.0 or c_j <= 0.0:
            undefined.append(tid)
            continue
        d_g = traversal.D.get(tid, {})
        c_g = traversal.C.get(tid, {})
        values[tid] = {
            g: d_g.get(g, 0.0) / d_j - c_g.get(g, 0.0) / c_j
            for g in traversal.groups
        }
    if undefined:
        log.info("%d tract(s) undefined (zero traversal or zero commuters)", len(undefined))
    return InequityTable(groups=traversal.groups, values=values, undefined=tuple(undefined))


def population_weighted_mean(
    index: InequityTable,
    tracts: TractSet,
    subset: Iterable[str],
    group: str,
) -> tuple[float, int]:
    """Population-weighted mean of I over the defined tracts of a subset,
    taken in id order, and the number of those tracts; (nan, 0) when the
    subset holds no defined tract."""
    if group not in index.groups:
        raise ValidationError(f"unknown group {group!r}; have {index.groups}")
    subset = set(subset)
    chosen = [tid for tid in index.values if tid in subset]
    if not chosen:
        return math.nan, 0
    num = []
    den = []
    for tid in chosen:
        pop = tracts[tracts.index_of(tid)].attributes.get(tracts.population_column)
        if pop is None or not math.isfinite(pop):
            raise ValidationError(f"tract {tid!r} has no population value")
        num.append(pop * index.values[tid][group])
        den.append(pop)
    total = math.fsum(den)
    if total <= 0.0:
        raise ValidationError("subset population sums to zero")
    return math.fsum(num) / total, len(chosen)


def corridor_subset(
    tracts: TractSet,
    highways: HighwayNetworkGeom,
    route_label: str,
) -> tuple[str, ...]:
    """Tracts, in TractSet order, whose polygon intersects any polyline with the given label.

    Touching counts as intersecting.
    """
    lines = [line for line in highways.polylines if line.label == route_label]
    if not lines:
        raise ValidationError(
            f"unknown route label {route_label!r}; available: "
            + ", ".join(highways.labels)
        )
    line_boxes = [bounding_box(line.points) for line in lines]
    hits: list[str] = []
    for tract in tracts:
        box = bounding_box(tract.polygon)
        if any(boxes_overlap(box, line_box, CONTACT_PAD)
               and polyline_intersects_polygon(line.points, tract.polygon)
               for line, line_box in zip(lines, line_boxes)):
            hits.append(tract.tract_id)
    return tuple(hits)

