"""Traversal inequity index and its weighted and corridor summaries.

For tract j and group g the index is the group's share of distance driven
through j minus its share of commuters living in j. Tracts with zero
traversal or zero commuters are undefined and stay out of every summary.
OUTSIDE_ZONE, the km outside every tract, is not a tract: it is neither
defined nor undefined.
The index is one (tracts x groups) array over a TraversalTable's rows.
Tracts come in sorted-id order, that of TraversalTable.zones and of a
TractSet, so nothing here sorts them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .commute import TraversalTable
from .data_model import OUTSIDE_ZONE, HighwayNetworkGeom, TractSet
from .errors import ValidationError
from .geometry import EPS, bounding_box, boxes_overlap, polyline_intersects_polygon

log = logging.getLogger(__name__)

# The farthest apart a ring's box and a polyline's box can be while the
# exact test still reports contact: a contact point lies within EPS of the
# polyline and within EPS of the ring.
CONTACT_PAD = 2.0 * EPS


@dataclass(frozen=True, eq=False)
class InequityTable:
    """The index of the defined tracts and the ids of the undefined ones,
    both in sorted-id order: values[i, k] is tract_ids[i]'s index for
    groups[k]."""

    groups: tuple[str, ...]
    tract_ids: tuple[str, ...]
    values: np.ndarray  # float64, len(tract_ids) x len(groups)
    undefined: tuple[str, ...]


def inequity_index(traversal: TraversalTable) -> InequityTable:
    """I_jg = D_jg / D_j - C_jg / C_j per defined tract, where D_j and C_j
    are the math.fsum of row j; a total past the float range is refused."""
    totals = []
    for zone, d, c in zip(traversal.zones, traversal.D.tolist(), traversal.C.tolist()):
        try:
            totals.append((math.fsum(d), math.fsum(c)))
        except OverflowError:
            raise ValidationError(f"tract {zone!r}: its D_km or C_count total overflows "
                                  "the float range") from None
    d_j, c_j = np.array(totals).reshape(-1, 2).T
    ids = np.array(traversal.zones, object)
    tract = ids != OUTSIDE_ZONE
    defined = tract & (d_j > 0.0) & (c_j > 0.0)
    undefined = tuple(ids[tract & ~defined])
    if undefined:
        log.info("%d tract(s) undefined (zero traversal or zero commuters)", len(undefined))
    values = (traversal.D[defined] / d_j[defined, None]
              - traversal.C[defined] / c_j[defined, None])
    return InequityTable(traversal.groups, tuple(ids[defined]), values, undefined)


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
    rows = [i for i, tid in enumerate(index.tract_ids) if tid in subset]
    if not rows:
        return math.nan, 0
    chosen = [index.tract_ids[i] for i in rows]
    pop = tracts.attribute(tracts.population_column)[[tracts.index_of(t) for t in chosen]]
    if not np.isfinite(pop).all():
        bad = chosen[np.flatnonzero(~np.isfinite(pop))[0]]
        raise ValidationError(f"tract {bad!r} has no population value")
    total = math.fsum(pop.tolist())
    if total <= 0.0:
        raise ValidationError("subset population sums to zero")
    num = pop * index.values[rows, index.groups.index(group)]
    return math.fsum(num.tolist()) / total, len(rows)


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

