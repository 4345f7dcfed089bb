"""Load every input a run config names, as a tracteq run does before analysis.

    python3 bench/setup_probe.py CONFIG

Imports tracteq and calls load_config, load_tracts, load_highways,
build_graph, load_od and build_edge_tract_map in the config's attribution
mode, then prints one JSON line with the sizes of what it loaded. The
benchmark times this process from spawn to exit as ``setup_s``.
"""

from __future__ import annotations

import json
import sys

from tracteq.commute import load_od
from tracteq.config import load_config
from tracteq.data_model import load_highways, load_tracts
from tracteq.network import build_edge_tract_map, build_graph


def main(config_path: str) -> None:
    cfg = load_config(config_path)
    tracts = load_tracts(
        cfg.inputs["tracts"],
        cfg.inputs["attributes"],
        population_column=cfg.demographics["population"],
        commuters_column=cfg.demographics["commuters"],
        group_share_column=cfg.demographics["group_share"],
    )
    highways = load_highways(cfg.inputs["highways"]) if "highways" in cfg.inputs else None
    graph = build_graph(cfg.inputs["nodes"], cfg.inputs["edges"], cfg.class_speeds)
    od = load_od(cfg.inputs["od"], tracts)
    edge_map = build_edge_tract_map(graph, tracts, mode=cfg.attribution_mode)
    print(json.dumps({
        "tracts": len(tracts),
        "highways": len(highways.polylines) if highways else 0,
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "od_pairs": len(od.rows),
        "edge_parts": sum(len(parts) for parts in edge_map.parts.values()),
    }, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
