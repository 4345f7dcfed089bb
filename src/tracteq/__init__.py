"""Tract-level spatial equity toolkit.

Global and geographically weighted regression over tract attributes, a
free-flow commute microsimulation over a street graph, and a per-tract
traversal inequity index, all driven by a declarative run config.

The names below and the submodules load on first access (PEP 562), so
``import tracteq.commute`` runs only ``commute`` and what it imports, and
``from tracteq import fit_gwr`` loads ``gwr`` when it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS: dict[str, tuple[str, ...]] = {
    "commute": (
        "GROUPS",
        "ODTable",
        "TraversalTable",
        "TripAssignment",
        "assign_groups",
        "load_od",
        "scale_by_drive_share",
        "simulate",
    ),
    "config": ("RunConfig", "config_hash", "load_config"),
    "data_model": (
        "DesignData",
        "HighwayNetworkGeom",
        "HighwayPolyline",
        "Tract",
        "TractSet",
        "TransformSpec",
        "build_design",
        "distance_to_nearest_highway",
        "load_highways",
        "load_tracts",
    ),
    "equity": ("InequityTable", "corridor_subset", "inequity_index", "population_weighted_mean"),
    "errors": (
        "ConsistencyError",
        "ParseError",
        "SelectionError",
        "SingularityError",
        "TracteqError",
        "ValidationError",
    ),
    "gwr": (
        "GwrFit",
        "GwrSummary",
        "KernelSpec",
        "fit_gwr",
        "fit_local",
        "select_bandwidth",
        "summarize_gwr",
    ),
    "network": (
        "Edge",
        "EdgeTractMap",
        "Graph",
        "Route",
        "build_edge_tract_map",
        "build_graph",
        "route_tract_distances",
        "shortest_path",
    ),
    "ols": ("OlsFit", "fit_ols", "robust_covariance"),
    "synth": ("Scenario", "ScenarioSpec", "Surface", "generate", "write_scenario"),
}
_SUBMODULES = (
    "artifacts", "cli", "commute", "config", "data_model", "equity", "errors",
    "geometry", "gwr", "network", "ols", "report", "synth",
)
# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Load a public name or a submodule on first access and cache it here."""
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
