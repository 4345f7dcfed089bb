"""Tract-level spatial equity toolkit.

Global and geographically weighted regression over tract attributes, a
free-flow commute microsimulation over a street graph, and a per-tract
traversal inequity index, all driven by a declarative run config.
"""

__version__ = "0.1.0"

from .commute import (
    GROUPS,
    ODTable,
    TraversalTable,
    TripAssignment,
    assign_groups,
    load_od,
    scale_by_drive_share,
    simulate,
)
from .config import RunConfig, config_hash, load_config
from .data_model import (
    DesignData,
    HighwayNetworkGeom,
    HighwayPolyline,
    Tract,
    TractSet,
    TransformSpec,
    build_design,
    distance_to_nearest_highway,
    load_highways,
    load_tracts,
)
from .equity import InequityTable, corridor_subset, inequity_index, population_weighted_mean
from .errors import (
    ConsistencyError,
    ParseError,
    SelectionError,
    SingularityError,
    TracteqError,
    ValidationError,
)
from .gwr import (
    GwrFit,
    GwrSummary,
    KernelSpec,
    adaptive_bandwidth,
    fit_gwr,
    fit_local,
    gaussian_weights,
    select_bandwidth,
    summarize_gwr,
)
from .network import (
    Edge,
    EdgeTractMap,
    Graph,
    Route,
    build_edge_tract_map,
    build_graph,
    route_tract_distances,
    shortest_path,
)
from .ols import OlsFit, fit_ols, robust_covariance
from .synth import Scenario, ScenarioSpec, Surface, generate, write_scenario
