"""The package namespace and what each entry point imports.

Every run stage is its own process, and each one pays for the modules it
imports, so loading a stage's inputs must not import the analysis modules.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import tracteq

# The names the package exported before they were loaded on first use,
# grouped by the module that defines them.
EXPORTS = {
    "commute": ("GROUPS", "ODTable", "TraversalTable", "TripAssignment", "assign_groups",
                "load_od", "scale_by_drive_share", "simulate"),
    "config": ("RunConfig", "config_hash", "load_config"),
    "data_model": ("DesignData", "HighwayNetworkGeom", "HighwayPolyline", "Tract", "TractSet",
                   "TransformSpec", "build_design", "distance_to_nearest_highway",
                   "load_highways", "load_tracts"),
    "equity": ("InequityTable", "corridor_subset", "inequity_index", "population_weighted_mean"),
    "errors": ("ConsistencyError", "ParseError", "SelectionError", "SingularityError",
               "TracteqError", "ValidationError"),
    "gwr": ("GwrFit", "GwrSummary", "KernelSpec", "fit_gwr", "fit_local", "select_bandwidth",
            "summarize_gwr"),
    "network": ("Edge", "EdgeTractMap", "Graph", "Route", "build_edge_tract_map", "build_graph",
                "route_tract_distances", "shortest_path"),
    "ols": ("OlsFit", "fit_ols", "robust_covariance"),
    "synth": ("Scenario", "ScenarioSpec", "Surface", "generate", "write_scenario"),
}
ANALYSIS_MODULES = ("tracteq.gwr", "tracteq.ols", "tracteq.equity", "tracteq.report",
                    "tracteq.synth")


def loaded_after(code: str) -> list[str]:
    """The tracteq modules a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('tracteq'))))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def test_loading_inputs_imports_no_analysis_module():
    # What a stage imports to load the config, tracts, highways, street graph
    # and OD table.
    loaded = loaded_after(
        "import tracteq.config, tracteq.data_model, tracteq.network, tracteq.commute")
    assert "tracteq.commute" in loaded
    assert [m for m in ANALYSIS_MODULES if m in loaded] == []


def test_cli_imports_no_analysis_module():
    # Each stage imports the analysis modules it runs when it runs, so a
    # stage subcommand loads only its own.
    loaded = loaded_after("import tracteq.cli")
    assert "tracteq.commute" in loaded
    assert [m for m in ANALYSIS_MODULES if m in loaded] == []


def test_bare_import_loads_no_submodule_until_used():
    assert loaded_after("import tracteq") == ["tracteq"]
    loaded = loaded_after("import tracteq\nassert callable(tracteq.gwr.fit_gwr)")
    assert "tracteq.gwr" in loaded and "tracteq.synth" not in loaded


def test_every_exported_name_is_its_module_attribute():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 54
    assert sorted(tracteq.__all__) == sorted(names)
    listed = dir(tracteq)
    for module_name, group in EXPORTS.items():
        module = importlib.import_module(f"tracteq.{module_name}")
        assert getattr(tracteq, module_name) is module
        assert module_name in listed
        for name in group:
            assert getattr(tracteq, name) is getattr(module, name), name
            assert name in listed, name
    namespace: dict = {}
    exec("from tracteq import *", namespace)
    assert namespace["fit_gwr"] is tracteq.gwr.fit_gwr
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tracteq.no_such_name
    assert callable(tracteq.gwr.compute_aicc)
    assert not hasattr(tracteq, "compute_aicc")  # defined, but not exported
    with pytest.raises(ImportError):
        exec("from tracteq import no_such_name", {})


def test_traced_layers_name_package_functions():
    # bench/traced_run.py times each "<module>.<function>" of LAYERS; one that
    # no longer resolves is only reported as "layers not found" and its
    # per-layer metrics read 0. LAYERS is read from the source, not imported.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "traced_run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    assert layers
    for layer in layers:
        module_name, func_name = layer.split(".")
        module = importlib.import_module(f"tracteq.{module_name}")
        assert callable(getattr(module, func_name, None)), layer
