"""End-to-end tests of the command line: every artifact of a config-driven
run, plus the error paths that should turn into exit codes instead of
tracebacks."""

import ast
import filecmp
import gc
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracteq
from tracteq import __version__
from tracteq import cli, equity
from tracteq.cli import main
from tracteq.config import config_hash, load_config
from tracteq.data_model import load_tracts

HEADER_PREFIX = f"# tracteq v{__version__} config="


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    rc = main([
        "synth", "--out", str(out),
        "--rows", "6", "--cols", "6",
        "--od-pairs", "25", "--max-count", "8",
        "--seed", "3", "--highway-row", "3",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(out)])
    assert rc == 0
    return out


def test_import_loads_no_scipy():
    # Importing scipy.spatial and scipy.linalg costs every run ~0.3 s and
    # ~33 MB; the package needs numpy only.
    code = (
        "import sys, tracteq, tracteq.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_synth_writes_inputs_and_config(scenario_dir):
    for name in ("tracts.geojson", "attributes.csv", "nodes.csv",
                 "edges.csv", "od.csv", "highways.geojson", "config.json"):
        assert (scenario_dir / name).exists(), name
    with open(scenario_dir / "config.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    assert [m["name"] for m in raw["models"]] == ["global", "local"]
    assert raw["columns"]["y"]["role"] == "response"


def test_run_produces_all_artifacts(run_dir):
    expected = [
        "ols_global.csv", "ols_global.json", "ols_summary.txt",
        "gwr_local_local.csv", "gwr_local.geojson",
        "gwr_local_summary.txt", "gwr_local.json",
        "traversal.csv", "simulate.json",
        "equity.csv", "equity.geojson",
        "equity_summary_white.txt", "equity_summary_non_white.txt",
        "equity_white.svg", "equity_non_white.svg",
        "report.txt",
    ]
    for name in expected:
        assert (run_dir / name).exists(), name
    assert not (run_dir / "FAILED").exists()


def test_artifact_headers_carry_version_config_seed(run_dir):
    for name in ("ols_global.csv", "gwr_local_local.csv", "traversal.csv",
                 "equity.csv", "gwr_local_summary.txt",
                 "equity_summary_white.txt", "report.txt"):
        first = read_lines(run_dir / name)[0]
        assert first.startswith(HEADER_PREFIX), name
        assert "seed=3" in first, name


def test_run_twice_byte_identical(scenario_dir, run_dir, tmp_path_factory):
    again = tmp_path_factory.mktemp("run_again")
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(again)])
    assert rc == 0
    names = sorted(os.listdir(run_dir))
    assert names == sorted(os.listdir(again))
    for name in names:
        assert filecmp.cmp(run_dir / name, again / name, shallow=False), name


def test_ols_csv_shape(run_dir):
    lines = read_lines(run_dir / "ols_global.csv")
    assert lines[1] == "term,estimate,robust_se,t"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["intercept", "x1", "n", "r_squared"]
    assert rows[-2][1] == "36"
    # numeric cells round-trip exactly because they are written with repr
    est = float(rows[0][1])
    with open(run_dir / "ols_global.json", encoding="utf-8") as fh:
        blob = json.load(fh)
    assert est == blob["coefficients"][0]
    assert blob["n"] == 36 and blob["k"] == 1


def test_gwr_artifacts(run_dir):
    lines = read_lines(run_dir / "gwr_local_local.csv")
    assert lines[1] == ("tract_id,coef:intercept,coef:x1,t:intercept,t:x1,"
                        "local_r2,bandwidth_m")
    assert len(lines) == 2 + 36

    with open(run_dir / "gwr_local.json", encoding="utf-8") as fh:
        blob = json.load(fh)
    assert blob["k_range"] == [10, 36]
    assert blob["n_used"] + blob["n_failed"] == 36
    assert 10 <= blob["neighbors_k"] <= 36

    with open(run_dir / "gwr_local.geojson", encoding="utf-8") as fh:
        gj = json.load(fh)
    assert len(gj["features"]) == 36
    props = gj["features"][0]["properties"]
    assert {"coef:intercept", "coef:x1", "local_r2"} <= set(props)


def test_report_collects_every_section(run_dir):
    text = "\n".join(read_lines(run_dir / "report.txt"))
    assert "global" in text and "local" in text
    assert "white" in text and "non_white" in text
    assert "n " in text or "n=" in text or "  n" in text


def test_ingest_summary(scenario_dir, tmp_path, capsys):
    rc = main(["ingest", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "ingested 36 tracts" in capsys.readouterr().out
    with open(tmp_path / "ingest.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["n_tracts"] == 36
    assert summary["highway_labels"] == ["H1"]
    assert len(summary["meta"]["config"]) == 12


def test_simulate_writes_traversal_and_stats(scenario_dir, tmp_path):
    rc = main(["simulate", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    assert read_lines(tmp_path / "traversal.csv")[0].startswith(HEADER_PREFIX)
    with open(tmp_path / "simulate.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    assert stats["n_pairs"] > 0
    assert stats["n_unreachable"] == 0  # lattice is fully connected
    assert stats["total_km"] > 0.0


def test_run_writes_the_simulate_stats_of_simulate(run_dir, scenario_dir, tmp_path):
    # run and simulate share one writer, so run keeps the unreachable count
    rc = main(["simulate", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    for name in ("simulate.json", "traversal.csv"):
        assert filecmp.cmp(run_dir / name, tmp_path / name, shallow=False), name


def test_equity_computes_each_corridor_once(scenario_dir, tmp_path, monkeypatch):
    rc = main(["simulate", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    calls = []
    real_corridor_subset = equity.corridor_subset

    def spy(tracts, highways, label, *args, **kwargs):
        calls.append(label)
        return real_corridor_subset(tracts, highways, label, *args, **kwargs)

    monkeypatch.setattr(equity, "corridor_subset", spy)
    rc = main(["equity", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    # one call per highway label, whatever the number of groups
    assert calls == ["H1"]
    assert (tmp_path / "equity_summary_white.txt").exists()
    assert (tmp_path / "equity_summary_non_white.txt").exists()


def test_equity_requires_traversal(scenario_dir, tmp_path):
    rc = main(["equity", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_report_requires_artifacts(scenario_dir, tmp_path):
    rc = main(["report", "--config", str(scenario_dir / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_report_refuses_a_network_config_whose_equity_never_ran(scenario_dir, tmp_path,
                                                                 caplog):
    config = str(scenario_dir / "config.json")
    for stage in ("ols", "gwr"):
        assert main([stage, "--config", config, "--out", str(tmp_path)]) == 0
    assert main(["report", "--config", config, "--out", str(tmp_path)]) == 2
    missing = tmp_path / "equity_summary_white.txt"
    assert f"missing artifact {missing} (run equity first)" in caplog.text
    assert not (tmp_path / "report.txt").exists()


def test_route_by_node_ids(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0.0,0.0\nB,1000.0,0.0\nC,3000.0,0.0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms,class,oneway\n"
                     "A,B,1000.0,10.0,street,0\n")
    rc = main(["route", "--nodes", str(nodes), "--edges", str(edges),
               "--origin", "A", "--dest", "B"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "A -> B" in out
    assert "time_s=100.0" in out and "length_m=1000.0" in out

    rc = main(["route", "--nodes", str(nodes), "--edges", str(edges),
               "--origin", "A", "--dest", "C"])
    assert rc == 1
    assert "no route from A to C" in capsys.readouterr().out


def test_route_by_home_work_with_tract_breakdown(scenario_dir, capsys, monkeypatch):
    loads = []

    def spy(*args, **kwargs):
        loads.append(args)
        return load_tracts(*args, **kwargs)

    monkeypatch.setattr(cli, "load_tracts", spy)
    rc = main([
        "route",
        "--nodes", str(scenario_dir / "nodes.csv"),
        "--edges", str(scenario_dir / "edges.csv"),
        "--home", "T000000", "--work", "T000005",
        "--tracts", str(scenario_dir / "tracts.geojson"),
        "--attributes", str(scenario_dir / "attributes.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "->" in out[0]
    assert out[1].startswith("time_s=")
    tract_rows = [ln for ln in out[2:] if ln.startswith("T")]
    assert tract_rows, "expected per-tract meters"
    for ln in tract_rows:
        tid, meters = ln.split(",")
        assert float(meters) > 0.0
    # endpoints and attribution share one load of the tract layers
    assert len(loads) == 1


def test_route_with_degenerate_tract_ring_exits_2(tmp_path, caplog):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0.0,0.0\nB,1000.0,0.0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms\nA,B,1000.0,10.0\n")
    tracts = tmp_path / "tracts.geojson"
    tracts.write_text(json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": {"tract_id": "T1"},
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 1], [0, 0]]]},
    }]}))
    attributes = tmp_path / "attributes.csv"
    attributes.write_text("tract_id,population\nT1,10\n")
    rc = main(["route", "--nodes", str(nodes), "--edges", str(edges),
               "--origin", "A", "--dest", "B",
               "--tracts", str(tracts), "--attributes", str(attributes)])
    assert rc == 2
    assert "tract 'T1'" in caplog.text


def test_route_with_non_numeric_tract_vertex_exits_2(tmp_path, caplog):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0.0,0.0\nB,1000.0,0.0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms\nA,B,1000.0,10.0\n")
    tracts = tmp_path / "tracts.geojson"
    tracts.write_text(json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": {"tract_id": "T1"},
        "geometry": {"type": "Polygon",
                     "coordinates": [[[0, 0], [1, "x"], [1, 1], [0, 1], [0, 0]]]},
    }]}))
    attributes = tmp_path / "attributes.csv"
    attributes.write_text("tract_id,population\nT1,10\n")
    rc = main(["route", "--nodes", str(nodes), "--edges", str(edges),
               "--origin", "A", "--dest", "B",
               "--tracts", str(tracts), "--attributes", str(attributes)])
    assert rc == 2
    assert "feature 'T1': bad coordinate" in caplog.text


@pytest.mark.parametrize("flag", ["--home", "--work"])
def test_route_unknown_home_or_work_tract_exits_2(scenario_dir, caplog, flag):
    ends = {"--home": "T000000", "--work": "T000005", flag: "NOPE"}
    rc = main([
        "route",
        "--nodes", str(scenario_dir / "nodes.csv"),
        "--edges", str(scenario_dir / "edges.csv"),
        *(arg for pair in ends.items() for arg in pair),
        "--tracts", str(scenario_dir / "tracts.geojson"),
        "--attributes", str(scenario_dir / "attributes.csv"),
    ])
    assert rc == 2
    assert f"{flag}: tract 'NOPE'" in caplog.text


def test_route_without_endpoints_exits_2(scenario_dir, caplog):
    rc = main(["route", "--nodes", str(scenario_dir / "nodes.csv"),
               "--edges", str(scenario_dir / "edges.csv"), "--origin", "N000000"])
    assert rc == 2
    assert "need --origin/--dest nodes or --home/--work tracts" in caplog.text


def test_route_home_without_layers_errors(scenario_dir):
    rc = main(["route", "--nodes", str(scenario_dir / "nodes.csv"),
               "--edges", str(scenario_dir / "edges.csv"),
               "--home", "T000000", "--work", "T000005"])
    assert rc == 2


def test_run_failure_leaves_marker(tmp_path):
    scen = tmp_path / "scen"
    rc = main(["synth", "--out", str(scen), "--rows", "4", "--cols", "4",
               "--od-pairs", "5", "--seed", "1"])
    assert rc == 0
    # every OD row names tracts that do not exist, so the simulate stage
    # has nothing left after filtering and must fail the run
    (scen / "od.csv").write_text("home,work,count\nZ9,Z8,4\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(scen / "config.json"), "--out", str(out)])
    assert rc == 1
    marker = (out / "FAILED").read_text()
    assert marker.startswith("simulate:")


def test_infinite_edge_length_stops_simulate_and_run_naming_the_edge(tmp_path, caplog):
    scen = tmp_path / "scen"
    assert main(["synth", "--out", str(scen), "--rows", "3", "--cols", "3",
                 "--seed", "3", "--highway-row", "1"]) == 0
    edges = scen / "edges.csv"
    lines = edges.read_text().splitlines(keepends=True)
    edges.write_text("".join(line.replace(",500.0,", ",inf,", 1)
                             if line.startswith("N000000,") else line for line in lines))
    assert "N000000,N000001,inf," in edges.read_text()
    message = "edge N000000->N000001: travel time must be finite and positive (got inf s"

    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(scen / "config.json"), "--out", str(out)]) == 2
    assert message in caplog.text
    assert not (out / "traversal.csv").exists()

    out = tmp_path / "run"
    assert main(["run", "--config", str(scen / "config.json"), "--out", str(out)]) == 1
    assert (out / "FAILED").read_text().startswith(f"simulate: {message}")
    assert not list(out.glob("equity*")) and not (out / "traversal.csv").exists()


def test_run_without_network_inputs_skips_simulation(tmp_path):
    scen = tmp_path / "scen"
    rc = main(["synth", "--out", str(scen), "--rows", "4", "--cols", "4",
               "--od-pairs", "5", "--seed", "1"])
    assert rc == 0
    cfg_path = scen / "config.json"
    with open(cfg_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    for key in ("nodes", "edges", "od"):
        del raw["inputs"][key]
    cfg_path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")

    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "report.txt").exists()
    assert not (out / "traversal.csv").exists()
    assert not (out / "simulate.json").exists()
    assert not (out / "equity.csv").exists()


def test_bad_config_json_exits_2(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    assert main(["ingest", "--config", str(bad)]) == 2


def test_malformed_config_value_exits_2_without_traceback(scenario_dir, tmp_path):
    config = _config_variant(scenario_dir, tmp_path / "config.json",
                             lambda raw: raw["simulation"].update(seed="abc"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tracteq.cli", "ingest", "--config", config,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "simulation.seed" in out.stderr
    assert "Traceback" not in out.stderr


def test_malformed_config_section_exits_2_without_traceback(scenario_dir, tmp_path):
    config = _config_variant(scenario_dir, tmp_path / "config.json",
                             lambda raw: raw.update(class_speeds=["x"]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tracteq.cli", "ingest", "--config", config,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "class_speeds" in out.stderr
    assert "Traceback" not in out.stderr


def test_misspelt_input_exits_2_naming_the_key_without_traceback(scenario_dir, tmp_path):
    # Unchecked, the misspelt highways input would run without a highway layer.
    def misspell(raw):
        raw["inputs"]["highway"] = raw["inputs"].pop("highways")

    config = _config_variant(scenario_dir, tmp_path / "config.json", misspell)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tracteq.cli", "run", "--config", config,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert f"{config}: config key inputs.highway is not one of" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_class_speed_no_edge_has_exits_2_naming_class_and_file(scenario_dir, tmp_path, caplog):
    config = _config_variant(scenario_dir, tmp_path / "config.json",
                             lambda raw: raw.update(class_speeds={"stret": 1.0}))
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    edges = scenario_dir / "edges.csv"
    assert f"{edges}: no edge has the class_speeds class 'stret'" in caplog.text


@pytest.mark.parametrize("command,edit,message", [
    ("ols", lambda raw: raw["columns"]["x1"].update(column=["x1"]),
     "config key columns.x1.column must be a non-empty string, got ['x1']"),
    ("simulate", lambda raw: raw["simulation"].update(drive_share_column=["d"]),
     "config key simulation.drive_share_column must be a non-empty string, got ['d']"),
    ("ols", lambda raw: raw.update(simulaton={"mode": "bernoulli"}),
     "config key simulaton is not one of"),
    ("ols", lambda raw: raw["models"][0].update(controls=[5]),
     "config key models[0].controls must be 'limited', 'full' or a list of non-empty "
     "strings, got [5]"),
    ("gwr", lambda raw: raw["models"][1].update(controls=[None]),
     "config key models[1].controls must be 'limited', 'full' or a list of non-empty "
     "strings, got [None]"),
])
def test_a_list_for_a_column_name_or_a_misspelt_key_exits_2_naming_the_file(
        scenario_dir, tmp_path, caplog, command, edit, message):
    config = _config_variant(scenario_dir, tmp_path / "config.json", edit)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{config}: {message}" in caplog.text


@pytest.mark.parametrize("args,message", [
    (["--rows", "1"], "grid must be at least 2x2, got 1x4"),
    (["--highway-row", "9"], "highway_row 9 outside [0, 4]"),
    (["--sigma", "-1"], "noise_sigma must be finite and >= 0, got -1.0"),
    (["--max-count", "0", "--od-pairs", "3"], "max_count must be >= 1, got 0"),
    (["--od-pairs", "-2"], "od_pairs must be >= 0, got -2"),
    (["--cell-size", "0", "--group-gradient"], "cell_size must be positive and finite, got 0.0"),
])
def test_synth_refuses_a_bad_argument_with_exit_2(tmp_path, caplog, args, message):
    out = tmp_path / "scenario"
    assert main(["synth", "--out", str(out), "--rows", "4", "--cols", "4", *args]) == 2
    assert message in caplog.text
    assert not out.exists()


def test_synth_flags_set_the_surfaces_they_name(tmp_path, monkeypatch):
    from tracteq import synth
    from tracteq.synth import Surface

    seen = []

    def stop(spec):
        seen.append(spec)
        raise SystemExit(0)

    monkeypatch.setattr(synth, "generate", stop)
    for flags in ([], ["--step", "--group-gradient"]):
        with pytest.raises(SystemExit):
            main(["synth", "--out", str(tmp_path), "--rows", "2", "--cols", "4",
                  "--cell-size", "10", *flags])
    plain, flagged = seen
    assert plain.surfaces == {"intercept": Surface("constant", value=1.0),
                              "x1": Surface("constant", value=2.0)}
    assert plain.group_share == Surface("constant", value=0.5)
    assert flagged.surfaces == {"intercept": Surface("constant", value=1.0),
                                "x1": Surface("step", value=1.0, high_value=3.0,
                                              axis="x", threshold=20.0)}
    assert flagged.group_share == Surface("gradient", value=0.25, gx=0.5 / 40)


@pytest.mark.parametrize("name", ["config", "tracts", "highways"])
def test_a_non_utf8_input_exits_2_without_traceback(name, scenario_dir, tmp_path):
    latin = tmp_path / f"{name}.latin1"
    latin.write_bytes('{"name": "café"}'.encode("latin-1"))
    config = str(latin) if name == "config" else _config_variant(
        scenario_dir, tmp_path / "config.json", lambda raw: raw["inputs"].update({name: str(latin)}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tracteq.cli", "ingest", "--config", config,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert f"{latin}: 'utf-8' codec can't decode byte 0xe9" in out.stderr
    assert out.stderr.count(str(latin)) == 1
    assert "Traceback" not in out.stderr


def test_route_with_a_missing_nodes_file_exits_2_without_traceback(scenario_dir, tmp_path):
    missing = tmp_path / "missing.csv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tracteq.cli", "route", "--nodes", str(missing),
                          "--edges", str(scenario_dir / "edges.csv"),
                          "--origin", "N000000", "--dest", "N000001"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert f"{missing}: No such file or directory" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("key", ["tracts", "attributes"])
def test_config_without_a_tract_input_exits_2_naming_the_key(key, scenario_dir, tmp_path,
                                                             caplog):
    config = _config_variant(scenario_dir, tmp_path / "config.json",
                             lambda raw: raw["inputs"].pop(key))
    message = f"config key inputs.{key} is required"
    assert main(["ingest", "--config", config, "--out", str(tmp_path / "ingest")]) == 2
    assert message in caplog.text
    out = tmp_path / "run"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    assert (out / "FAILED").read_text() == f"ingest: {message}\n"


def test_run_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # At 30 x 30 tracts the GWR products are large enough for OpenBLAS to
    # split their sums over two threads, which moved the last digits of the
    # gwr_local artifacts before GWR pinned one thread (smaller grids did
    # not show it).
    scenario = tmp_path / "scenario"
    assert main(["synth", "--out", str(scenario), "--rows", "30", "--cols", "30", "--step",
                 "--group-gradient", "--highway-row", "15", "--od-pairs", "100",
                 "--seed", "1"]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-m", "tracteq.cli", "run", "--config",
                              str(scenario / "config.json"), "--out", str(out)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert "gwr_local_local.csv" in names and sorted(os.listdir(outs[1])) == names
    _, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    assert (mismatch, errors) == ([], [])


def test_ols_only_run_loads_no_gwr_module(scenario_dir, tmp_path):
    config = _config_variant(
        scenario_dir, tmp_path / "config.json",
        lambda raw: raw.update(models=[m for m in raw["models"] if m["estimator"] == "ols"]))
    code = (
        "import sys; from tracteq.cli import main; "
        f"rc = main(['run', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(rc, 'tracteq.gwr' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.splitlines()[-1].split() == ["0", "False"], out.stderr
    assert (tmp_path / "out" / "report.txt").exists()


def test_report_on_a_gwr_config_loads_no_gwr_module(scenario_dir, run_dir, tmp_path):
    # The report copies each section from a summary file; it fits and
    # renders nothing.
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    (out / "report.txt").unlink()
    config = str(scenario_dir / "config.json")
    assert any(m.estimator == "gwr" for m in load_config(config).models)
    code = (
        "import sys; from tracteq.cli import main; "
        f"rc = main(['report', '--config', {config!r}, '--out', {str(out)!r}]); "
        "print(rc, *(f'tracteq.{m}' in sys.modules for m in ('gwr', 'ols', 'report')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.stdout.splitlines()[-1].split() == ["0", "False", "False", "False"], \
        result.stderr
    assert (out / "report.txt").read_bytes() == (run_dir / "report.txt").read_bytes()


def _traversal(path):
    """(tract_id, group) -> (D_km, C_count) of a traversal.csv."""
    rows = read_lines(path)[2:]
    return {tuple(r.split(",")[:2]): tuple(float(v) for v in r.split(",")[2:]) for r in rows}


@pytest.fixture
def drive_share_scenario(tmp_path):
    """An 8 x 8 scenario whose attribute table has a `drive` column of 0.5."""
    scen = tmp_path / "scen"
    assert main(["synth", "--out", str(scen), "--rows", "8", "--cols", "8",
                 "--od-pairs", "200", "--seed", "5"]) == 0
    lines = read_lines(scen / "attributes.csv")
    (scen / "attributes.csv").write_text(
        "\n".join([lines[0] + ",drive"] + [ln + ",0.5" for ln in lines[1:]]) + "\n")
    return scen


def test_drive_share_column_scales_every_traversal_value(drive_share_scenario, tmp_path):
    # A share of 0.5 is a power of two, so every scaled value is exactly half.
    scen = drive_share_scenario
    plain = _config_variant(scen, tmp_path / "plain.json", lambda raw: None)
    halved = _config_variant(scen, tmp_path / "halved.json",
                             lambda raw: raw["simulation"].update(drive_share_column="drive"))
    tables = []
    for config, out in ((plain, tmp_path / "plain"), (halved, tmp_path / "halved")):
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        tables.append(_traversal(out / "traversal.csv"))
    full, half = tables
    assert half.keys() == full.keys() and len(full) > 100
    for key, values in full.items():
        assert half[key] == tuple(v / 2 for v in values), key


def test_drive_share_column_errors_name_the_column_or_the_tract(
        drive_share_scenario, tmp_path, caplog):
    scen = drive_share_scenario
    absent = _config_variant(scen, tmp_path / "absent.json",
                             lambda raw: raw["simulation"].update(drive_share_column="x"))
    assert main(["simulate", "--config", absent, "--out", str(tmp_path / "out")]) == 2
    assert "drive share column 'x' absent from attribute table" in caplog.text

    home = read_lines(scen / "od.csv")[1].split(",")[0]
    lines = read_lines(scen / "attributes.csv")
    (scen / "attributes.csv").write_text("\n".join(
        ln.removesuffix("0.5") if ln.startswith(home + ",") else ln for ln in lines) + "\n")
    blank = _config_variant(scen, tmp_path / "blank.json",
                            lambda raw: raw["simulation"].update(drive_share_column="drive"))
    assert main(["simulate", "--config", blank, "--out", str(tmp_path / "out")]) == 2
    assert f"no drive share for home tract {home!r}" in caplog.text


@pytest.mark.parametrize("gwr", [{"k_min": 2}, {"k_max": 37}, {"k_min": 40}])
def test_gwr_k_range_outside_the_design_exits_2(scenario_dir, tmp_path, caplog, gwr):
    # 36 tracts and 2 terms: k must lie within [3, 36].
    config = _config_variant(scenario_dir, tmp_path / "config.json",
                             lambda raw: raw["gwr"].update(gwr))
    assert main(["gwr", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "must lie within [3, 36]" in caplog.text
    assert not (tmp_path / "out" / "gwr_local.json").exists()


def test_coinciding_centroids_exit_2_naming_the_model_without_traceback(scenario_dir,
                                                                        tmp_path):
    # Three tracts on one ring: at k = 3 their third nearest neighbour is
    # at distance 0, so their adaptive bandwidths are 0.
    doc = json.loads((scenario_dir / "tracts.geojson").read_text())
    for feature in doc["features"][1:3]:
        feature["geometry"] = doc["features"][0]["geometry"]
    tracts = tmp_path / "tracts.geojson"
    tracts.write_text(json.dumps(doc))

    def edit(raw):
        raw["inputs"]["tracts"] = str(tracts)
        raw["gwr"] = {"k_min": 3, "k_max": 3}

    config = _config_variant(scenario_dir, tmp_path / "config.json", edit)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracteq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tracteq.cli", "gwr", "--config", config,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert ("model 'local': adaptive bandwidth is zero or NaN for 3 tract(s) "
            "(T000000, T000001, T000002)") in out.stderr
    assert "Traceback" not in out.stderr


def _repeat_last_column(path, header_line):
    """Rewrite the CSV file at path with its column row (line header_line,
    counting from 0) naming its last column twice; returns that column."""
    lines = path.read_text().split("\n")
    column = lines[header_line].split(",")[-1]
    lines[header_line] += "," + column
    path.write_text("\n".join(lines))
    return column


@pytest.mark.parametrize("name,stage", [("attributes", "ingest"), ("nodes", "simulate"),
                                        ("edges", "simulate"), ("od", "simulate")])
def test_an_input_naming_a_column_twice_exits_2_naming_file_and_column(
        name, stage, scenario_dir, tmp_path, caplog):
    copy = tmp_path / f"{name}.csv"
    shutil.copy(scenario_dir / f"{name}.csv", copy)
    column = _repeat_last_column(copy, 0)
    config = _config_variant(scenario_dir, tmp_path / "config.json",
                             lambda raw: raw["inputs"].update({name: str(copy)}))
    assert main([stage, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{copy}: header names column {column!r} twice" in caplog.text


def test_a_traversal_naming_a_column_twice_or_repeating_a_row_exits_2(scenario_dir, tmp_path,
                                                                     caplog):
    config = str(scenario_dir / "config.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    traversal = tmp_path / "traversal.csv"
    written = traversal.read_text()

    _repeat_last_column(traversal, 1)  # line 0 is the stamp
    assert main(["equity", "--config", config, "--out", str(tmp_path)]) == 2
    assert f"{traversal}: header names column 'C_count' twice" in caplog.text

    lines = written.splitlines()
    tract, group = lines[2].split(",")[:2]
    traversal.write_text(written + lines[2] + "\n")
    assert main(["equity", "--config", config, "--out", str(tmp_path)]) == 2
    assert (f"{traversal} line {len(lines) + 1}: duplicate row for tract {tract!r}, "
            f"group {group!r}") in caplog.text
    assert not (tmp_path / "equity.csv").exists()


@pytest.mark.parametrize("column, cell", [("D_km", "nan"), ("C_count", "-5")])
def test_a_traversal_cell_that_is_negative_or_not_finite_exits_2(column, cell, scenario_dir,
                                                                 tmp_path, caplog):
    config = str(scenario_dir / "config.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    traversal = tmp_path / "traversal.csv"
    lines = traversal.read_text().splitlines()
    at = lines[1].split(",").index(column)  # line 0 is the stamp
    row = lines[2].split(",")
    row[at] = cell
    lines[2] = ",".join(row)
    traversal.write_text("\n".join(lines) + "\n")
    assert main(["equity", "--config", config, "--out", str(tmp_path)]) == 2
    assert (f"{traversal} line 3: {cell!r} in column {column!r} is not a finite "
            "nonnegative number") in caplog.text
    assert not list(tmp_path.glob("equity*"))


def test_a_traversal_row_whose_total_overflows_exits_2(scenario_dir, tmp_path, caplog):
    # Every cell is finite; the two D_km cells of one tract sum past the
    # float range.
    config = str(scenario_dir / "config.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    traversal = tmp_path / "traversal.csv"
    lines = traversal.read_text().splitlines()
    header = lines[1].split(",")  # line 0 is the stamp
    rows = [line.split(",") for line in lines[2:]]
    tract = rows[0][header.index("tract_id")]
    for row in rows:
        if row[header.index("tract_id")] == tract:
            row[header.index("D_km")] = "1e308"
    traversal.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")
    assert main(["equity", "--config", config, "--out", str(tmp_path)]) == 2
    assert f"tract {tract!r}: its D_km or C_count total overflows" in caplog.text
    assert not list(tmp_path.glob("equity*"))


def test_a_tract_named_like_the_outside_zone_exits_2(scenario_dir, tmp_path, caplog):
    doc = json.loads((scenario_dir / "tracts.geojson").read_text())
    tract = doc["features"][0]["properties"]["tract_id"]
    doc["features"][0]["properties"]["tract_id"] = "__outside__"
    (tmp_path / "tracts.geojson").write_text(json.dumps(doc))
    attributes = (scenario_dir / "attributes.csv").read_text()
    (tmp_path / "attributes.csv").write_text(attributes.replace(f"\n{tract},", "\n__outside__,"))

    def edit(raw):
        raw["inputs"].update(tracts=str(tmp_path / "tracts.geojson"),
                             attributes=str(tmp_path / "attributes.csv"))

    config = _config_variant(scenario_dir, tmp_path / "config.json", edit)
    assert main(["ingest", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "tract_id '__outside__' is reserved" in caplog.text


def _config_variant(scenario_dir, path, edit):
    """The scenario's config with absolute input paths, edited and written to path."""
    raw = json.loads((scenario_dir / "config.json").read_text())
    raw["inputs"] = {k: str(scenario_dir / v) for k, v in raw["inputs"].items()}
    edit(raw)
    path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    return str(path)


def test_run_writes_exactly_the_declared_outputs(scenario_dir, run_dir):
    cfg = load_config(str(scenario_dir / "config.json"))
    declared = set()
    for stage in cli.STAGES:
        if stage.skip(cfg) is None:
            declared |= set(stage.outputs(cfg))
    assert set(os.listdir(run_dir)) == declared


def test_stage_subcommands_in_table_order_match_run(scenario_dir, run_dir, tmp_path):
    cfg = load_config(str(scenario_dir / "config.json"))
    written = set()
    for stage in cli.STAGES:
        rc = main([stage.name, "--config", str(scenario_dir / "config.json"),
                   "--out", str(tmp_path)])
        assert rc == 0, stage.name
        # each subcommand writes all its row declares, and nothing else
        assert set(os.listdir(tmp_path)) - written == set(stage.outputs(cfg)), stage.name
        written |= set(stage.outputs(cfg))
    names = sorted(os.listdir(run_dir))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        assert filecmp.cmp(run_dir / name, tmp_path / name, shallow=False), name


def test_run_loads_the_config_once(scenario_dir, tmp_path, monkeypatch):
    calls = []
    real_load_config = cli.load_config

    def spy(path):
        calls.append(path)
        return real_load_config(path)

    monkeypatch.setattr(cli, "load_config", spy)
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(tmp_path)])
    assert rc == 0
    assert calls == [str(scenario_dir / "config.json")]


def test_json_artifacts_carry_the_header_meta(run_dir):
    header = read_lines(run_dir / "report.txt")[0]
    config = header.split("config=")[1].split()[0]
    for name in ("ingest.json", "ols_global.json", "gwr_local.json", "simulate.json"):
        with open(run_dir / name, encoding="utf-8") as fh:
            meta = json.load(fh)["meta"]
        assert meta == {"tool": f"tracteq v{__version__}", "config": config, "seed": 3}, name


def test_run_clears_outputs_of_skipped_stages(scenario_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(out)])
    assert rc == 0
    assert (out / "traversal.csv").exists()

    def drop_network(raw):
        for key in ("nodes", "edges", "od"):
            del raw["inputs"][key]

    no_network = _config_variant(scenario_dir, tmp_path / "b.json", drop_network)
    rc = main(["run", "--config", no_network, "--out", str(out)])
    assert rc == 0
    left = sorted(n for n in os.listdir(out)
                  if n in ("traversal.csv", "simulate.json") or n.startswith("equity"))
    assert left == []
    report = (out / "report.txt").read_text()
    assert "inequity index" not in report
    assert report.startswith(HEADER_PREFIX)
    # a stage the config cannot run is an error, not a traceback
    assert main(["simulate", "--config", no_network, "--out", str(out)]) == 2


def test_run_removes_artifacts_of_renamed_models(tmp_path):
    scenario = tmp_path / "scenario"
    assert main(["synth", "--out", str(scenario), "--rows", "4", "--cols", "4",
                 "--od-pairs", "10", "--seed", "5"]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(scenario / "config.json"), "--out", str(out)]) == 0
    assert (out / "ols_global.csv").exists()
    (out / "ols_notes.txt").write_text("no tracteq header: not an artifact\n")

    def rename(raw):
        for model in raw["models"]:
            if model["name"] == "global":
                model["name"] = "global2"

    renamed = _config_variant(scenario, tmp_path / "b.json", rename)
    assert main(["run", "--config", renamed, "--out", str(out)]) == 0
    assert [n for n in os.listdir(out) if n.startswith("ols_global.")] == []
    for name in ("ols_global2.csv", "ols_global2.json", "gwr_local.json", "ols_notes.txt"):
        assert (out / name).exists(), name


def test_every_artifact_is_stamped_with_the_config(scenario_dir, run_dir):
    config = config_hash(load_config(str(scenario_dir / "config.json")).raw)
    names = sorted(os.listdir(run_dir))
    assert "equity_white.svg" in names
    for name in names:
        assert cli._written_under(str(run_dir / name)) == config, name
    svg = read_lines(run_dir / "equity_white.svg")
    assert svg[0] == f"<!-- {HEADER_PREFIX[2:]}{config} seed=3 -->"
    assert svg[1].startswith("<svg ")


def test_run_removes_every_file_of_another_config(scenario_dir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    config = config_hash(load_config(str(scenario_dir / "config.json")).raw)
    (out / "extra.txt").write_text("# tracteq v0 config=deadbeef0000 seed=1\nx\n")
    (out / "old.svg").write_text("<!-- tracteq v0 config=deadbeef0000 seed=1 -->\n<svg/>\n")
    (out / "same.txt").write_text(f"# tracteq v0 config={config} seed=3\n")
    (out / "notes.txt").write_text("no stamp: not an artifact\n")
    (out / "sub").mkdir()
    (out / "sub" / "extra.txt").write_text("# tracteq v0 config=deadbeef0000 seed=1\n")
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(out)])
    assert rc == 0
    assert not (out / "extra.txt").exists()
    assert not (out / "old.svg").exists()
    for name in ("same.txt", "notes.txt", "sub/extra.txt", "report.txt"):
        assert (out / name).exists(), name


def test_same_config_rerun_reads_no_stamp_before_its_stages(scenario_dir, tmp_path,
                                                          monkeypatch):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(out)])
    assert rc == 0
    calls = []
    real_written_under = cli._written_under

    def spy(path):
        calls.append(os.path.basename(path))
        return real_written_under(path)

    monkeypatch.setattr(cli, "_written_under", spy)
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(out)])
    assert rc == 0
    # only the stages' own reads of their inputs; the sweep reads nothing
    read_by_stages = {"traversal.csv", "ols_summary.txt", "gwr_local_summary.txt",
                      "equity_summary_white.txt", "equity_summary_non_white.txt"}
    assert set(calls) <= read_by_stages


def test_unparsable_json_artifact_carries_no_config(scenario_dir, run_dir, tmp_path, caplog):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    # run's sweep keeps a file that no stage writes and whose stamp it cannot read
    (out / "extra.json").write_text('{"meta": {"config": ')
    config = str(scenario_dir / "config.json")
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert (out / "extra.json").exists()
    # a stage refuses an input artifact truncated inside its stamp line
    text = (out / "ols_summary.txt").read_text()
    (out / "ols_summary.txt").write_text(text[: text.index("config=")])
    assert main(["report", "--config", config, "--out", str(out)]) == 2
    assert "ols_summary.txt was written under config None" in caplog.text


def test_report_and_equity_refuse_artifacts_of_another_config(scenario_dir, run_dir, tmp_path):
    other = _config_variant(scenario_dir, tmp_path / "b.json",
                            lambda raw: raw["simulation"].update(seed=99))
    for command in ("report", "equity"):
        rc = main([command, "--config", other, "--out", str(run_dir)])
        assert rc == 2, command
    # the refused stages wrote nothing over the first config's artifacts
    assert read_lines(run_dir / "report.txt")[0].endswith("seed=3")
    assert read_lines(run_dir / "equity.csv")[0].endswith("seed=3")


def test_failed_stage_leaves_no_torn_file(scenario_dir, run_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    before = (out / "gwr_local_local.csv").read_bytes()
    calls = []
    open_temps = []
    real_fmt = cli._fmt

    def failing_fmt(value):
        # OLS formats 7 cells; the 50th call falls inside the GWR rows,
        # while their file is being written.
        calls.append(value)
        if len(calls) == 50:
            open_temps.extend(n for n in os.listdir(out) if n.endswith(".tmp"))
            raise RuntimeError("injected failure")
        return real_fmt(value)

    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    rc = main(["run", "--config", str(scenario_dir / "config.json"), "--out", str(out)])
    assert rc == 1
    assert (out / "FAILED").read_text().startswith("gwr: injected failure")
    assert open_temps, "the failure was meant to hit mid-write"
    assert (out / "gwr_local_local.csv").read_bytes() == before
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path, monkeypatch):
    inside = []
    monkeypatch.setattr(cli, "cmd_synth", lambda args: inside.append(gc.isenabled()) or 0)
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["synth", "--out", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert inside == [False]
    assert gc.get_freeze_count() == frozen


def test_run_leaves_no_cycles_that_grow_with_its_inputs(tmp_path):
    # main runs without the cyclic collector, so a cycle made per pair or
    # per tract would leak. After a warm-up run, a 6x6 run (25 pairs) and a
    # 14x14 one (400 pairs) must leave the same garbage: argparse's and
    # logging's, which does not grow with the inputs.
    was_enabled = gc.isenabled()
    gc.disable()
    found = []
    try:
        for i, (grid, pairs) in enumerate(((6, 25), (6, 25), (14, 400))):
            scen = tmp_path / f"scenario{i}"
            assert main([
                "synth", "--out", str(scen), "--rows", str(grid), "--cols", str(grid),
                "--od-pairs", str(pairs), "--seed", "3", "--highway-row", str(grid // 2),
                "--step",
            ]) == 0
            gc.collect()
            assert main(["run", "--config", str(scen / "config.json"),
                         "--out", str(scen / "out")]) == 0
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found[1] == found[2], found


def test_console_script_and_module_run_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["tracteq"]
    module, _, func = script.partition(":")
    assert module == "tracteq.cli"

    main_block = [
        node for node in ast.parse(inspect.getsource(cli)).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(main_block) == 1
    calls = [node.func.id for node in ast.walk(main_block[0])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls == [func]
    assert callable(getattr(cli, func))


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize("flag", [["--workers", "0"], ["--workers=-3"], ["--workers", "two"]])
def test_workers_below_one_exits_2(command, flag, scenario_dir, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(scenario_dir / "config.json"), "--out", str(out),
              *flag])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
