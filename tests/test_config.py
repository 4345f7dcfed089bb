import json
import os
import re

import pytest

from tracteq.cli import synth_run_config
from tracteq.config import (
    _KEYS,
    DEFAULT_COLUMNS,
    FULL_CONTROLS,
    LIMITED_CONTROLS,
    config_hash,
    load_config,
    parse_config,
    replication_config,
)
from tracteq.errors import ParseError, ValidationError


def minimal_raw():
    return {
        "inputs": {"tracts": "tracts.geojson", "attributes": "attrs.csv"},
        "columns": {
            "pm25": {"column": "pm25", "transform": "log", "role": "response"},
            "vkt": {"column": "vkt", "transform": "log", "role": "predictor"},
        },
        "models": [{"name": "m1", "estimator": "ols", "controls": ["vkt"]}],
    }


def test_presets():
    raw = minimal_raw()
    raw["columns"] = {**DEFAULT_COLUMNS, "a": {"column": "a"}, "b": {"column": "b"}}

    def controls(value):
        raw["models"][0]["controls"] = value
        return parse_config(raw).models[0].controls

    assert controls("limited") == LIMITED_CONTROLS
    assert controls("full") == FULL_CONTROLS
    assert set(LIMITED_CONTROLS) < set(FULL_CONTROLS)
    assert controls(["a", "b"]) == ("a", "b")
    with pytest.raises(ValidationError):
        controls("everything")


def test_parse_minimal():
    cfg = parse_config(minimal_raw(), base_dir="/data")
    assert cfg.inputs["tracts"] == "/data/tracts.geojson"
    assert cfg.response_key == "pm25"
    assert cfg.models[0].controls == ("vkt",)
    specs = cfg.model_transforms(cfg.models[0])
    assert [s.column for s in specs] == ["pm25", "vkt"]
    assert specs[0].role == "response"


def test_parse_fills_default_columns():
    raw = minimal_raw()
    raw["columns"]["med_income"] = {}
    cfg = parse_config(raw)
    assert cfg.columns["med_income"].column == "med_income"
    assert cfg.columns["med_income"].transform == "identity"


def test_parse_rejects_unknown_estimator():
    raw = minimal_raw()
    raw["models"][0]["estimator"] = "kriging"
    with pytest.raises(ValidationError, match="kriging"):
        parse_config(raw)


def test_parse_rejects_dangling_control_key():
    raw = minimal_raw()
    raw["models"][0]["controls"] = ["vkt", "not_a_key"]
    with pytest.raises(ValidationError, match="not_a_key"):
        parse_config(raw)


def test_parse_rejects_bad_modes():
    raw = minimal_raw()
    raw["simulation"] = {"mode": "poisson"}
    with pytest.raises(ValidationError, match="poisson"):
        parse_config(raw)
    raw = minimal_raw()
    raw["gwr"] = {"method": "grid"}
    with pytest.raises(ValidationError, match="grid"):
        parse_config(raw)
    raw = minimal_raw()
    raw["simulation"] = {"attribution": "nearest"}
    with pytest.raises(ValidationError, match="nearest"):
        parse_config(raw)


def test_parse_requires_one_response():
    raw = minimal_raw()
    raw["columns"]["pm25"]["role"] = "predictor"
    with pytest.raises(ValidationError, match="response"):
        parse_config(raw)


def test_config_hash_stable_under_key_order():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash({"b": 1, "a": {"y": 2, "x": 4}}) != config_hash(a)


def test_load_config_resolves_relative_to_file(tmp_path):
    cfg_path = tmp_path / "run" / "config.json"
    cfg_path.parent.mkdir()
    cfg_path.write_text(json.dumps(minimal_raw()))
    cfg = load_config(str(cfg_path))
    assert cfg.inputs["tracts"] == str(tmp_path / "run" / "tracts.geojson")
    assert cfg.output_dir == str(tmp_path / "run" / "out")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ParseError, match=re.escape(f"{p}: Expecting property name")):
        load_config(str(p))


def test_replication_config_four_models():
    raw = replication_config({"tracts": "t.geojson"}, seed=7)
    cfg = parse_config(raw)
    assert [m.name for m in cfg.models] == ["model1", "model2", "model3", "model4"]
    assert cfg.models[0].controls == LIMITED_CONTROLS
    assert cfg.models[1].controls == FULL_CONTROLS
    assert cfg.models[2].estimator == cfg.models[3].estimator == "gwr"
    assert cfg.seed == 7
    assert cfg.sim_mode == "bernoulli"
    assert cfg.demographics["group_share"] == "prop_white"
    assert cfg.response_key == "pm25"


def test_sim_settings_parsed():
    raw = minimal_raw()
    raw["simulation"] = {
        "mode": "bernoulli", "seed": 3, "exclude_home": True,
        "attribution": "split", "drive_share_column": "drive",
    }
    raw["class_speeds"] = {"alley": 5.0}
    cfg = parse_config(raw)
    assert cfg.sim_mode == "bernoulli"
    assert cfg.seed == 3
    assert cfg.exclude_home is True
    assert cfg.attribution_mode == "split"
    assert cfg.drive_share_column == "drive"
    assert cfg.class_speeds == {"alley": 5.0}


MALFORMED = [
    ("simulation", {"seed": "abc"}, "simulation.seed"),
    ("simulation", {"seed": 2.5}, "simulation.seed"),
    ("simulation", {"seed": True}, "simulation.seed"),
    ("gwr", {"k_min": 5.5}, "gwr.k_min"),
    ("gwr", {"k_min": "7"}, "gwr.k_min"),
    ("gwr", {"k_max": False}, "gwr.k_max"),
    ("gwr", {"k_min": 9, "k_max": 8}, "gwr.k_min"),
    ("simulation", {"exclude_home": "false"}, "simulation.exclude_home"),
    ("simulation", {"exclude_home": 0}, "simulation.exclude_home"),
    ("gwr", {"aicc_loo": "no"}, "gwr.aicc_loo"),
    ("class_speeds", {"street": "fast"}, "class_speeds.street"),
    ("class_speeds", {"street": True}, "class_speeds.street"),
    ("class_speeds", {"street": 0}, "class_speeds.street"),
    ("class_speeds", {"street": -3.0}, "class_speeds.street"),
    ("class_speeds", {"street": float("nan")}, "class_speeds.street"),
    # a model name keys artifact file names: a string, file-safe, unique
    ("models", [{"name": None, "controls": ["vkt"]}], "models[0].name"),
    ("models", [{"name": 5, "controls": ["vkt"]}], "models[0].name"),
    ("models", [{"name": "", "controls": ["vkt"]}], "models[0].name"),
    ("models", [{"name": "/../../escaped", "controls": ["vkt"]}], "models[0].name"),
    ("models", [{"name": "a\\b", "controls": ["vkt"]}], "models[0].name"),
    ("models", [{"name": "a", "controls": ["vkt"]}, {"name": "a", "controls": []}],
     "models[1].name"),
    # the default name of the second model is model2
    ("models", [{"name": "model2", "controls": ["vkt"]}, {"controls": []}], "models[1].name"),
    # an infinite speed gives its class's edges a zero travel time
    ("class_speeds", {"street": float("inf")}, "class_speeds.street"),
    ("class_speeds", {"street": -float("inf")}, "class_speeds.street"),
    ("demographics", {"population": 5}, "demographics.population"),
    ("demographics", {"commuters": ""}, "demographics.commuters"),
    ("demographics", {"group_share": None}, "demographics.group_share"),
    # a misspelt key would leave the default column in use
    ("demographics", {"populaton": "pop"}, "demographics.populaton"),
]


@pytest.mark.parametrize("section,values,key", MALFORMED)
def test_parse_rejects_malformed_values_naming_the_key(section, values, key):
    raw = minimal_raw()
    raw[section] = values
    with pytest.raises(ValidationError, match=re.escape(key)):
        parse_config(raw)


MALFORMED_SHAPES = [
    ("class_speeds", ["x"], "class_speeds"),
    ("inputs", ["a"], "inputs"),
    ("inputs", {"tracts": 5}, "inputs.tracts"),
    ("simulation", [1], "simulation"),
    ("gwr", "golden", "gwr"),
    ("models", ["m1"], "models[0]"),
    ("models", {"name": "m1"}, "models"),
    ("columns", {"pm25": "pm25"}, "columns.pm25"),
    ("columns", ["pm25"], "columns"),
    ("demographics", ["a"], "demographics"),
    ("output_dir", 5, "output_dir"),
]


@pytest.mark.parametrize("section,value,key", MALFORMED_SHAPES)
def test_parse_rejects_malformed_sections_naming_the_key(section, value, key):
    raw = minimal_raw()
    raw[section] = value
    with pytest.raises(ValidationError, match=rf"config key {re.escape(key)} must be"):
        parse_config(raw)


def test_parse_names_an_unnamed_model_by_its_position():
    raw = minimal_raw()
    raw["models"] = [{"controls": ["vkt"]}, {"name": "m", "controls": []}, {"controls": []}]
    assert [m.name for m in parse_config(raw).models] == ["model1", "m", "model3"]


def test_parse_rejects_a_root_that_is_no_object():
    with pytest.raises(ValidationError, match="config root must be a JSON object"):
        parse_config([minimal_raw()])


def test_parse_requires_the_column_of_a_key_without_defaults():
    raw = minimal_raw()
    raw["columns"]["extra"] = {"transform": "log"}
    with pytest.raises(ValidationError, match=r"config key columns\.extra\.column is required"):
        parse_config(raw)


def test_parse_treats_null_sections_as_absent():
    raw = minimal_raw()
    raw.update(gwr=None, simulation=None, class_speeds=None, demographics=None)
    raw["columns"]["vkt"] = None
    cfg = parse_config(raw)
    assert cfg.columns["vkt"].column == "vkt"
    assert (cfg.k_min, cfg.sim_mode, cfg.class_speeds) == (None, "fractional", {})
    assert cfg.demographics["group_share"] == "group_share"
    raw.update(inputs=None, models=None)
    assert parse_config(raw).inputs == {} and parse_config(raw).models == ()


def test_parse_keeps_valid_typed_values():
    raw = minimal_raw()
    raw["gwr"] = {"k_min": 8, "k_max": 8, "aicc_loo": False}
    raw["simulation"] = {"seed": 0, "exclude_home": False}
    raw["class_speeds"] = {"street": 7, "alley": 1e300}
    raw["demographics"] = {"population": "pop_total"}
    cfg = parse_config(raw)
    assert (cfg.k_min, cfg.k_max, cfg.aicc_loo) == (8, 8, False)
    assert (cfg.seed, cfg.exclude_home) == (0, False)
    assert cfg.class_speeds == {"street": 7.0, "alley": 1e300}
    assert cfg.demographics == {"population": "pop_total", "commuters": "commuters",
                                "group_share": "group_share"}
    assert type(cfg.class_speeds["street"]) is float
    defaults = parse_config(minimal_raw())
    assert (defaults.k_min, defaults.k_max, defaults.seed) == (None, None, 0)
    assert defaults.aicc_loo is False and defaults.exclude_home is False


def _set(raw, path, value):
    """raw with the value at path set, making the objects on the way."""
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return raw


# (row of _KEYS, path in minimal_raw, unknown key, full key in the message)
UNKNOWN_KEYS = [
    ("root", (), "simulaton", "simulaton"),
    ("gwr", ("gwr",), "kmin", "gwr.kmin"),
    ("simulation", ("simulation",), "seeed", "simulation.seeed"),
    ("demographics", ("demographics",), "populaton", "demographics.populaton"),
    ("model", ("models", 0), "estimater", "models[0].estimater"),
    ("column", ("columns", "vkt"), "transfrom", "columns.vkt.transfrom"),
    ("inputs", ("inputs",), "highway", "inputs.highway"),
]


@pytest.mark.parametrize("row,path,key,name", UNKNOWN_KEYS)
def test_parse_refuses_an_unknown_key_naming_its_full_path(row, path, key, name):
    raw = _set(minimal_raw(), path + (key,), "log")
    with pytest.raises(ValidationError, match=re.escape(
            f"config key {name} is not one of {', '.join(_KEYS[row])}")):
        parse_config(raw)


def test_unknown_key_cases_cover_every_fixed_key_object():
    assert {row for row, *_ in UNKNOWN_KEYS} == set(_KEYS)


def test_parse_names_the_first_unknown_key_in_document_order():
    raw = minimal_raw()
    raw["gwr"] = {"method": "golden", "kmax": 9, "kmin": 3}
    with pytest.raises(ValidationError, match=r"config key gwr\.kmax is not"):
        parse_config(raw)


# (row of _KEYS, path in minimal_raw, a value of the wrong kind, the message's end)
WRONG_KINDS = [
    ("root", ("inputs",), 5, "must be an object, got 5"),
    ("root", ("columns",), [], "must be an object, got []"),
    ("root", ("models",), {}, "must be a list, got {}"),
    ("root", ("demographics",), "x", "must be an object, got 'x'"),
    ("root", ("gwr",), 1, "must be an object, got 1"),
    ("root", ("simulation",), True, "must be an object, got True"),
    ("root", ("class_speeds",), "fast", "must be an object, got 'fast'"),
    ("root", ("output_dir",), ["o"], "must be a string, got ['o']"),
    ("gwr", ("gwr", "k_min"), 5.5, "must be an integer, got 5.5"),
    ("gwr", ("gwr", "k_max"), "8", "must be an integer, got '8'"),
    ("gwr", ("gwr", "method"), "grid", "must be one of golden, exhaustive, got 'grid'"),
    ("gwr", ("gwr", "aicc_loo"), 1, "must be true or false, got 1"),
    ("simulation", ("simulation", "mode"), "poisson",
     "must be one of bernoulli, fractional, got 'poisson'"),
    ("simulation", ("simulation", "seed"), 2.5, "must be an integer, got 2.5"),
    ("simulation", ("simulation", "exclude_home"), "yes", "must be true or false, got 'yes'"),
    ("simulation", ("simulation", "attribution"), "nearest",
     "must be one of midpoint, split, got 'nearest'"),
    ("simulation", ("simulation", "drive_share_column"), ["d"],
     "must be a non-empty string, got ['d']"),
    ("demographics", ("demographics", "population"), 5, "must be a non-empty string, got 5"),
    ("demographics", ("demographics", "commuters"), [], "must be a non-empty string, got []"),
    ("demographics", ("demographics", "group_share"), "", "must be a non-empty string, got ''"),
    ("model", ("models", 0, "name"), 5, "must be a string, got 5"),
    ("model", ("models", 0, "estimator"), "kriging", "must be one of ols, gwr, got 'kriging'"),
    ("model", ("models", 0, "controls"), "everything",
     "must be 'limited', 'full' or a list of non-empty strings, got 'everything'"),
    ("column", ("columns", "vkt", "column"), ["vkt"], "must be a non-empty string, got ['vkt']"),
    ("column", ("columns", "vkt", "transform"), "sqrt",
     "must be one of identity, log, got 'sqrt'"),
    ("column", ("columns", "vkt", "role"), "target",
     "must be one of response, predictor, got 'target'"),
    ("inputs", ("inputs", "tracts"), 5, "must be a string, got 5"),
    ("inputs", ("inputs", "attributes"), ["a.csv"], "must be a string, got ['a.csv']"),
    ("inputs", ("inputs", "nodes"), {}, "must be a string, got {}"),
    ("inputs", ("inputs", "edges"), True, "must be a string, got True"),
    ("inputs", ("inputs", "od"), 1.5, "must be a string, got 1.5"),
    ("inputs", ("inputs", "highways"), ["h"], "must be a string, got ['h']"),
    ("model", ("models", 0, "controls"), [5],
     "must be 'limited', 'full' or a list of non-empty strings, got [5]"),
    ("model", ("models", 0, "controls"), [None],
     "must be 'limited', 'full' or a list of non-empty strings, got [None]"),
    ("model", ("models", 0, "controls"), ["vkt", ""],
     "must be 'limited', 'full' or a list of non-empty strings, got ['vkt', '']"),
]


def _key_name(path):
    return re.sub(r"\.(\d+)", r"[\1]", ".".join(str(k) for k in path))


@pytest.mark.parametrize("row,path,value,message", WRONG_KINDS)
def test_parse_refuses_a_value_of_the_wrong_kind(row, path, value, message):
    raw = _set(minimal_raw(), path, value)
    with pytest.raises(ValidationError, match=re.escape(
            f"config key {_key_name(path)} {message}")):
        parse_config(raw)


def test_wrong_kind_cases_cover_every_key():
    covered = {(row, path[-1]) for row, path, *_ in WRONG_KINDS}
    assert covered == {(row, key) for row, keys in _KEYS.items() for key in keys}


NULL_REFUSED = [("output_dir",), ("gwr", "method"), ("gwr", "aicc_loo"),
                ("simulation", "mode"), ("simulation", "seed"),
                ("simulation", "exclude_home"), ("simulation", "attribution"),
                ("demographics", "population"), ("models", 0, "estimator"),
                ("models", 0, "controls"), ("columns", "vkt", "column"),
                ("columns", "vkt", "transform"), ("columns", "vkt", "role")]


@pytest.mark.parametrize("path", NULL_REFUSED)
def test_parse_refuses_null_where_it_is_no_absence(path):
    raw = _set(minimal_raw(), path, None)
    with pytest.raises(ValidationError, match=re.escape(f"config key {_key_name(path)} must be")):
        parse_config(raw)


def test_parse_treats_null_keys_with_a_null_default_as_absent():
    raw = minimal_raw()
    raw["gwr"] = {"k_min": None, "k_max": None}
    raw["simulation"] = {"drive_share_column": None}
    raw["inputs"]["od"] = None
    cfg = parse_config(raw)
    assert (cfg.k_min, cfg.k_max, cfg.drive_share_column) == (None, None, None)
    assert "od" not in cfg.inputs


def test_parse_keeps_absent_inputs_absent():
    # Each stage names the input it lacks, so an absent input gets no entry.
    assert set(parse_config(minimal_raw(), base_dir="/data").inputs) == {"tracts", "attributes"}
    names = ("tracts", "attributes", "nodes", "edges", "od", "highways")
    raw = minimal_raw()
    raw["inputs"] = {name: f"{name}.dat" for name in reversed(names)}
    cfg = parse_config(raw, base_dir="/data")
    assert cfg.inputs == {name: f"/data/{name}.dat" for name in names}
    assert parse_config({"inputs": {}}).inputs == {}


def test_parse_refuses_a_misspelt_input_naming_it():
    raw = minimal_raw()
    raw["inputs"]["highway"] = "highways.geojson"
    with pytest.raises(ValidationError, match=re.escape(
            "config key inputs.highway is not one of tracts, attributes, nodes, edges, od, "
            "highways")):
        parse_config(raw)


def test_load_config_errors_name_the_file(tmp_path):
    for doc, message in (({"output_dir": 5}, "config key output_dir must be a string, got 5"),
                         ([], "config root must be a JSON object")):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(str(path))


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        example = re.search(r"## Config\n\n```json\n(.*?)```", fh.read(), re.S).group(1)
    cfg = parse_config(json.loads(example), base_dir="/data")
    assert [m.estimator for m in cfg.models] == ["ols", "gwr"]
    assert (cfg.sim_mode, cfg.seed, cfg.class_speeds) == ("bernoulli", 7, {"street": 11.0})


def test_synth_run_config_parses():
    from tracteq.synth import ScenarioSpec, generate

    scenario = generate(ScenarioSpec(rows=3, cols=3, od_pairs=2, seed=4))
    paths = {k: f"/s/{k}.csv" for k in ("tracts", "attributes", "nodes", "edges", "od")}
    cfg = parse_config(synth_run_config(scenario, paths, "/s"), base_dir="/s")
    assert [(m.name, m.estimator, m.controls) for m in cfg.models] == [
        ("global", "ols", ("x1",)), ("local", "gwr", ("x1",))]
    assert (cfg.response_key, cfg.seed, cfg.output_dir) == ("y", 4, "/s/out")
