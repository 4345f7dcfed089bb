"""Declarative run configuration: one JSON file drives a reproducible run.

The `columns` map names every analysis variable (key -> {column, transform,
role}); a model's controls are a preset name ("limited" or "full", see
CONTROL_PRESETS) or a list of column keys, each a non-empty string. The
config hash covers the JSON as written, not the resolved configuration:
relative input paths are hashed as written, not resolved, and the contents
of the input files are not covered. So two runs with equal hashes give
byte-identical artifacts only when their inputs are the same files. Worker
count is a command-line concern and never part of the hash.

parse_config checks each object whose keys are fixed (the root, inputs,
gwr, simulation, demographics, a model, a columns entry) against one
table, _KEYS, of each key's kind and default; RunConfig has no defaults of
its own. An unknown key, a value of the wrong kind, or a null where null
does not mean absent is a ValidationError naming the key by its full path.
An input that is absent or null stays out of RunConfig.inputs, so each
stage still names the input it lacks. columns and class_speeds are keyed
by names the config chooses. A model name keys its artifact file names, so
it must be a non-empty string with no path separator or NUL, unique across
the models.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .artifacts import read_json
from .data_model import DEMOGRAPHICS, TransformSpec
from .errors import ValidationError

# Control presets. "limited" is the small specification (the demographic,
# income, truck, and highway-proximity controls); "full" adds the built-form
# controls on top.
LIMITED_CONTROLS: tuple[str, ...] = (
    "vkt", "prop_white", "med_income", "truck_volume", "dist_highway")
FULL_CONTROLS: tuple[str, ...] = LIMITED_CONTROLS + (
    "intersection_density", "grade_mean", "prop_single_family", "med_rooms",
    "mean_household_size", "pop_density", "med_home_value")
CONTROL_PRESETS = {"limited": LIMITED_CONTROLS, "full": FULL_CONTROLS}

# Default entry of each canonical variable key: the column of the same name,
# log-transformed where listed; pm25 is the response, the rest predictors.
_LOGGED = ("pm25", "vkt", "truck_volume", "grade_mean", "pop_density", "med_home_value")
DEFAULT_COLUMNS: dict[str, dict[str, str]] = {
    key: {"column": key, "transform": "log" if key in _LOGGED else "identity",
          "role": "response" if key == "pm25" else "predictor"}
    for key in ("pm25",) + FULL_CONTROLS
}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    estimator: str  # ols | gwr
    controls: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    inputs: dict[str, str]
    columns: dict[str, TransformSpec]
    models: tuple[ModelSpec, ...]
    demographics: dict[str, str]
    k_min: int | None
    k_max: int | None
    search_method: str
    aicc_loo: bool
    sim_mode: str
    seed: int
    exclude_home: bool
    attribution_mode: str
    drive_share_column: str | None
    class_speeds: dict[str, float]
    output_dir: str
    raw: dict = field(compare=False)

    @property
    def response_key(self) -> str:
        keys = [k for k, s in self.columns.items() if s.role == "response"]
        if len(keys) != 1:
            raise ValidationError(f"exactly one response column required, got {len(keys)}")
        return keys[0]

    def model_transforms(self, model: ModelSpec) -> list[TransformSpec]:
        specs = [self.columns[self.response_key]]
        for key in model.controls:
            if key not in self.columns:
                raise ValidationError(
                    f"model {model.name!r} references unknown column key {key!r}"
                )
            specs.append(self.columns[key])
        return specs


def config_hash(raw: dict) -> str:
    """Hash of the canonical JSON form, stamped on every artifact."""
    # Imported here: loading OpenSSL costs every process that stamps nothing.
    import hashlib

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "'limited', 'full' or a list of non-empty strings": lambda v: (
        v in CONTROL_PRESETS if isinstance(v, str)
        else isinstance(v, list) and all(isinstance(c, str) and c != "" for c in v)),
}

# Each fixed-key object of the config: key -> (kind, default). A kind is a
# _KINDS noun or a tuple of the strings allowed.
_KEYS = {
    "root": {
        "inputs": ("an object", {}),
        "columns": ("an object", DEFAULT_COLUMNS),
        "models": ("a list", []),
        "demographics": ("an object", {}),
        "gwr": ("an object", {}),
        "simulation": ("an object", {}),
        "class_speeds": ("an object", {}),
        "output_dir": ("a string", "out"),
    },
    "inputs": {name: ("a string", None) for name in (
        "tracts", "attributes", "nodes", "edges", "od", "highways")},
    "gwr": {
        "k_min": ("an integer", None),
        "k_max": ("an integer", None),
        "method": (("golden", "exhaustive"), "golden"),
        "aicc_loo": ("true or false", False),
    },
    "simulation": {
        "mode": (("bernoulli", "fractional"), "fractional"),
        "seed": ("an integer", 0),
        "exclude_home": ("true or false", False),
        "attribution": (("midpoint", "split"), "midpoint"),
        "drive_share_column": ("a non-empty string", None),
    },
    "demographics": {key: ("a non-empty string", column) for key, column in DEMOGRAPHICS.items()},
    "model": {  # the n-th model's name defaults to model<n>
        "name": ("a string", None),
        "estimator": (("ols", "gwr"), "ols"),
        "controls": ("'limited', 'full' or a list of non-empty strings", "limited"),
    },
    "column": {  # a DEFAULT_COLUMNS key's defaults are its entry there
        "column": ("a non-empty string", None),
        "transform": (("identity", "log"), "identity"),
        "role": (("response", "predictor"), "predictor"),
    },
}


def _require(value, kind, key: str):
    """value if it is of kind: a _KINDS noun or a tuple of allowed strings."""
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        kind = f"one of {', '.join(kind)}"
    elif _KINDS[kind](value):
        return value
    raise ValidationError(f"config key {key} must be {kind}, got {value!r}")


def _fields(obj, row: str, path: str, **defaults) -> dict:
    """The object obj at path checked against _KEYS[row]: its first unknown
    key in document order is refused, each value is checked against its
    kind, and each absent key gets its default (defaults overrides the
    table's). Null counts as absent for an object or a list and for a key
    whose default is null; anywhere else it is refused."""
    keys, prefix = _KEYS[row], f"{path}." if path else ""
    for key in _require(obj, "an object", path):
        if key not in keys:
            raise ValidationError(f"config key {prefix}{key} is not one of {', '.join(keys)}")
    fields = {}
    for key, (kind, default) in keys.items():
        default, value = defaults.get(key, default), obj.get(key)
        if value is None and (key not in obj or default is None or kind in ("an object", "a list")):
            fields[key] = default
        else:
            fields[key] = _require(value, kind, prefix + key)
    return fields


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    root = _fields(raw, "root", "")

    inputs = {
        name: os.path.normpath(os.path.join(base_dir, path))
        for name, path in _fields(root["inputs"], "inputs", "inputs").items()
        if path is not None
    }

    columns: dict[str, TransformSpec] = {}
    for key, entry in root["columns"].items():
        spec = _fields({} if entry is None else entry, "column", f"columns.{key}",
                       **DEFAULT_COLUMNS.get(key, {}))
        if spec["column"] is None:
            raise ValidationError(f"config key columns.{key}.column is required")
        columns[key] = TransformSpec(**spec)

    models = []
    for i, entry in enumerate(root["models"]):
        model = _fields(entry, "model", f"models[{i}]", name=f"model{i + 1}")
        name, key = model["name"], f"models[{i}].name"
        if not name or any(c in name for c in "/\\\0"):
            raise ValidationError(f"config key {key} must be a non-empty string with no "
                                  f"'/', '\\' or NUL, got {name!r}")
        if any(m.name == name for m in models):
            raise ValidationError(f"config key {key} repeats the model name {name!r}")
        controls = model["controls"]
        controls = CONTROL_PRESETS[controls] if isinstance(controls, str) else tuple(controls)
        models.append(ModelSpec(name, model["estimator"], controls))

    gwr = _fields(root["gwr"], "gwr", "gwr")
    sim = _fields(root["simulation"], "simulation", "simulation")
    if gwr["k_min"] is not None and gwr["k_max"] is not None and gwr["k_min"] > gwr["k_max"]:
        raise ValidationError(
            f"config key gwr.k_min ({gwr['k_min']}) exceeds gwr.k_max ({gwr['k_max']})")
    class_speeds = {}
    for road_class, speed in root["class_speeds"].items():
        key = f"class_speeds.{road_class}"
        if not 0 < _require(speed, "a number", key) < math.inf:
            raise ValidationError(f"config key {key} must be positive and finite, got {speed!r}")
        class_speeds[road_class] = float(speed)

    config = RunConfig(
        inputs=inputs,
        columns=columns,
        models=tuple(models),
        demographics=_fields(root["demographics"], "demographics", "demographics"),
        k_min=gwr["k_min"],
        k_max=gwr["k_max"],
        search_method=gwr["method"],
        aicc_loo=gwr["aicc_loo"],
        sim_mode=sim["mode"],
        seed=sim["seed"],
        exclude_home=sim["exclude_home"],
        attribution_mode=sim["attribution"],
        drive_share_column=sim["drive_share_column"],
        class_speeds=class_speeds,
        output_dir=os.path.normpath(os.path.join(base_dir, root["output_dir"])),
        raw=raw,
    )
    # Fail fast on dangling column keys before any computation starts.
    for model in config.models:
        config.model_transforms(model)
    return config


def load_config(path: str) -> RunConfig:
    """The run config in the JSON file at path, its relative paths resolved
    against the file's directory. Its errors name the file."""
    raw = read_json(path)
    try:
        return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def replication_config(
    inputs: dict[str, str], output_dir: str = "out", seed: int = 0
) -> dict:
    """Raw config running the four-model replication harness on user data:
    two OLS fits (limited and full controls) and their GWR counterparts."""
    return {
        "inputs": dict(inputs),
        "columns": {k: dict(v) for k, v in DEFAULT_COLUMNS.items()},
        "demographics": {**DEMOGRAPHICS, "group_share": "prop_white"},
        "models": [
            {"name": "model1", "estimator": "ols", "controls": "limited"},
            {"name": "model2", "estimator": "ols", "controls": "full"},
            {"name": "model3", "estimator": "gwr", "controls": "limited"},
            {"name": "model4", "estimator": "gwr", "controls": "full"},
        ],
        "gwr": {"method": "golden"},
        "simulation": {"mode": "bernoulli", "seed": seed},
        "output_dir": output_dir,
    }
