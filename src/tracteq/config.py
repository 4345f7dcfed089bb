"""Declarative run configuration: one JSON file drives a reproducible run.

The `columns` map names every analysis variable (key -> {column, transform,
role}); models pick their controls either from the named presets or as an
explicit key list. The config hash covers the JSON as written, not the
resolved configuration: relative input paths are hashed as written, not
resolved, and the contents of the input files are not covered. So two runs
with equal hashes give byte-identical artifacts only when their inputs are
the same files. Worker count is a command-line concern and never part of
the hash.

parse_config is the one place that gives each key its default; RunConfig
has none of its own. The demographic column names default to
data_model.DEMOGRAPHICS, whose keys alone the config may rename. The
integer, boolean and speed keys, the sections and their entries are
checked where they are parsed: a bad value is a ValidationError naming the
key. A model name keys its artifact file names, so it must be a non-empty
string with no path separator or NUL, unique across the models.
"""

from __future__ import annotations

import hashlib
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
    "vkt",
    "prop_white",
    "med_income",
    "truck_volume",
    "dist_highway",
)
FULL_CONTROLS: tuple[str, ...] = LIMITED_CONTROLS + (
    "intersection_density",
    "grade_mean",
    "prop_single_family",
    "med_rooms",
    "mean_household_size",
    "pop_density",
    "med_home_value",
)

# Default transform for each canonical variable key.
DEFAULT_COLUMNS: dict[str, dict[str, str]] = {
    "pm25": {"column": "pm25", "transform": "log", "role": "response"},
    "vkt": {"column": "vkt", "transform": "log", "role": "predictor"},
    "prop_white": {"column": "prop_white", "transform": "identity", "role": "predictor"},
    "med_income": {"column": "med_income", "transform": "identity", "role": "predictor"},
    "truck_volume": {"column": "truck_volume", "transform": "log", "role": "predictor"},
    "dist_highway": {"column": "dist_highway", "transform": "identity", "role": "predictor"},
    "intersection_density": {
        "column": "intersection_density",
        "transform": "identity",
        "role": "predictor",
    },
    "grade_mean": {"column": "grade_mean", "transform": "log", "role": "predictor"},
    "prop_single_family": {
        "column": "prop_single_family",
        "transform": "identity",
        "role": "predictor",
    },
    "med_rooms": {"column": "med_rooms", "transform": "identity", "role": "predictor"},
    "mean_household_size": {
        "column": "mean_household_size",
        "transform": "identity",
        "role": "predictor",
    },
    "pop_density": {"column": "pop_density", "transform": "log", "role": "predictor"},
    "med_home_value": {"column": "med_home_value", "transform": "log", "role": "predictor"},
}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    estimator: str  # ols | gwr
    controls: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.estimator not in ("ols", "gwr"):
            raise ValidationError(f"model {self.name!r}: unknown estimator {self.estimator!r}")


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


def resolve_controls(controls) -> tuple[str, ...]:
    if controls == "limited":
        return LIMITED_CONTROLS
    if controls == "full":
        return FULL_CONTROLS
    if isinstance(controls, (list, tuple)):
        return tuple(str(c) for c in controls)
    raise ValidationError(
        f"controls must be 'limited', 'full', or a column-key list, got {controls!r}"
    )


def config_hash(raw: dict) -> str:
    """Hash of the canonical JSON form, stamped on every artifact."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_KINDS = {"an integer": int, "a number": (int, float), "true or false": bool,
          "a string": str, "an object": dict, "a list": list}


def _require(value, noun: str, key: str):
    """value if JSON gave it as noun says; true and false count only as
    booleans, not as numbers."""
    kind = _KINDS[noun]
    if isinstance(value, kind) and (kind is bool) == isinstance(value, bool):
        return value
    raise ValidationError(f"config key {key} must be {noun}, got {value!r}")


def _section(raw: dict, key: str, noun: str = "an object"):
    """raw[key] checked as noun; empty when absent or null."""
    value = raw.get(key)
    if value is None:
        return _KINDS[noun]()
    return _require(value, noun, key)


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")

    inputs = {
        name: os.path.normpath(os.path.join(
            base_dir, _require(path, "a string", f"inputs.{name}")))
        for name, path in _section(raw, "inputs").items()
    }

    columns: dict[str, TransformSpec] = {}
    raw_columns = raw.get("columns")
    if raw_columns is None:
        raw_columns = DEFAULT_COLUMNS
    for key, entry in _require(raw_columns, "an object", "columns").items():
        merged = dict(DEFAULT_COLUMNS.get(key, {}))
        if entry is not None:
            merged.update(_require(entry, "an object", f"columns.{key}"))
        if "column" not in merged:
            raise ValidationError(f"columns[{key!r}]: 'column' is required")
        columns[key] = TransformSpec(
            column=merged["column"],
            transform=merged.get("transform", "identity"),
            role=merged.get("role", "predictor"),
        )

    models = []
    for i, entry in enumerate(_section(raw, "models", "a list")):
        _require(entry, "an object", f"models[{i}]")
        key = f"models[{i}].name"
        name = _require(entry.get("name", f"model{i + 1}"), "a string", key)
        if not name or any(c in name for c in "/\\\0"):
            raise ValidationError(f"config key {key} must be a non-empty string with no "
                                  f"'/', '\\' or NUL, got {name!r}")
        if any(m.name == name for m in models):
            raise ValidationError(f"config key {key} repeats the model name {name!r}")
        models.append(
            ModelSpec(
                name=name,
                estimator=str(entry.get("estimator", "ols")),
                controls=resolve_controls(entry.get("controls", "limited")),
            )
        )

    gwr = _section(raw, "gwr")
    sim = _section(raw, "simulation")
    demographics = dict(DEMOGRAPHICS)
    for name, column in _section(raw, "demographics").items():
        key = f"demographics.{name}"
        if name not in DEMOGRAPHICS:
            raise ValidationError(f"config key {key} is not one of {', '.join(DEMOGRAPHICS)}")
        if not _require(column, "a string", key):
            raise ValidationError(f"config key {key} must be a non-empty string, got ''")
        demographics[name] = column
    k_min, k_max = gwr.get("k_min"), gwr.get("k_max")
    for key, k in (("gwr.k_min", k_min), ("gwr.k_max", k_max)):
        if k is not None:
            _require(k, "an integer", key)
    if k_min is not None and k_max is not None and k_min > k_max:
        raise ValidationError(f"config key gwr.k_min ({k_min}) exceeds gwr.k_max ({k_max})")
    class_speeds = {}
    for road_class, speed in _section(raw, "class_speeds").items():
        key = f"class_speeds.{road_class}"
        if not 0 < _require(speed, "a number", key) < math.inf:
            raise ValidationError(f"config key {key} must be positive and finite, got {speed!r}")
        class_speeds[road_class] = float(speed)

    config = RunConfig(
        inputs=inputs,
        columns=columns,
        models=tuple(models),
        demographics=demographics,
        k_min=k_min,
        k_max=k_max,
        search_method=gwr.get("method", "golden"),
        aicc_loo=_require(gwr.get("aicc_loo", False), "true or false", "gwr.aicc_loo"),
        sim_mode=sim.get("mode", "fractional"),
        seed=_require(sim.get("seed", 0), "an integer", "simulation.seed"),
        exclude_home=_require(sim.get("exclude_home", False), "true or false",
                              "simulation.exclude_home"),
        attribution_mode=sim.get("attribution", "midpoint"),
        drive_share_column=sim.get("drive_share_column"),
        class_speeds=class_speeds,
        output_dir=os.path.normpath(os.path.join(
            base_dir, _require(raw.get("output_dir", "out"), "a string", "output_dir"))),
        raw=raw,
    )
    if config.sim_mode not in ("bernoulli", "fractional"):
        raise ValidationError(f"unknown simulation mode {config.sim_mode!r}")
    if config.search_method not in ("golden", "exhaustive"):
        raise ValidationError(f"unknown search method {config.search_method!r}")
    if config.attribution_mode not in ("midpoint", "split"):
        raise ValidationError(f"unknown attribution mode {config.attribution_mode!r}")
    # Fail fast on dangling column keys before any computation starts.
    for model in config.models:
        config.model_transforms(model)
    return config


def load_config(path: str) -> RunConfig:
    """The run config in the JSON file at path, its relative paths resolved
    against the file's directory."""
    return parse_config(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


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
