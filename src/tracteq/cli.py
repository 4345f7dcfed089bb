"""Command-line entry point for reproducible config-driven runs.

The analysis is one table of stages, STAGES: ingest, ols, gwr, simulate,
equity and report. `run` executes the table in order and each stage
subcommand executes its own row. A stage imports the analysis modules it
runs (gwr, ols, equity, report) when it runs, so a stage subcommand loads
only its own, and writes exactly what `run` writes for that stage. The
ols, gwr and equity stages each write their tables as summary text files,
and the report stage joins those files and renders nothing. Every artifact
carries the toolkit version, the config hash and the seed (a `#` header
line, an XML comment on an SVG's first line, or a `meta` object in JSON
and GeoJSON). A stage refuses to read an artifact written under another
config, and `run` first deletes every file in the out dir that another
config wrote and this run does not write. Numeric cells are written with
repr so identical runs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, NoReturn

import numpy as np

from . import __version__
from .artifacts import fmt as _fmt, to_dict, write_atomic, write_csv
from .commute import (
    GROUPS,
    assign_groups,
    load_od,
    read_traversal,
    scale_by_drive_share,
    simulate,
    tract_node,
    write_traversal,
)
from .config import RunConfig, config_hash, load_config
from .data_model import (
    DEMOGRAPHICS,
    HighwayNetworkGeom,
    TractSet,
    build_design,
    distance_to_nearest_highway,
    load_highways,
    load_tracts,
    with_column,
)
from .errors import TracteqError, ValidationError
from .network import build_edge_tract_map, build_graph, route_tract_distances, shortest_path

if TYPE_CHECKING:
    from .synth import Scenario

log = logging.getLogger("tracteq")

NETWORK_INPUTS = ("nodes", "edges", "od")
_HEADER_CONFIG = re.compile(r"\bconfig=(\S+)")


def _load_layers(cfg: RunConfig) -> tuple[TractSet, HighwayNetworkGeom | None]:
    for key in ("tracts", "attributes"):
        if key not in cfg.inputs:
            raise ValidationError(f"config key inputs.{key} is required")
    tracts = load_tracts(
        cfg.inputs["tracts"],
        cfg.inputs["attributes"],
        population_column=cfg.demographics["population"],
        commuters_column=cfg.demographics["commuters"],
        group_share_column=cfg.demographics["group_share"],
    )
    highways = None
    if "highways" in cfg.inputs:
        highways = load_highways(cfg.inputs["highways"])
    # The highway-distance covariate is derived, not ingested: fill it in
    # whenever the config names it but the attribute table lacks it.
    dist_spec = cfg.columns.get("dist_highway")
    if dist_spec is not None and highways is not None:
        values = tracts.attribute(dist_spec.column)
        if not np.any(np.isfinite(values)):
            tracts = with_column(
                tracts, dist_spec.column, distance_to_nearest_highway(tracts, highways)
            )
            log.info("computed %r from highway geometry", dist_spec.column)
    return tracts, highways


class Context:
    """What a stage reads: the config, its hash and seed, the out dir, and
    the input layers, loaded on first use."""

    def __init__(self, cfg: RunConfig, outdir: str) -> None:
        self.cfg = cfg
        self.hash = config_hash(cfg.raw)
        self.seed = cfg.seed
        self.outdir = outdir
        self.header = f"tracteq v{__version__} config={self.hash} seed={self.seed}"
        self.meta = {"tool": f"tracteq v{__version__}", "config": self.hash, "seed": self.seed}
        self._layers: tuple[TractSet, HighwayNetworkGeom | None] | None = None

    @property
    def layers(self) -> tuple[TractSet, HighwayNetworkGeom | None]:
        if self._layers is None:
            self._layers = _load_layers(self.cfg)
        return self._layers

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)


def _context(args) -> Context:
    cfg = load_config(args.config)
    return Context(cfg, args.out or cfg.output_dir)


def _write_text(ctx: Context, name: str, text: str) -> None:
    write_atomic(ctx.path(name), [text])


def _write_headed(ctx: Context, name: str, body: str) -> None:
    _write_text(ctx, name, f"# {ctx.header}\n{body}")


def _write_json(ctx: Context, name: str, blob: dict) -> None:
    _write_text(ctx, name, json.dumps({**blob, "meta": ctx.meta}, sort_keys=True) + "\n")


def _write_csv(ctx: Context, name: str, columns: list[str], rows,
               extra_header: tuple[str, ...] = ()) -> None:
    write_csv(ctx.path(name), columns, rows, (ctx.header, *extra_header))


def _artifact(ctx: Context, name: str) -> str:
    """Path of an artifact, refused unless it exists and was written under
    this config."""
    path = ctx.path(name)
    if not os.path.exists(path):
        producer = next(s.name for s in STAGES if name in s.outputs(ctx.cfg))
        raise ValidationError(f"missing artifact {path} (run {producer} first)")
    written_under = _written_under(path)
    if written_under != ctx.hash:
        raise ValidationError(
            f"{path} was written under config {written_under}, not {ctx.hash}; "
            "rerun the stages that write it"
        )
    return path


def _section(ctx: Context, name: str) -> str:
    """The text of a headed artifact after its stamp line."""
    with open(_artifact(ctx, name), encoding="utf-8") as fh:
        fh.readline()
        return fh.read()


def _written_under(path: str) -> str | None:
    """Config hash of an artifact: its JSON `meta`, or the `config=` on its
    first line; None when it carries neither."""
    try:
        with open(path, encoding="utf-8") as fh:
            if path.endswith("json"):
                meta = json.load(fh).get("meta")
                return meta.get("config") if isinstance(meta, dict) else None
            match = _HEADER_CONFIG.search(fh.readline())
    except (ValueError, AttributeError):
        return None
    return match.group(1) if match else None


def _models(cfg: RunConfig, estimator: str) -> list:
    return [m for m in cfg.models if m.estimator == estimator]


def _stage_ingest(ctx: Context) -> str:
    tracts, highways = ctx.layers
    columns = sorted({k for t in tracts for k in t.attributes})
    _write_json(ctx, "ingest.json", {
        "n_tracts": len(tracts),
        "columns": columns,
        "highway_labels": highways.labels if highways else [],
    })
    return f"ingested {len(tracts)} tracts with {len(columns)} attribute columns"


def _stage_ols(ctx: Context) -> str:
    from .ols import fit_ols
    from .report import format_ols_table

    tracts, _ = ctx.layers
    models = _models(ctx.cfg, "ols")
    fits = []
    for model in models:
        design = build_design(tracts, ctx.cfg.model_transforms(model))
        fit = fit_ols(design)
        fits.append((model.name, fit))
        rows = [
            [term, _fmt(fit.coefficients[i]), _fmt(fit.robust_se[i]), _fmt(fit.t_stats[i])]
            for i, term in enumerate(fit.column_names)
        ]
        rows.append(["n", str(fit.n), "", ""])
        rows.append(["r_squared", _fmt(fit.r_squared), "", ""])
        _write_csv(ctx, f"ols_{model.name}.csv", ["term", "estimate", "robust_se", "t"], rows)
        _write_json(ctx, f"ols_{model.name}.json", {
            "name": model.name,
            "n_dropped": design.n_dropped,
            **to_dict(fit, exclude=("residuals",)),
        })
        log.info("ols %s: n=%d R^2=%.4f", model.name, fit.n, fit.r_squared)
    _write_headed(ctx, "ols_summary.txt", format_ols_table(fits))
    return f"wrote OLS results for: {', '.join(m.name for m in models)}"


def _stage_gwr(ctx: Context) -> str:
    from .gwr import KernelSpec, fit_gwr, select_bandwidth, summarize_gwr
    from .report import format_gwr_table, tracts_to_geojson

    cfg = ctx.cfg
    tracts, _ = ctx.layers
    models = _models(cfg, "gwr")
    for model in models:
        design = build_design(tracts, cfg.model_transforms(model))
        n, p = design.X.shape
        k_min = cfg.k_min if cfg.k_min is not None else min(max(p + 2, 10), n)
        k_max = cfg.k_max if cfg.k_max is not None else n
        try:
            best_k, best_aicc = select_bandwidth(
                design, tracts, k_min, k_max, method=cfg.search_method, aicc_loo=cfg.aicc_loo,
            )
            fit = fit_gwr(design, tracts, KernelSpec(neighbors_k=best_k), aicc_loo=cfg.aicc_loo)
        except ValidationError as exc:
            raise ValidationError(f"model {model.name!r}: {exc}") from None
        summary = summarize_gwr(fit)

        terms = fit.column_names
        columns = (["tract_id"] + [f"coef:{t}" for t in terms] + [f"t:{t}" for t in terms]
                   + ["local_r2", "bandwidth_m"])
        rows = (
            [tid]
            + [_fmt(v) for v in fit.local_coefficients[i]]
            + [_fmt(v) for v in fit.local_t[i]]
            + [_fmt(fit.local_r2[i]), _fmt(fit.bandwidths[i])]
            for i, tid in enumerate(fit.tract_ids)
        )
        _write_csv(ctx, f"gwr_{model.name}_local.csv", columns, rows)

        props = {}
        for i, tid in enumerate(fit.tract_ids):
            entry: dict[str, object] = {"local_r2": float(fit.local_r2[i])}
            for j, term in enumerate(terms):
                entry[f"coef:{term}"] = float(fit.local_coefficients[i, j])
                entry[f"t:{term}"] = float(fit.local_t[i, j])
            props[tid] = entry
        _write_text(ctx, f"gwr_{model.name}.geojson",
                    tracts_to_geojson(tracts, props, ctx.meta) + "\n")
        _write_headed(ctx, f"gwr_{model.name}_summary.txt",
                      format_gwr_table(model.name, summary))
        _write_json(ctx, f"gwr_{model.name}.json", {
            "name": model.name,
            "k_range": [k_min, k_max],
            **to_dict(summary),
        })
        log.info("gwr %s: neighbors_k=%d AICc=%.4f", model.name, best_k, best_aicc)
    return f"wrote GWR results for: {', '.join(m.name for m in models)}"


def _stage_simulate(ctx: Context) -> str:
    cfg = ctx.cfg
    tracts, _ = ctx.layers
    graph = build_graph(cfg.inputs["nodes"], cfg.inputs["edges"], cfg.class_speeds)
    od = load_od(cfg.inputs["od"], tracts)
    edge_map = build_edge_tract_map(graph, tracts, mode=cfg.attribution_mode)
    assignment = assign_groups(od, tracts, mode=cfg.sim_mode, seed=cfg.seed)
    if cfg.drive_share_column:
        values = tracts.attribute(cfg.drive_share_column)
        if np.all(np.isnan(values)):
            raise ValidationError(
                f"drive share column {cfg.drive_share_column!r} absent from attribute table")
        assignment = scale_by_drive_share(assignment, values)
    table = simulate(assignment, tracts, graph, edge_map, exclude_home=cfg.exclude_home)
    write_traversal(table, ctx.path("traversal.csv"), [ctx.header])
    total_km = table.total_km()
    _write_json(ctx, "simulate.json", {
        "n_pairs": table.n_pairs,
        "n_unreachable": table.n_unreachable,
        "total_km": total_km,
    })
    return (f"simulated {table.n_pairs} OD pairs "
            f"({table.n_unreachable} unreachable), {total_km!r} km")


def _stage_equity(ctx: Context) -> str:
    from .equity import corridor_subset, inequity_index, population_weighted_mean
    from .report import format_equity_summary, svg_choropleth, tracts_to_geojson

    tracts, highways = ctx.layers
    index = inequity_index(read_traversal(_artifact(ctx, "traversal.csv")))

    rows = list(zip(index.tract_ids, index.values.tolist()))
    _write_csv(ctx, "equity.csv", ["tract_id", "group", "index"],
               ([tid, g, _fmt(v)] for tid, row in rows for g, v in zip(index.groups, row)),
               extra_header=(f"undefined_tracts={len(index.undefined)}",))

    # tracts_to_geojson skips an undefined id that is not a tract.
    keys = [f"I:{g}" for g in index.groups]
    props = {tid: {"defined": False} for tid in index.undefined}
    props.update((tid, {**dict(zip(keys, row)), "defined": True}) for tid, row in rows)
    _write_text(ctx, "equity.geojson", tracts_to_geojson(tracts, props, ctx.meta) + "\n")

    all_ids = set(tracts.ids)
    corridors: dict[str, tuple[str, ...]] = {}
    if highways is not None:
        corridors = {label: corridor_subset(tracts, highways, label)
                     for label in highways.labels}
    highway_ids = set().union(*corridors.values())
    for group in GROUPS:
        entries = []

        def add_entry(label: str, subset) -> None:
            value, n_defined = population_weighted_mean(index, tracts, subset, group)
            if n_defined:
                entries.append((label, value, n_defined))

        add_entry("all", all_ids)
        if highways is not None:
            add_entry("highway", highway_ids)
            add_entry("non_highway", all_ids - highway_ids)
            for label, subset in corridors.items():
                add_entry(f"corridor {label}", subset)
        _write_headed(ctx, f"equity_summary_{group}.txt", format_equity_summary(group, entries))

        values = dict(zip(index.tract_ids, index.values[:, index.groups.index(group)].tolist()))
        _write_text(ctx, f"equity_{group}.svg", f"<!-- {ctx.header} -->\n"
                    + svg_choropleth(tracts, values, title=f"inequity index ({group})"))
    return f"wrote equity outputs for groups: {', '.join(GROUPS)}"


def _stage_report(ctx: Context) -> str:
    summaries = [name for stage in STAGES if stage.skip(ctx.cfg) is None
                 for name in stage.outputs(ctx.cfg)
                 if name.endswith(".txt") and name != "report.txt"]
    text = "\n".join([f"# {ctx.header}"] + [_section(ctx, name) for name in summaries])
    _write_text(ctx, "report.txt", text)
    return text


@dataclass(frozen=True)
class Stage:
    """One row of the analysis chain: `run(ctx)` writes `outputs(cfg)` and
    returns a one-line summary (the report stage returns the report).
    `skip(cfg)` gives the reason the stage does not apply, or None. The
    `.txt` outputs are the stage's summaries, which the report joins."""

    name: str
    help: str
    run: Callable[[Context], str]
    outputs: Callable[[RunConfig], list[str]]
    skip: Callable[[RunConfig], str | None] = lambda cfg: None


def _model_outputs(cfg: RunConfig, estimator: str, suffixes: tuple[str, ...]) -> list[str]:
    return [f"{estimator}_{m.name}{s}" for m in _models(cfg, estimator) for s in suffixes]


def _needs_model(estimator: str):
    return lambda cfg: (None if _models(cfg, estimator)
                        else f"config has no {estimator.upper()} model")


def _needs_network(cfg: RunConfig) -> str | None:
    missing = [k for k in NETWORK_INPUTS if k not in cfg.inputs]
    return f"config names no {'/'.join(missing)} input" if missing else None


STAGES = (
    Stage("ingest", "load and validate inputs", _stage_ingest,
          lambda cfg: ["ingest.json"]),
    Stage("ols", "fit global models", _stage_ols,
          lambda cfg: _model_outputs(cfg, "ols", (".csv", ".json")) + ["ols_summary.txt"],
          _needs_model("ols")),
    Stage("gwr", "select a bandwidth and fit local models", _stage_gwr,
          lambda cfg: _model_outputs(cfg, "gwr",
                                     ("_local.csv", ".geojson", "_summary.txt", ".json")),
          _needs_model("gwr")),
    Stage("simulate", "run the commute microsimulation", _stage_simulate,
          lambda cfg: ["traversal.csv", "simulate.json"], _needs_network),
    Stage("equity", "compute the inequity index and summaries", _stage_equity,
          lambda cfg: ["equity.csv", "equity.geojson"]
          + [f"equity_summary_{g}.txt" for g in GROUPS] + [f"equity_{g}.svg" for g in GROUPS],
          _needs_network),
    Stage("report", "join the summaries of the other stages", _stage_report,
          lambda cfg: ["report.txt"]),
)


def cmd_stage(args) -> int:
    ctx = _context(args)
    reason = args.stage.skip(ctx.cfg)
    if reason is not None:
        raise ValidationError(f"{args.stage.name}: {reason}")
    print(args.stage.run(ctx))
    return 0


def _sweep(ctx: Context, declared: set[str]) -> None:
    """Delete each file in the out dir that another config wrote and that no
    stage of this run declares. Unstamped files are kept."""
    if not os.path.isdir(ctx.outdir):
        return
    for name in sorted(set(os.listdir(ctx.outdir)) - declared):
        path = ctx.path(name)
        if not os.path.isfile(path):
            continue
        written_under = _written_under(path)
        if written_under not in (None, ctx.hash):
            os.remove(path)
            log.info("removed %s, written under config %s", name, written_under)


def cmd_run(args) -> int:
    ctx = _context(args)
    plan = [(stage, stage.skip(ctx.cfg)) for stage in STAGES]
    _sweep(ctx, {name for stage, reason in plan if reason is None
                 for name in stage.outputs(ctx.cfg)})
    for stage, reason in plan:
        if reason is not None:
            log.info("skipped stage %s: %s", stage.name, reason)
            continue
        try:
            print(stage.run(ctx))
        except Exception as exc:
            _write_text(ctx, "FAILED", f"{stage.name}: {exc}\n")
            log.error("stage %s failed: %s", stage.name, exc)
            return 1
    with contextlib.suppress(FileNotFoundError):
        os.remove(ctx.path("FAILED"))
    return 0


def cmd_route(args) -> int:
    graph = build_graph(args.nodes, args.edges)
    tracts = (load_tracts(args.tracts, args.attributes)
              if args.tracts and args.attributes else None)
    if args.home or args.work:
        if tracts is None or not (args.home and args.work):
            raise ValidationError("--home/--work need --tracts and --attributes")
        for flag, tract_id in (("--home", args.home), ("--work", args.work)):
            if tract_id not in tracts:
                raise ValidationError(f"{flag}: tract {tract_id!r} is not in {args.tracts}")
        origin, dest = (tract_node(graph, tracts, t) for t in (args.home, args.work))
    else:
        if not (args.origin and args.dest):
            raise ValidationError("need --origin/--dest nodes or --home/--work tracts")
        origin, dest = args.origin, args.dest
    route = shortest_path(graph, origin, dest)
    if route is None:
        print(f"no route from {origin} to {dest}")
        return 1
    print(" -> ".join(route.nodes))
    print(f"time_s={route.total_time!r} length_m={route.total_length!r}")
    if tracts is not None:
        edge_map = build_edge_tract_map(graph, tracts, mode=args.mode)
        for tid, meters in route_tract_distances(route, edge_map).items():
            print(f"{tid},{meters!r}")
    return 0


def cmd_synth(args) -> int:
    # synth is the one module no analysis stage uses: load it only here.
    from .synth import ScenarioSpec, Surface, generate, write_scenario

    # The spec checks the grid before the surfaces below divide by its width.
    # Its default surfaces (x1 = 2, group share 0.5) are what the flags replace.
    spec = ScenarioSpec(
        rows=args.rows,
        cols=args.cols,
        cell_size=args.cell_size,
        noise_sigma=args.sigma,
        od_pairs=args.od_pairs,
        max_count=args.max_count,
        seed=args.seed,
        highway_row=args.highway_row,
        attribution_mode=args.attribution,
    )
    width = spec.cols * spec.cell_size
    if args.step:
        x1 = Surface("step", value=args.beta_low, high_value=args.beta_high,
                     axis="x", threshold=width / 2.0)
        spec = replace(spec, surfaces={**spec.surfaces, "x1": x1})
    if args.group_gradient:
        spec = replace(
            spec, group_share=Surface("gradient", value=0.25, gx=0.5 / width))
    scenario = generate(spec)
    paths = write_scenario(scenario, args.out)
    raw = synth_run_config(scenario, paths, args.out)
    write_atomic(os.path.join(args.out, "config.json"),
                 [json.dumps(raw, sort_keys=True, indent=2) + "\n"])
    print(f"wrote scenario ({spec.rows}x{spec.cols}) and config to {args.out}")
    return 0


def synth_run_config(scenario: Scenario, paths: dict[str, str], outdir: str) -> dict:
    """Run-config wired to a generated scenario's files (paths kept relative
    so the directory can move)."""
    rel = {k: os.path.basename(v) for k, v in paths.items()}
    predictors = [k for k in scenario.spec.surfaces if k != "intercept"]
    columns = {"y": {"column": "y", "transform": "identity", "role": "response"}}
    for name in predictors:
        columns[name] = {"column": name, "transform": "identity", "role": "predictor"}
    return {
        "inputs": rel,
        "columns": columns,
        "demographics": dict(DEMOGRAPHICS),
        "models": [
            {"name": "global", "estimator": "ols", "controls": predictors},
            {"name": "local", "estimator": "gwr", "controls": predictors},
        ],
        "gwr": {"method": "golden"},
        "simulation": {
            "mode": "fractional",
            "seed": scenario.spec.seed,
            "attribution": scenario.spec.attribution_mode,
        },
        "output_dir": os.path.join(".", "out"),
    }


def _workers(text: str) -> int:
    """argparse type of --workers: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracteq",
        description="Tract-level spatial equity toolkit: global and local "
        "regression, commute microsimulation, and a traversal inequity index.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--out", help="override the config output_dir")

    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        add_common(p)
        p.set_defaults(func=cmd_stage, stage=stage)
        if stage.name == "simulate":
            p.add_argument("--workers", type=_workers, default=1)

    p = sub.add_parser("run", help="execute all configured stages in order")
    add_common(p)
    p.add_argument("--workers", type=_workers, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("route", help="debug a single shortest path")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--origin")
    p.add_argument("--dest")
    p.add_argument("--home", help="home tract (requires --tracts/--attributes)")
    p.add_argument("--work", help="work tract")
    p.add_argument("--tracts")
    p.add_argument("--attributes")
    p.add_argument("--mode", choices=("midpoint", "split"), default="midpoint")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("synth", help="write a synthetic scenario and its config")
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--cell-size", type=float, default=500.0)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--od-pairs", type=int, default=60)
    p.add_argument("--max-count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--highway-row", type=int, default=None)
    p.add_argument("--attribution", choices=("midpoint", "split"), default="midpoint")
    p.add_argument("--step", action="store_true",
                   help="give the x1 coefficient a west/east step surface")
    p.add_argument("--beta-low", type=float, default=1.0)
    p.add_argument("--beta-high", type=float, default=3.0)
    p.add_argument("--group-gradient", action="store_true",
                   help="west-east gradient in group share instead of 0.5")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    """Parse argv, run the command and return its exit code.

    The cyclic garbage collector is off while main runs and is restored to
    the caller's setting on return. A run holds no reference cycles that
    grow with its inputs, so collections only re-scan the live heap.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        try:
            return args.func(args)
        except TracteqError as exc:
            log.error("%s", exc)
            return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> NoReturn:
    """Process entry point: `python -m tracteq.cli` and the `tracteq` script.

    The collector stays off through exit, and the heap is frozen first, so
    the interpreter's final collection skips what the OS is about to reclaim.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
