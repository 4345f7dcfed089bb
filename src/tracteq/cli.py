"""Command-line entry point for reproducible config-driven runs.

Every artifact carries a header with the toolkit version, the config hash,
and the seed. Numeric cells are written with repr so identical runs are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .commute import (
    GROUPS,
    assign_groups,
    load_od,
    read_traversal,
    scale_by_drive_share,
    simulate,
    write_traversal,
)
from .config import RunConfig, config_hash, load_config
from .data_model import (
    HighwayNetworkGeom,
    TractSet,
    distance_to_nearest_highway,
    load_highways,
    load_tracts,
    with_column,
)
from .equity import corridor_subset, inequity_index, population_weighted_mean
from .errors import TracteqError, ValidationError
from .gwr import KernelSpec, fit_gwr, select_bandwidth, summarize_gwr
from .network import build_edge_tract_map, build_graph, route_tract_distances, shortest_path
from .ols import fit_ols
from .report import (
    format_equity_summary,
    format_gwr_table,
    format_ols_table,
    svg_choropleth,
    tracts_to_geojson,
)
from .synth import Scenario, ScenarioSpec, Surface, generate, write_scenario

log = logging.getLogger("tracteq")


def _fmt(value: float) -> str:
    return repr(float(value))


def _header_lines(cfg_hash: str, seed: int) -> list[str]:
    return [f"tracteq v{__version__} config={cfg_hash} seed={seed}"]


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, header_lines: list[str], columns: list[str], rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _load_layers(cfg: RunConfig) -> tuple[TractSet, HighwayNetworkGeom | None]:
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


def _outdir(cfg: RunConfig, args) -> str:
    return args.out if getattr(args, "out", None) else cfg.output_dir


def cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    tracts, highways = _load_layers(cfg)
    outdir = _outdir(cfg, args)
    columns = sorted({k for t in tracts for k in t.attributes})
    summary = {
        "meta": {"tool": f"tracteq v{__version__}", "config": cfg_hash, "seed": cfg.seed},
        "n_tracts": len(tracts),
        "columns": columns,
        "highway_labels": highways.labels if highways else [],
    }
    _write_text(os.path.join(outdir, "ingest.json"), json.dumps(summary, sort_keys=True) + "\n")
    print(f"ingested {len(tracts)} tracts with {len(columns)} attribute columns")
    return 0


def _run_ols_models(cfg: RunConfig, tracts: TractSet, outdir: str, cfg_hash: str,
                    only: str | None = None) -> list[str]:
    written = []
    for model in cfg.models:
        if model.estimator != "ols" or (only and model.name != only):
            continue
        design = build_design_for(cfg, tracts, model)
        fit = fit_ols(design)
        rows = [
            [term, _fmt(fit.coefficients[i]), _fmt(fit.robust_se[i]), _fmt(fit.t_stats[i])]
            for i, term in enumerate(fit.column_names)
        ]
        rows.append(["n", str(fit.n), "", ""])
        rows.append(["r_squared", _fmt(fit.r_squared), "", ""])
        path = os.path.join(outdir, f"ols_{model.name}.csv")
        _write_csv(path, _header_lines(cfg_hash, cfg.seed),
                   ["term", "estimate", "robust_se", "t"], rows)
        blob = {
            "name": model.name,
            "column_names": list(fit.column_names),
            "coefficients": [float(v) for v in fit.coefficients],
            "robust_se": [float(v) for v in fit.robust_se],
            "t_stats": [float(v) for v in fit.t_stats],
            "r_squared": fit.r_squared,
            "n": fit.n,
            "k": fit.k,
            "n_dropped": design.n_dropped,
        }
        _write_text(os.path.join(outdir, f"ols_{model.name}.json"),
                    json.dumps(blob, sort_keys=True) + "\n")
        written.append(model.name)
        log.info("ols %s: n=%d R^2=%.4f", model.name, fit.n, fit.r_squared)
    return written


def build_design_for(cfg: RunConfig, tracts: TractSet, model) :
    from .data_model import build_design

    return build_design(tracts, cfg.model_transforms(model))


def cmd_ols(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    tracts, _ = _load_layers(cfg)
    outdir = _outdir(cfg, args)
    written = _run_ols_models(cfg, tracts, outdir, cfg_hash, only=args.model)
    if not written:
        raise ValidationError("no matching OLS model in config")
    print(f"wrote OLS results for: {', '.join(written)}")
    return 0


def _run_gwr_models(cfg: RunConfig, tracts: TractSet, outdir: str, cfg_hash: str,
                    workers: int, only: str | None = None) -> list[str]:
    written = []
    for model in cfg.models:
        if model.estimator != "gwr" or (only and model.name != only):
            continue
        design = build_design_for(cfg, tracts, model)
        n, p = design.X.shape
        k_min = cfg.k_min if cfg.k_min is not None else min(max(p + 2, 10), n)
        k_max = cfg.k_max if cfg.k_max is not None else n
        best_k, best_aicc = select_bandwidth(
            design, tracts, k_min, k_max,
            method=cfg.search_method, workers=workers, aicc_loo=cfg.aicc_loo,
        )
        fit = fit_gwr(
            design, tracts, KernelSpec(neighbors_k=best_k),
            workers=workers, aicc_loo=cfg.aicc_loo,
        )
        summary = summarize_gwr(fit)

        columns = (["tract_id"]
                   + [f"coef:{t}" for t in fit.column_names]
                   + [f"t:{t}" for t in fit.column_names]
                   + ["local_r2", "bandwidth_m"])
        rows = []
        for i, tid in enumerate(fit.tract_ids):
            rows.append(
                [tid]
                + [_fmt(v) for v in fit.local_coefficients[i]]
                + [_fmt(v) for v in fit.local_t[i]]
                + [_fmt(fit.local_r2[i]), _fmt(fit.bandwidths[i])]
            )
        _write_csv(os.path.join(outdir, f"gwr_{model.name}_local.csv"),
                   _header_lines(cfg_hash, cfg.seed), columns, rows)

        props = {}
        for i, tid in enumerate(fit.tract_ids):
            entry: dict[str, object] = {"local_r2": float(fit.local_r2[i])}
            for j, term in enumerate(fit.column_names):
                entry[f"coef:{term}"] = float(fit.local_coefficients[i, j])
                entry[f"t:{term}"] = float(fit.local_t[i, j])
            props[tid] = entry
        meta = {"tool": f"tracteq v{__version__}", "config": cfg_hash, "seed": cfg.seed}
        _write_text(os.path.join(outdir, f"gwr_{model.name}.geojson"),
                    tracts_to_geojson(tracts, props, meta) + "\n")

        table = format_gwr_table(model.name, summary)
        header = "\n".join(f"# {line}" for line in _header_lines(cfg_hash, cfg.seed))
        _write_text(os.path.join(outdir, f"gwr_{model.name}_summary.txt"),
                    f"{header}\n{table}")
        blob = {
            "name": model.name,
            "column_names": list(summary.column_names),
            "mean": [float(v) for v in summary.mean],
            "min": [float(v) for v in summary.min],
            "max": [float(v) for v in summary.max],
            "pct_sig_neg": [float(v) for v in summary.pct_sig_neg],
            "pct_sig_pos": [float(v) for v in summary.pct_sig_pos],
            "mean_local_r2": summary.mean_local_r2,
            "min_local_r2": summary.min_local_r2,
            "max_local_r2": summary.max_local_r2,
            "neighbors_k": summary.neighbors_k,
            "aicc": summary.aicc,
            "n_used": summary.n_used,
            "n_failed": summary.n_failed,
            "k_range": [k_min, k_max],
        }
        _write_text(os.path.join(outdir, f"gwr_{model.name}.json"),
                    json.dumps(blob, sort_keys=True) + "\n")
        written.append(model.name)
        log.info("gwr %s: neighbors_k=%d AICc=%.4f", model.name, best_k, best_aicc)
    return written


def cmd_gwr(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    tracts, _ = _load_layers(cfg)
    outdir = _outdir(cfg, args)
    written = _run_gwr_models(cfg, tracts, outdir, cfg_hash, args.workers, only=args.model)
    if not written:
        raise ValidationError("no matching GWR model in config")
    print(f"wrote GWR results for: {', '.join(written)}")
    return 0


def cmd_route(args) -> int:
    graph = build_graph(args.nodes, args.edges)
    if args.home or args.work:
        if not (args.tracts and args.attributes and args.home and args.work):
            raise ValidationError("--home/--work need --tracts and --attributes")
        from .commute import nearest_node

        tracts = load_tracts(args.tracts, args.attributes)
        origin = nearest_node(graph, tuple(tracts.centroids[tracts.index_of(args.home)]))
        dest = nearest_node(graph, tuple(tracts.centroids[tracts.index_of(args.work)]))
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
    if args.tracts and args.attributes:
        tracts = load_tracts(args.tracts, args.attributes)
        edge_map = build_edge_tract_map(graph, tracts, mode=args.mode)
        for tid, meters in route_tract_distances(route, edge_map).items():
            print(f"{tid},{meters!r}")
    return 0


def _simulate_from_config(cfg: RunConfig, tracts: TractSet, workers: int):
    graph = build_graph(cfg.inputs["nodes"], cfg.inputs["edges"], cfg.class_speeds)
    od = load_od(cfg.inputs["od"], tracts)
    edge_map = build_edge_tract_map(graph, tracts, mode=cfg.attribution_mode)
    assignment = assign_groups(od, tracts, mode=cfg.sim_mode, seed=cfg.seed)
    if cfg.drive_share_column:
        values = tracts.attribute(cfg.drive_share_column)
        share = {t.tract_id: float(v) for t, v in zip(tracts, values)}
        assignment = scale_by_drive_share(assignment, share)
    return simulate(
        od, tracts, graph, edge_map, assignment,
        workers=workers, exclude_home=cfg.exclude_home,
    )


def _write_simulation(table, outdir: str, cfg_hash: str, seed: int) -> None:
    """traversal.csv and simulate.json (pairs, unreachable pairs, total km)."""
    os.makedirs(outdir, exist_ok=True)
    write_traversal(table, os.path.join(outdir, "traversal.csv"),
                    _header_lines(cfg_hash, seed))
    stats = {
        "n_pairs": table.n_pairs,
        "n_unreachable": table.n_unreachable,
        "total_km": table.total_km(),
    }
    _write_text(os.path.join(outdir, "simulate.json"),
                json.dumps(stats, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    tracts, _ = _load_layers(cfg)
    outdir = _outdir(cfg, args)
    table = _simulate_from_config(cfg, tracts, args.workers)
    _write_simulation(table, outdir, cfg_hash, cfg.seed)
    print(f"simulated {table.n_pairs} OD pairs "
          f"({table.n_unreachable} unreachable), {table.total_km()!r} km")
    return 0


def _equity_outputs(cfg: RunConfig, tracts: TractSet,
                    highways: HighwayNetworkGeom | None,
                    outdir: str, cfg_hash: str, groups: list[str]) -> None:
    table = read_traversal(os.path.join(outdir, "traversal.csv"))
    index = inequity_index(table)

    rows = []
    for tid in index.defined:
        for g in index.groups:
            rows.append([tid, g, _fmt(index.values[tid][g])])
    _write_csv(os.path.join(outdir, "equity.csv"),
               _header_lines(cfg_hash, cfg.seed) + [
                   f"undefined_tracts={len(index.undefined)}"],
               ["tract_id", "group", "index"], rows)

    props: dict[str, dict[str, object]] = {}
    for tid in index.defined:
        props[tid] = {f"I:{g}": index.values[tid][g] for g in index.groups}
        props[tid]["defined"] = True
    for tid in index.undefined:
        if tid in tracts:
            props[tid] = {"defined": False}
    meta = {"tool": f"tracteq v{__version__}", "config": cfg_hash, "seed": cfg.seed}
    _write_text(os.path.join(outdir, "equity.geojson"),
                tracts_to_geojson(tracts, props, meta) + "\n")

    all_ids = set(tracts.ids)
    corridors: dict[str, tuple[str, ...]] = {}
    if highways is not None:
        corridors = {label: corridor_subset(tracts, highways, label)
                     for label in highways.labels}
    highway_ids = set().union(*corridors.values())
    for group in groups:
        if group not in index.groups:
            raise ValidationError(f"group {group!r} not in traversal table")
        entries = []

        def add_entry(label: str, subset) -> None:
            chosen = sorted(set(subset) & set(index.values))
            if not chosen:
                return
            value = population_weighted_mean(index, tracts, chosen, group)
            entries.append((label, value, len(chosen)))

        add_entry("all", all_ids)
        if highways is not None:
            add_entry("highway", highway_ids)
            add_entry("non_highway", all_ids - highway_ids)
            for label, subset in corridors.items():
                add_entry(f"corridor {label}", subset)
        text = format_equity_summary(group, entries)
        header = "\n".join(f"# {line}" for line in _header_lines(cfg_hash, cfg.seed))
        _write_text(os.path.join(outdir, f"equity_summary_{group}.txt"),
                    f"{header}\n{text}")

        values = {tid: index.values[tid][group] for tid in index.defined}
        _write_text(os.path.join(outdir, f"equity_{group}.svg"),
                    svg_choropleth(tracts, values, title=f"inequity index ({group})"))


def cmd_equity(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    tracts, highways = _load_layers(cfg)
    outdir = _outdir(cfg, args)
    if not os.path.exists(os.path.join(outdir, "traversal.csv")):
        raise ValidationError(f"missing artifact {outdir}/traversal.csv (run simulate first)")
    groups = [args.group] if args.group else list(GROUPS)
    _equity_outputs(cfg, tracts, highways, outdir, cfg_hash, groups)
    print(f"wrote equity outputs for group(s): {', '.join(groups)}")
    return 0


def cmd_synth(args) -> int:
    if args.step:
        x1 = Surface("step", value=args.beta_low, high_value=args.beta_high,
                     axis="x", threshold=args.cols * args.cell_size / 2.0)
    else:
        x1 = Surface("constant", value=2.0)
    group = (Surface("gradient", value=0.25, gx=0.5 / (args.cols * args.cell_size))
             if args.group_gradient else Surface("constant", value=0.5))
    spec = ScenarioSpec(
        rows=args.rows,
        cols=args.cols,
        cell_size=args.cell_size,
        surfaces={"intercept": Surface("constant", value=1.0), "x1": x1},
        noise_sigma=args.sigma,
        group_share=group,
        od_pairs=args.od_pairs,
        max_count=args.max_count,
        seed=args.seed,
        highway_row=args.highway_row,
        attribution_mode=args.attribution,
    )
    scenario = generate(spec)
    paths = write_scenario(scenario, args.out)
    raw = synth_run_config(scenario, paths, args.out)
    config_path = os.path.join(args.out, "config.json")
    _write_text(config_path, json.dumps(raw, sort_keys=True, indent=2) + "\n")
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
        "demographics": {
            "population": "population",
            "commuters": "commuters",
            "group_share": "group_share",
        },
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


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    outdir = _outdir(cfg, args)
    sections: list[str] = []
    header = "\n".join(f"# {line}" for line in _header_lines(cfg_hash, cfg.seed))
    sections.append(header)

    from .gwr import GwrSummary
    from .ols import OlsFit

    ols_fits = []
    for model in cfg.models:
        if model.estimator != "ols":
            continue
        path = os.path.join(outdir, f"ols_{model.name}.json")
        if not os.path.exists(path):
            raise ValidationError(f"missing artifact {path} (run ols first)")
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        fit = OlsFit(
            coefficients=np.array(blob["coefficients"]),
            robust_se=np.array(blob["robust_se"]),
            t_stats=np.array(blob["t_stats"]),
            r_squared=blob["r_squared"],
            residuals=np.zeros(0),
            n=blob["n"],
            k=blob["k"],
            column_names=tuple(blob["column_names"]),
        )
        ols_fits.append((model.name, fit))
    if ols_fits:
        sections.append(format_ols_table(ols_fits))

    for model in cfg.models:
        if model.estimator != "gwr":
            continue
        path = os.path.join(outdir, f"gwr_{model.name}.json")
        if not os.path.exists(path):
            raise ValidationError(f"missing artifact {path} (run gwr first)")
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        summary = GwrSummary(
            column_names=tuple(blob["column_names"]),
            mean=np.array(blob["mean"]),
            min=np.array(blob["min"]),
            max=np.array(blob["max"]),
            pct_sig_neg=np.array(blob["pct_sig_neg"]),
            pct_sig_pos=np.array(blob["pct_sig_pos"]),
            mean_local_r2=blob["mean_local_r2"],
            min_local_r2=blob["min_local_r2"],
            max_local_r2=blob["max_local_r2"],
            neighbors_k=blob["neighbors_k"],
            aicc=blob["aicc"],
            n_used=blob["n_used"],
            n_failed=blob["n_failed"],
        )
        sections.append(format_gwr_table(model.name, summary))

    for group in GROUPS:
        path = os.path.join(outdir, f"equity_summary_{group}.txt")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                body = "".join(ln for ln in fh if not ln.startswith("#"))
            sections.append(body.rstrip("\n") + "\n")

    report_text = "\n".join(sections)
    _write_text(os.path.join(outdir, "report.txt"), report_text)
    print(report_text)
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg_hash = config_hash(cfg.raw)
    outdir = _outdir(cfg, args)
    stage = "ingest"
    try:
        tracts, highways = _load_layers(cfg)

        stage = "ols"
        _run_ols_models(cfg, tracts, outdir, cfg_hash)

        stage = "gwr"
        _run_gwr_models(cfg, tracts, outdir, cfg_hash, args.workers)

        simulated = False
        if all(k in cfg.inputs for k in ("nodes", "edges", "od")):
            stage = "simulate"
            table = _simulate_from_config(cfg, tracts, args.workers)
            _write_simulation(table, outdir, cfg_hash, cfg.seed)
            simulated = True

            stage = "equity"
            _equity_outputs(cfg, tracts, highways, outdir, cfg_hash, list(GROUPS))

        stage = "report"
        report_args = argparse.Namespace(config=args.config, out=args.out)
        cmd_report(report_args)
    except Exception as exc:
        _write_text(os.path.join(outdir, "FAILED"), f"{stage}: {exc}\n")
        log.error("stage %s failed: %s", stage, exc)
        return 1
    failed_marker = os.path.join(outdir, "FAILED")
    if os.path.exists(failed_marker):
        os.remove(failed_marker)
    if not simulated:
        log.info("simulation inputs absent; skipped simulate/equity stages")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracteq",
        description="Tract-level spatial equity toolkit: global and local "
        "regression, commute microsimulation, and a traversal inequity index.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model_flag=False):
        p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--out", help="override the config output_dir")
        if model_flag:
            p.add_argument("--model", help="run only the named model")

    p = sub.add_parser("ingest", help="load and validate inputs")
    add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ols", help="fit global models")
    add_common(p, model_flag=True)
    p.set_defaults(func=cmd_ols)

    p = sub.add_parser("gwr", help="select a bandwidth and fit local models")
    add_common(p, model_flag=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_gwr)

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

    p = sub.add_parser("simulate", help="run the commute microsimulation")
    add_common(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equity", help="compute the inequity index and summaries")
    add_common(p)
    p.add_argument("--group", choices=GROUPS, help="summarize one group only")
    p.set_defaults(func=cmd_equity)

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

    p = sub.add_parser("report", help="render tables from existing artifacts")
    add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="execute all configured stages in order")
    add_common(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
