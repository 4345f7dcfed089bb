"""Acceptance gate: one test per shipping criterion.

Each test prints a single line `criterion NN PASS/FAIL: <measured> (<pinned
tolerance>)` (visible under `pytest -s` or in the failure output) and then
asserts on the same condition, so the printed verdict can never disagree
with the pytest result.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from helpers import (
    design_from_arrays,
    enumerate_best_path,
    grid_tracts,
    hc1_by_hand,
    index_dict,
    normal_equations_beta,
    random_graph,
    traversal_dicts,
    traversal_table,
)
from test_report import golden, make_fit
from tracteq.cli import main
from tracteq.commute import (
    GROUPS,
    assign_groups,
    nearest_node,
    route_traversals,
    simulate,
)
from tracteq.equity import inequity_index
from tracteq.gwr import GwrSummary, KernelSpec, fit_gwr, select_bandwidth
from tracteq.network import build_edge_tract_map, route_tract_distances, shortest_path
from tracteq.ols import fit_ols, robust_covariance
from tracteq.report import format_equity_summary, format_gwr_table, format_ols_table
from tracteq.synth import ScenarioSpec, Surface, generate


def criterion(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def step_scenario_20x20(seed=21, sigma=0.01):
    return generate(ScenarioSpec(
        rows=20, cols=20, cell_size=500.0,
        surfaces={
            "intercept": Surface("constant", value=1.0),
            "x1": Surface("step", value=1.0, high_value=3.0,
                          axis="x", threshold=5000.0),
        },
        noise_sigma=sigma,
        group_share=Surface("constant", value=0.5),
        od_pairs=0, max_count=5, seed=seed,
    ))


def test_criterion_01_ols_matches_normal_equations():
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(1, 7))
        X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k)])
        beta = rng.normal(scale=2.0, size=k + 1)
        y = X @ beta + rng.normal(scale=0.5, size=n)
        fit = fit_ols(design_from_arrays(y, X))
        worst = max(worst, float(np.max(np.abs(fit.coefficients
                                               - normal_equations_beta(X, y)))))
    elapsed = time.perf_counter() - t0
    criterion(1, worst < 1e-8 and elapsed < 1.0,
              f"max|b_qr - b_ne| = {worst:.3e} (tol 1e-8), "
              f"100 instances in {elapsed:.2f}s (limit 1s)")


def test_criterion_02_hc1_matches_elementwise_formula():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(4, n - 2) + 1))  # keep n - (k+1) >= 1
        X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k)])
        y = X @ rng.normal(size=k + 1) + rng.normal(scale=0.3, size=n)
        fit = fit_ols(design_from_arrays(y, X))
        diff = robust_covariance(X, fit.residuals) - hc1_by_hand(X, fit.residuals)
        worst = max(worst, float(np.max(np.abs(diff))))
    criterion(2, worst < 1e-10,
              f"max elementwise |cov - hand| = {worst:.3e} (tol 1e-10), "
              "50 instances with 3-10 observations")


def test_criterion_03_gwr_uniform_weights_collapse_to_ols():
    sc = generate(ScenarioSpec(
        rows=20, cols=20, cell_size=500.0,
        surfaces={
            "intercept": Surface("constant", value=1.0),
            "x1": Surface("gradient", value=1.0, gx=1e-4, gy=-5e-5),
        },
        noise_sigma=0.05,
        group_share=Surface("constant", value=0.5),
        od_pairs=0, max_count=5, seed=5,
    ))
    n = len(sc.design.y)
    t0 = time.perf_counter()
    local = fit_gwr(sc.design, sc.tracts,
                    KernelSpec(neighbors_k=n, bandwidth_scale=1e6))
    elapsed = time.perf_counter() - t0
    ols = fit_ols(sc.design)
    worst = float(np.max(np.abs(local.local_coefficients - ols.coefficients)))
    criterion(3, worst < 1e-6 and elapsed < 30.0,
              f"max|b_local - b_ols| = {worst:.3e} (tol 1e-6) over {n} tracts, "
              f"{elapsed:.2f}s (limit 30s)")


def test_criterion_04_gwr_recovers_step_surface():
    sc = step_scenario_20x20(seed=21, sigma=0.01)
    n = len(sc.design.y)
    best_k, _ = select_bandwidth(sc.design, sc.tracts, 4, n, method="golden")
    fit = fit_gwr(sc.design, sc.tracts, KernelSpec(neighbors_k=best_k))
    b1 = fit.local_coefficients[:, list(fit.column_names).index("x1")]
    sq = []
    for i, tid in enumerate(fit.tract_ids):
        col = int(tid[4:7])
        if col <= 7 or col >= 12:  # centroid at least 2 cells from the step
            truth = 1.0 if col <= 9 else 3.0
            sq.append((float(b1[i]) - truth) ** 2)
    rmse = math.sqrt(sum(sq) / len(sq))
    criterion(4, rmse < 0.1 and best_k < n,
              f"b1 RMSE = {rmse:.4f} (tol 0.1) over {len(sq)} tracts "
              f">=2 cells from the step; selected k={best_k} < n={n}")


def test_criterion_05_golden_section_matches_exhaustive_scan():
    mismatches = []
    for i in range(10):
        rows = 6 + i % 3
        cols = 6 + (i // 2) % 3
        if i % 3 == 0:
            x1 = Surface("gradient", value=1.0,
                         gx=1.0 / (cols * 500.0), gy=0.5 / (rows * 500.0))
        elif i % 3 == 1:
            x1 = Surface("step", value=0.5, high_value=2.5,
                         axis="x", threshold=cols * 250.0)
        else:
            x1 = Surface("gradient", value=2.0, gy=-0.8 / (rows * 500.0))
        sc = generate(ScenarioSpec(
            rows=rows, cols=cols, cell_size=500.0,
            surfaces={"intercept": Surface("constant", value=1.0), "x1": x1},
            noise_sigma=0.02 + 0.01 * i,
            group_share=Surface("constant", value=0.5),
            od_pairs=0, max_count=5, seed=100 + i,
        ))
        n = len(sc.design.y)
        kg, ag = select_bandwidth(sc.design, sc.tracts, 4, n, method="golden")
        ke, ae = select_bandwidth(sc.design, sc.tracts, 4, n, method="exhaustive")
        if kg != ke or abs(ag - ae) > 1e-9:
            mismatches.append((i, kg, ke))
    criterion(5, not mismatches,
              f"golden == exhaustive argmin on 10 scenarios "
              f"(tie tol 1e-9); mismatches: {mismatches or 'none'}")


def test_criterion_06_dijkstra_matches_path_enumeration():
    rng = np.random.default_rng(606)
    checked = reachable = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n)
        names = sorted(g.nodes)
        o, d = (str(v) for v in rng.choice(names, size=2, replace=False))
        expect = enumerate_best_path(g, o, d)
        got = shortest_path(g, o, d)
        if expect is None:
            assert got is None, (o, d)
        else:
            exp_time, exp_nodes, exp_edges = expect
            assert got is not None, (o, d)
            assert got.total_time == exp_time  # exact float equality
            assert tuple(got.nodes) == exp_nodes
            assert tuple(got.edges) == exp_edges
            reachable += 1
        checked += 1
    criterion(6, checked == 500,
              f"Dijkstra == exhaustive enumeration on {checked} graphs "
              f"({reachable} reachable pairs), exact time and path equality")


def test_criterion_07_route_distance_conservation():
    worst_mid = 0.0
    worst_split_rel = 0.0
    n_routes = 0

    for mode in ("midpoint", "split"):
        sc = generate(ScenarioSpec(
            rows=8, cols=8, cell_size=500.0,
            surfaces={"intercept": Surface("constant", value=1.0),
                      "x1": Surface("constant", value=2.0)},
            noise_sigma=0.05,
            group_share=Surface("constant", value=0.5),
            od_pairs=50, max_count=10, seed=77,
            highway_row=4, attribution_mode=mode,
        ))
        for home, work, _ in sc.od.rows:
            o = nearest_node(sc.graph, tuple(sc.tracts.centroids[sc.tracts.index_of(home)]))
            d = nearest_node(sc.graph, tuple(sc.tracts.centroids[sc.tracts.index_of(work)]))
            route = shortest_path(sc.graph, o, d)
            if route is None or not route.edges:
                continue
            per_tract = route_tract_distances(route, sc.edge_map)
            total = math.fsum(per_tract.values())
            if mode == "midpoint":
                worst_mid = max(worst_mid, abs(total - route.total_length))
            else:
                worst_split_rel = max(
                    worst_split_rel,
                    abs(total - route.total_length) / route.total_length,
                )
            n_routes += 1

    # split attribution on oblique geometry, where the cut parameters are
    # genuinely fractional rather than exact halves of lattice edges
    rng = np.random.default_rng(707)
    tracts = grid_tracts(4, 4, size=1000.0)
    from tracteq.network import Edge, Graph
    nodes = {f"n{i:02d}": (float(rng.uniform(0, 4000)), float(rng.uniform(0, 4000)))
             for i in range(30)}
    ids = sorted(nodes)
    edges = []
    seen = set()
    while len(edges) < 60:
        u, v = (str(x) for x in rng.choice(ids, size=2, replace=False))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        (x1, y1), (x2, y2) = nodes[u], nodes[v]
        length = math.hypot(x2 - x1, y2 - y1)
        if length <= 0:
            continue
        edges.append(Edge(u, v, length, float(rng.uniform(5, 25))))
    graph = Graph(nodes, edges)
    edge_map = build_edge_tract_map(graph, tracts, mode="split")
    for _ in range(40):
        o, d = (str(x) for x in rng.choice(ids, size=2, replace=False))
        route = shortest_path(graph, o, d)
        if route is None or not route.edges:
            continue
        total = math.fsum(route_tract_distances(route, edge_map).values())
        worst_split_rel = max(worst_split_rel,
                              abs(total - route.total_length) / route.total_length)
        n_routes += 1

    criterion(7, worst_mid == 0.0 and worst_split_rel <= 1e-9,
              f"midpoint max|sum - total| = {worst_mid!r} (exact), "
              f"split max rel err = {worst_split_rel:.3e} (tol 1e-9), "
              f"{n_routes} routes")


def test_criterion_08_index_invariants_on_random_tables():
    rng = np.random.default_rng(808)
    worst_sum = worst_bound = worst_scale = 0.0
    for _ in range(50):
        groups = ("white", "non_white") if rng.random() < 0.5 else ("a", "b", "c")
        ids = [f"T{i:02d}" for i in range(int(rng.integers(3, 12)))]
        D = {}
        C = {}
        for tid in ids:
            if rng.random() < 0.15:
                D[tid] = dict.fromkeys(groups, 0.0)  # undefined on purpose
            else:
                D[tid] = {g: float(rng.uniform(0, 50)) for g in groups}
            C[tid] = {g: float(rng.uniform(0, 30)) for g in groups}
        table = traversal_table(D, C, groups)
        idx = index_dict(inequity_index(table))
        for tid in idx:
            vals = [idx[tid][g] for g in groups]
            worst_sum = max(worst_sum, abs(math.fsum(vals)))
            worst_bound = max(worst_bound, max(abs(v) for v in vals))
        for c in (0.1, 7.0, 1e6):
            scaled = traversal_table(
                {t: {g: v * c for g, v in by.items()} for t, by in D.items()},
                {t: {g: v * c for g, v in by.items()} for t, by in C.items()},
                groups,
            )
            idx_c = index_dict(inequity_index(scaled))
            assert list(idx_c) == list(idx)
            for tid in idx:
                for g in groups:
                    worst_scale = max(
                        worst_scale, abs(idx_c[tid][g] - idx[tid][g])
                    )
    criterion(8, worst_sum <= 1e-12 and worst_bound <= 1.0 and worst_scale <= 1e-12,
              f"max|sum_g I| = {worst_sum:.2e} (tol 1e-12), max|I| = "
              f"{worst_bound:.3f} (bound 1), max scale drift = {worst_scale:.2e} "
              "(tol 1e-12) for c in {0.1, 7, 1e6}")


def test_criterion_09_bernoulli_mean_matches_fractional():
    sc = generate(ScenarioSpec(
        rows=10, cols=10, cell_size=500.0,
        surfaces={"intercept": Surface("constant", value=1.0),
                  "x1": Surface("constant", value=2.0)},
        noise_sigma=0.05,
        group_share=Surface("gradient", value=0.2, gx=0.6 / 5000.0),
        od_pairs=40, max_count=10, seed=17,
    ))
    frac = simulate(assign_groups(sc.od, sc.tracts, mode="fractional"),
                    sc.tracts, sc.graph, sc.edge_map)

    n_seeds = 200
    frac_D = traversal_dicts(frac)[0]
    acc = {}
    for s in range(n_seeds):
        tab = simulate(assign_groups(sc.od, sc.tracts, mode="bernoulli", seed=s),
                       sc.tracts, sc.graph, sc.edge_map)
        for tid, by_g in traversal_dicts(tab)[0].items():
            for g, v in by_g.items():
                acc[(tid, g)] = acc.get((tid, g), 0.0) + v

    # binomial variance of a single seed's D per cell, from the OD geometry
    share = {t.tract_id: t.attributes["group_share"] for t in sc.tracts}
    traversals, _ = route_traversals(sc.od, sc.tracts, sc.graph, sc.edge_map)
    var = {}
    for home, work, count in sc.od.rows:
        per_tract = traversals.get((home, work))
        if per_tract is None:
            continue
        v_count = count * share[home] * (1.0 - share[home])
        for tid, meters in per_tract.items():
            km = meters / 1000.0
            for g in GROUPS:
                var[(tid, g)] = var.get((tid, g), 0.0) + km * km * v_count

    worst_z = 0.0
    cells = 0
    for cell, total in acc.items():
        mean = total / n_seeds
        expect = frac_D.get(cell[0], {}).get(cell[1], 0.0)
        se = math.sqrt(var.get(cell, 0.0) / n_seeds)
        if se == 0.0:
            assert abs(mean - expect) < 1e-9, cell
            continue
        worst_z = max(worst_z, abs(mean - expect) / se)
        cells += 1

    sc_u = generate(ScenarioSpec(
        rows=10, cols=10, cell_size=500.0,
        surfaces={"intercept": Surface("constant", value=1.0),
                  "x1": Surface("constant", value=2.0)},
        noise_sigma=0.05,
        group_share=Surface("constant", value=0.37),
        od_pairs=40, max_count=10, seed=17,
    ))
    tab_u = simulate(assign_groups(sc_u.od, sc_u.tracts, mode="fractional"),
                     sc_u.tracts, sc_u.graph, sc_u.edge_map)
    idx = inequity_index(tab_u)
    worst_uniform = float(np.abs(idx.values).max())

    criterion(9, worst_z <= 3.0 and worst_uniform <= 1e-12,
              f"max |mean - fractional| = {worst_z:.2f} SE (tol 3 SE) over "
              f"{cells} cells x {n_seeds} seeds; uniform-share max|I| = "
              f"{worst_uniform:.2e} (tol 1e-12)")


def test_criterion_10_pipeline_byte_identical(tmp_path):
    scen = tmp_path / "scenario"
    assert main(["synth", "--out", str(scen), "--rows", "6", "--cols", "6",
                 "--od-pairs", "25", "--max-count", "8", "--seed", "3",
                 "--highway-row", "3"]) == 0
    cfg = str(scen / "config.json")
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    mismatched = []
    for other in outs[1:]:
        assert sorted(os.listdir(other)) == names
        for name in names:
            if not filecmp.cmp(outs[0] / name, other / name, shallow=False):
                mismatched.append((other.name, name))
    criterion(10, not mismatched,
              f"{len(names)} artifacts byte-identical across repeat run and "
              f"1 vs 8 workers; mismatches: {mismatched or 'none'}")


def test_criterion_11_report_layout_matches_goldens():
    m1 = make_fit(("intercept", "vkt (log)"), [6.13, -1.24], [0.29, 0.08], 212, 0.38)
    m2 = make_fit(("intercept", "vkt (log)", "med_income"),
                  [1.31, -0.62, 0.05], [0.38, 0.10, 0.04], 212, 0.54)
    summary = GwrSummary(
        column_names=("intercept", "vkt (log)"),
        mean=np.array([4.2, -0.85]), min=np.array([1.1, -2.1]),
        max=np.array([9.8, 0.3]),
        pct_sig_neg=np.array([0.0, 0.625]), pct_sig_pos=np.array([0.75, 0.0]),
        mean_local_r2=0.67, min_local_r2=0.45, max_local_r2=0.94,
        neighbors_k=53, aicc=412.7, n_used=212, n_failed=0,
    )
    ols_ok = format_ols_table([("m1", m1), ("m2", m2)]) == golden("ols_table.txt")
    gwr_ok = format_gwr_table("local model", summary) == golden("gwr_table.txt")
    eq_ok = format_equity_summary("white", [
        ("all", 0.0123, 87), ("highway", 0.0456, 12),
        ("non_highway", -0.0089, 75), ("corridor I-5", 0.0712, 9),
    ]) == golden("equity_summary.txt")
    criterion(11, ols_ok and gwr_ok and eq_ok,
              f"golden comparison: ols_table={ols_ok} gwr_table={gwr_ok} "
              f"equity_summary={eq_ok}")


def _standin_inputs(tmp_path):
    """Synthetic stand-in with the canonical replication columns; pm25 is
    constructed with negative coefficients on log(vkt) and prop_white."""
    from tracteq.config import replication_config
    from tracteq.synth import write_scenario

    sc = generate(ScenarioSpec(
        rows=12, cols=12, cell_size=500.0,
        surfaces={"intercept": Surface("constant", value=1.0),
                  "x1": Surface("constant", value=2.0)},
        noise_sigma=0.05,
        group_share=Surface("constant", value=0.5),
        od_pairs=40, max_count=10, seed=5,
        highway_row=5,
    ))
    scen = tmp_path / "standin"
    paths = write_scenario(sc, str(scen))

    rng = np.random.default_rng(42)
    ids = list(sc.tracts.ids)
    n = len(ids)
    cols = {
        "vkt": rng.uniform(2.0, 30.0, n),
        "prop_white": rng.uniform(0.15, 0.9, n),
        "med_income": rng.uniform(30.0, 120.0, n),
        "truck_volume": rng.uniform(1.0, 9.0, n),
        "intersection_density": rng.uniform(20.0, 200.0, n),
        "grade_mean": rng.uniform(0.5, 8.0, n),
        "prop_single_family": rng.uniform(0.1, 0.95, n),
        "med_rooms": rng.uniform(3.0, 8.0, n),
        "mean_household_size": rng.uniform(1.8, 4.2, n),
        "pop_density": rng.uniform(500.0, 9000.0, n),
        "med_home_value": rng.uniform(200.0, 900.0, n),
        "population": rng.integers(500, 1501, n).astype(float),
        "commuters": rng.integers(100, 401, n).astype(float),
    }
    cols["pm25"] = np.exp(1.5 - 0.30 * np.log(cols["vkt"])
                          - 0.80 * cols["prop_white"]
                          + rng.normal(0.0, 0.02, n))
    names = sorted(cols)
    with open(paths["attributes"], "w", encoding="utf-8") as fh:
        fh.write("tract_id," + ",".join(names) + ",dist_highway\n")
        for i, tid in enumerate(ids):
            cells = [repr(float(cols[c][i])) for c in names]
            fh.write(f"{tid},{','.join(cells)},\n")  # dist_highway left derived

    raw = replication_config(paths, output_dir=".", seed=5)
    cfg_path = scen / "config.json"
    cfg_path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    return cfg_path


def _check_replication_outputs(outdir):
    """Shared structural assertions for the four-model harness."""
    problems = []
    for name in ("ols_model1", "ols_model2"):
        path = outdir / f"{name}.json"
        if not path.exists():
            problems.append(f"{name}.json missing")
            continue
        blob = json.loads(path.read_text())
        for term in ("vkt (log)", "prop_white"):
            coef = blob["coefficients"][blob["column_names"].index(term)]
            if not coef < 0.0:
                problems.append(f"{name} {term} = {coef:.3f}, expected < 0")
    for name in ("gwr_model3", "gwr_model4"):
        if not (outdir / f"{name}_summary.txt").exists():
            problems.append(f"{name}_summary.txt missing")
    report = (outdir / "report.txt").read_text()
    for token in ("model1", "model2", "model3", "model4",
                  "vkt (log)", "prop_white", "non_highway"):
        if token not in report:
            problems.append(f"report.txt lacks {token!r}")
    return problems


def test_criterion_12_replication_harness_smoke(tmp_path):
    cfg_path = _standin_inputs(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    problems = [] if rc == 0 else [f"run exited {rc}"]
    problems += _check_replication_outputs(out)
    criterion(12, not problems,
              "four-model harness on a constructed stand-in: tables emitted, "
              "weighted-mean summaries emitted, constructed signs recovered; "
              f"problems: {problems or 'none'}")


@pytest.mark.skipif(
    not os.environ.get("TRACTEQ_REAL_DATA"),
    reason="set TRACTEQ_REAL_DATA=/path/to/inputs to run the replication "
    "harness on real data (tracts.geojson, attributes.csv, and optionally "
    "nodes.csv, edges.csv, od.csv, highways.geojson)",
)
def test_criterion_12_replication_on_real_data(tmp_path):
    from tracteq.config import replication_config

    base = os.environ["TRACTEQ_REAL_DATA"]
    inputs = {"tracts": os.path.join(base, "tracts.geojson"),
              "attributes": os.path.join(base, "attributes.csv")}
    for key, fname in (("nodes", "nodes.csv"), ("edges", "edges.csv"),
                       ("od", "od.csv"), ("highways", "highways.geojson")):
        path = os.path.join(base, fname)
        if os.path.exists(path):
            inputs[key] = path
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        replication_config(inputs, output_dir=".", seed=0),
        sort_keys=True, indent=2) + "\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    problems = [] if rc == 0 else [f"run exited {rc}"]
    problems += _check_replication_outputs(out)
    criterion(12, not problems,
              f"four-model harness on {base}: problems: {problems or 'none'}")
