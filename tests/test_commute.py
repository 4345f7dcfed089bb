import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    absorbed_edge_inputs,
    gap_strip,
    grid_tracts,
    nearest_node_brute,
    path_carrying_shortest_path,
    random_graph,
    simulate_reference,
    square_tract,
    tie_heavy_graph,
    traversal_dicts,
    traversal_table,
)
from tracteq import commute, network
from tracteq.commute import (
    GROUPS,
    ODTable,
    assign_groups,
    load_od,
    nearest_node,
    read_traversal,
    route_traversals,
    scale_by_drive_share,
    simulate,
    write_traversal,
)
from tracteq.data_model import TractSet
from tracteq.errors import ConsistencyError, ValidationError
from tracteq.network import (
    OUTSIDE_ZONE,
    Edge,
    Graph,
    build_edge_tract_map,
    build_graph,
    route_tract_distances,
)
from tracteq.synth import ScenarioSpec, generate, write_scenario


def line_world(n_tracts=3, share=0.5, mode="split"):
    """n tracts in a row, one node at each tract center, a street between
    neighbors. With split attribution each 1 km edge leaves 500 m in both of
    the tracts it connects."""
    ts = grid_tracts(1, n_tracts, attr_fn=lambda r, c: {
        "population": 1000.0, "commuters": 200.0, "group_share": share,
    })
    nodes = {f"N{i}": (i * 1000.0 + 500.0, 500.0) for i in range(n_tracts)}
    edges = [Edge(f"N{i}", f"N{i+1}", 1000.0, 10.0) for i in range(n_tracts - 1)]
    g = Graph(nodes, edges)
    em = build_edge_tract_map(g, ts, mode=mode)
    return ts, g, em


def ab_tracts():
    return TractSet([square_tract("A", 0, 0), square_tract("B", 1, 0)])


def test_od_from_rows_merges_and_sorts(rng):
    od = ODTable.from_rows([("B", "A", 3), ("A", "B", 2), ("B", "A", 4)], ab_tracts())
    assert od.rows == (("A", "B", 2), ("B", "A", 7))
    assert sum(c for _, _, c in od.rows) == 9
    assert (od.ids, od.home.tolist(), od.work.tolist(), od.count.tolist()) == (
        ("A", "B"), [0, 1], [1, 0], [2, 7])
    assert (od.home.dtype, od.work.dtype, od.count.dtype) == (np.int32, np.int32, np.int64)
    # Against a dict merge of random rows, many of them repeated pairs.
    ts = grid_tracts(3, 4)
    rows = [(ts.ids[h], ts.ids[w], c) for h, w, c in
            rng.integers(0, [12, 12, 5], size=(300, 3)).tolist()]
    merged = {}
    for home, work, count in rows:
        merged[home, work] = merged.get((home, work), 0) + count
    assert ODTable.from_rows(rows, ts).rows == tuple(
        (h, w, c) for (h, w), c in sorted(merged.items()))


def test_od_rejects_negative():
    with pytest.raises(ValidationError):
        ODTable.from_rows([("A", "B", -1)], ab_tracts())


def test_od_from_rows_refuses_a_count_that_is_not_whole():
    abcd = TractSet([square_tract(tid, col, 0) for col, tid in enumerate("ABCD")])
    for count in (2.7, math.nan, math.inf, "3"):
        with pytest.raises(ValidationError, match=re.escape(
                f"OD pair A->B: count {count} is not a whole number")):
            ODTable.from_rows([("C", "D", 1), ("A", "B", count)], abcd)
    od = ODTable.from_rows([("A", "B", 2.0), ("A", "B", np.int64(3))], abcd)
    assert od.rows == (("A", "B", 5),)
    assert type(od.rows[0][2]) is int


def test_od_from_rows_refuses_a_total_past_the_int64_range():
    # The merged counts are summed as int64, so a table whose total would
    # not fit is refused, not wrapped around or raised as OverflowError.
    big = 2**63 - 1
    od = ODTable.from_rows([("A", "B", big - 1), ("A", "B", 1)], ab_tracts())
    assert od.rows == (("A", "B", big),)
    for rows in ([("A", "B", big), ("B", "A", 1)], [("A", "B", 99999999999999999999)]):
        with pytest.raises(ValidationError, match="takes the total count past the int64 limit"):
            ODTable.from_rows(rows, ab_tracts())


def test_load_od_names_the_line_of_a_count_past_the_int64_range(tmp_path):
    # Like load_od's other count faults, and unlike from_rows', the message
    # names the file and line; a row it drops adds nothing to the total.
    p = tmp_path / "od.csv"
    p.write_text(f"home,work,count\nA,Z,{2**63 - 1}\nA,B,{2**63 - 1}\n"
                 "B,A,99999999999999999999\n")
    with pytest.raises(ValidationError, match=re.escape(
            f"{p} line 4: count 99999999999999999999 takes the total count past "
            f"the int64 limit {2**63 - 1}")):
        load_od(str(p), ab_tracts())


def test_load_od_basic(tmp_path):
    p = tmp_path / "od.csv"
    p.write_text("home,work,count\nA,B,3\nB,A,5\n")
    od = load_od(str(p), ab_tracts())
    assert od.rows == (("A", "B", 3), ("B", "A", 5))


def test_load_od_rejects_fractional_count(tmp_path):
    p = tmp_path / "od.csv"
    p.write_text("home,work,count\nA,B,3.5\n")
    with pytest.raises(ValidationError, match="integer"):
        load_od(str(p), ab_tracts())


def test_load_od_rejects_negative(tmp_path):
    p = tmp_path / "od.csv"
    p.write_text("home,work,count\nA,B,-2\n")
    with pytest.raises(ValidationError, match="negative"):
        load_od(str(p), ab_tracts())


def test_load_od_drops_unknown_tracts(tmp_path, caplog):
    ts, _, _ = line_world(2)
    p = tmp_path / "od.csv"
    p.write_text("home,work,count\nT000000,T000001,3\nT000000,ZZZ,4\n")
    with caplog.at_level("WARNING"):
        od = load_od(str(p), ts)
    assert od.rows == (("T000000", "T000001", 3),)
    assert "dropped 1" in caplog.text


def test_load_od_all_dropped_errors(tmp_path):
    ts, _, _ = line_world(2)
    p = tmp_path / "od.csv"
    p.write_text("home,work,count\nX,Y,3\n")
    with pytest.raises(ValidationError, match="no usable"):
        load_od(str(p), ts)


def load_od_bytes(tmp_path, od_pairs):
    """(pairs, bytes held, peak bytes) of load_od on a 16x16 synth od.csv."""
    sc = generate(ScenarioSpec(rows=16, cols=16, od_pairs=od_pairs, seed=3))
    path = write_scenario(sc, str(tmp_path / str(od_pairs)))["od"]
    load_od(path, sc.tracts)  # one-time allocations fall before the measured call
    tracemalloc.start()
    try:
        od = load_od(path, sc.tracts)
        held, peak = tracemalloc.get_traced_memory()
        return len(od), held, peak
    finally:
        tracemalloc.stop()


def test_od_table_holds_three_columns_per_pair(tmp_path):
    # int32 home and work ranks and an int64 count hold 16 B per pair; a
    # tuple per row held ~190 B, and the dict it was merged in peaked at
    # ~340 B.
    n_small, held_small, peak_small = load_od_bytes(tmp_path, 2000)
    n_large, held_large, peak_large = load_od_bytes(tmp_path, 8000)
    added = n_large - n_small
    assert added > 5000
    assert (held_large - held_small) / added <= 24
    assert (peak_large - peak_small) / added <= 128


def test_assign_fractional_hand_case():
    ts, _, _ = line_world(2, share=0.3)
    od = ODTable.from_rows([("T000000", "T000001", 10)], ts)
    a = assign_groups(od, ts, mode="fractional")
    white, non_white = a.weights[0]
    assert white == 3.0
    assert non_white == 7.0


def test_assign_weights_always_sum_to_count():
    ts, _, _ = line_world(3, share=0.37)
    od = ODTable.from_rows([("T000000", "T000002", 13), ("T000001", "T000000", 7)], ts)
    for mode in ("fractional", "bernoulli"):
        a = assign_groups(od, ts, mode=mode, seed=5)
        for (_, _, count), groups in zip(od.rows, a.weights, strict=True):
            assert math.fsum(groups) == count


def test_assign_degenerate_share():
    ts, _, _ = line_world(2, share=1.0)
    od = ODTable.from_rows([("T000000", "T000001", 8)], ts)
    for mode in ("fractional", "bernoulli"):
        a = assign_groups(od, ts, mode=mode, seed=1)
        white, non_white = a.weights[0]
        assert white == 8.0
        assert non_white == 0.0


def test_assign_bernoulli_reproducible_and_order_free():
    ts, _, _ = line_world(4, share=0.5)
    rows = [("T000000", "T000003", 9), ("T000001", "T000002", 5),
            ("T000002", "T000000", 11)]
    od_sorted = ODTable.from_rows(rows, ts)
    od_reversed = ODTable.from_rows(list(reversed(rows)), ts)
    a = assign_groups(od_sorted, ts, mode="bernoulli", seed=42)
    b = assign_groups(od_reversed, ts, mode="bernoulli", seed=42)
    assert np.array_equal(a.weights, b.weights)
    c = assign_groups(od_sorted, ts, mode="bernoulli", seed=43)
    assert not np.array_equal(c.weights, a.weights)  # different seed moves at least one pair


def test_assign_unknown_mode_and_missing_share():
    ts, _, _ = line_world(2)
    od = ODTable.from_rows([("T000000", "T000001", 3)], ts)
    with pytest.raises(ValueError):
        assign_groups(od, ts, mode="coinflip")
    bare = grid_tracts(1, 2)
    with pytest.raises(ValidationError, match="group share"):
        assign_groups(od, bare, mode="fractional")


def test_od_from_rows_refuses_a_home_outside_the_tract_set():
    ts, _, _ = line_world(2)
    with pytest.raises(ValidationError, match="OD home tract 'T000009' not in tract set"):
        ODTable.from_rows([("T000009", "T000001", 3)], ts)


def test_od_from_rows_refuses_a_work_tract_outside_the_tract_set():
    ts, _, _ = line_world(2)
    with pytest.raises(ValidationError, match="OD work tract 'Z' not in tract set"):
        ODTable.from_rows([("T000000", "T000001", 2), ("T000000", "Z", 3)], ts)


def test_assign_names_the_smallest_home_without_a_share():
    # Homes are checked in sorted order, so the error does not depend on
    # string hashing when several homes are bad.
    ts = grid_tracts(1, 21, attr_fn=lambda r, c: {"group_share": 0.5} if c == 0 else {})
    od = ODTable.from_rows(((f"T000{c:03d}", "T000000", 1) for c in range(20, -1, -1)), ts)
    with pytest.raises(ValidationError, match="tract 'T000001' has no group share"):
        assign_groups(od, ts, mode="fractional")


def drive_shares(tracts, by_id):
    """A drive-share array in tract rank order, NaN where by_id has no share."""
    return np.array([by_id.get(tid, math.nan) for tid in tracts.ids])


def test_scale_by_drive_share():
    ts, _, _ = line_world(2, share=0.3)
    od = ODTable.from_rows([("T000000", "T000001", 10)], ts)
    a = assign_groups(od, ts, mode="fractional")
    scaled = scale_by_drive_share(a, drive_shares(ts, {"T000000": 0.5}))
    white, non_white = scaled.weights[0]
    assert white == 1.5
    assert non_white == 3.5
    with pytest.raises(ValidationError, match="no drive share"):
        scale_by_drive_share(a, drive_shares(ts, {}))
    with pytest.raises(ValidationError, match="outside"):
        scale_by_drive_share(a, drive_shares(ts, {"T000000": 1.2}))


def test_scale_refuses_a_nan_drive_share():
    ts, _, _ = line_world(2, share=0.3)
    a = assign_groups(ODTable.from_rows([("T000000", "T000001", 10)], ts), ts, mode="fractional")
    with pytest.raises(ValidationError, match="no drive share for home tract 'T000000'"):
        scale_by_drive_share(a, drive_shares(ts, {"T000000": math.nan}))


def test_scale_names_the_smallest_home_without_a_drive_share():
    # Homes are checked once each in sorted order, so with several bad homes
    # the error names the smallest.
    ts = grid_tracts(1, 21, attr_fn=lambda r, c: {"group_share": 0.5})
    od = ODTable.from_rows(((f"T000{c:03d}", "T000000", 1) for c in range(20, -1, -1)), ts)
    a = assign_groups(od, ts, mode="fractional")
    with pytest.raises(ValidationError, match="no drive share for home tract 'T000001'"):
        scale_by_drive_share(a, drive_shares(ts, {"T000000": 0.5, "T000003": 1.5}))
    with pytest.raises(ValidationError, match="tract 'T000001': drive share 1.5 outside"):
        scale_by_drive_share(a, drive_shares(ts, {"T000000": 0.5, "T000001": 1.5}))


def assignment_held_bytes(od_pairs, mode):
    """(pairs, bytes held by an assignment plus its drive-share copy) on a
    16x16 synth scenario."""
    sc = generate(ScenarioSpec(rows=16, cols=16, od_pairs=od_pairs, seed=3))
    drive = np.full(len(sc.tracts), 0.75)
    tracemalloc.start()
    try:
        a = assign_groups(sc.od, sc.tracts, mode=mode, seed=3)
        scaled = scale_by_drive_share(a, drive)
        held = tracemalloc.get_traced_memory()[0]
        del a, scaled
        return len(sc.od.rows), held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["fractional", "bernoulli"])
def test_trip_weights_hold_a_few_floats_per_pair(mode):
    # One float per group and pair in each assignment; a dict of weights per
    # pair would hold hundreds of bytes.
    n_small, small = assignment_held_bytes(400, mode)
    n_large, large = assignment_held_bytes(1600, mode)
    assert n_large - n_small > 1000
    assert (large - small) / (n_large - n_small) <= 64


def test_nearest_node_smallest_id_tie():
    g = Graph({"B": (0.0, 0.0), "A": (2.0, 0.0)}, [Edge("A", "B", 2.0, 1.0)])
    assert nearest_node(g, (1.0, 0.0)) == "A"
    assert nearest_node(g, (1.9, 0.0)) == "A"
    assert nearest_node(g, (0.1, 0.0)) == "B"


def test_nearest_node_matches_full_scan(rng):
    # seeded nodes and points, near the origin and at county-like projected
    # coordinates (~4e6 m)
    for offset in (0.0, 4.2e6):
        nodes = {f"n{i:03d}": tuple(rng.uniform(0, 5000, 2) + offset) for i in range(300)}
        g = Graph(nodes, [])
        for point in rng.uniform(-500, 5500, (200, 2)) + offset:
            assert nearest_node(g, tuple(point)) == nearest_node_brute(g, point)
        # query points on a node
        for nid in list(nodes)[::17]:
            assert nearest_node(g, nodes[nid]) == nid


def test_nearest_node_grid_midpoints_and_duplicates():
    # 250 m grid, ids assigned against coordinate order so that the smallest
    # id is not the first node a tree would find
    nodes = {}
    for r in range(6):
        for c in range(6):
            nodes[f"v{(35 - 6 * r - c):02d}"] = (c * 250.0, r * 250.0)
    # duplicate coordinates: several ids on one spot
    nodes["dup_b"] = (500.0, 500.0)
    nodes["dup_a"] = (500.0, 500.0)
    g = Graph(nodes, [])
    points = [(x + 125.0, y) for x, y in nodes.values()]  # midpoints on rows
    points += [(x, y + 125.0) for x, y in nodes.values()]  # midpoints on columns
    points += [(x + 125.0, y + 125.0) for x, y in nodes.values()]  # cell centres
    points += list(nodes.values())  # on a node
    for point in points:
        assert nearest_node(g, point) == nearest_node_brute(g, point), point
    assert nearest_node(g, (500.0, 500.0)) == "dup_a"


def test_chunked_nearest_nodes_match_a_full_scan(monkeypatch):
    # Every tract centroid of a synth grid sits equidistant from several
    # nodes; grid midpoints, cell centres and a spot with two ids are
    # equidistant too. Chunks of seven points leave a short last chunk.
    sc = generate(ScenarioSpec(rows=12, cols=12, seed=3, highway_row=6))
    nodes = {f"v{(35 - 6 * r - c):02d}": (c * 250.0, r * 250.0)
             for r in range(6) for c in range(6)}
    nodes["dup_b"] = nodes["dup_a"] = (500.0, 500.0)
    grid = Graph(nodes, [])
    spots = np.array([(x + dx, y + dy) for x, y in nodes.values()
                      for dx, dy in ((0, 0), (125.0, 0), (0, 125.0), (125.0, 125.0))])
    for g, points in ((sc.graph, sc.tracts.centroids), (grid, spots)):
        monkeypatch.setattr(commute, "_NEAREST_CELLS", 7 * len(g.nodes))
        assert len(points) % 7
        ranks = commute._nearest_nodes(g, points)
        assert [g.node_coords()[0][r] for r in ranks] == [
            nearest_node_brute(g, p) for p in points]
    assert commute._nearest_nodes(grid, np.array([(500.0, 500.0)])).tolist() == [
        grid.rank["dup_a"]]


def test_nearest_node_empty_graph():
    with pytest.raises(ValidationError, match="graph has no nodes"):
        nearest_node(Graph({}, []), (0.0, 0.0))


def assert_traversals_match_per_pair_routes(od, tracts, graph, edge_map):
    trav, unreachable = route_traversals(od, tracts, graph, edge_map)
    want = {}
    for home, work, _ in od.rows:
        o = nearest_node_brute(graph, tracts.centroids[tracts.index_of(home)])
        d = nearest_node_brute(graph, tracts.centroids[tracts.index_of(work)])
        route = path_carrying_shortest_path(graph, o, d)
        want[(home, work)] = None if route is None else route_tract_distances(route, edge_map)
    assert list(trav) == list(want)
    for pair, per_tract in want.items():
        got = trav[pair]
        assert (got is None) == (per_tract is None)
        if got is not None:
            assert list(got) == list(per_tract)
            assert [v.hex() for v in got.values()] == [v.hex() for v in per_tract.values()]
    assert unreachable == sum(1 for v in want.values() if v is None)
    return trav


@pytest.mark.parametrize("scenario", ["step_scenario", "gradient_scenario"])
def test_route_traversals_matches_per_pair_routes(scenario, request):
    sc = request.getfixturevalue(scenario)
    assert_traversals_match_per_pair_routes(sc.od, sc.tracts, sc.graph, sc.edge_map)


def all_pairs(tracts):
    return ODTable.from_rows(((h, w, 1) for h in tracts.ids for w in tracts.ids), tracts)


def test_route_traversals_matches_per_pair_routes_random_graphs(rng):
    # Nine tracts over fewer than twelve nodes: several tracts snap to one
    # node (same-node pairs), and one-way edges leave pairs unreachable.
    tracts = grid_tracts(3, 3, size=1000.0 / 3)
    od = all_pairs(tracts)
    for trial in range(20):
        g = random_graph(rng, int(rng.integers(2, 12)))
        assert_traversals_match_per_pair_routes(
            od, tracts, g, build_edge_tract_map(g, tracts, mode="split"))


def test_route_traversals_matches_per_pair_routes_tie_heavy_graphs(rng):
    tracts = grid_tracts(3, 3, size=2.0)
    od = all_pairs(tracts)
    for trial in range(6):
        g = tie_heavy_graph(rng, 5, 6)
        assert_traversals_match_per_pair_routes(
            od, tracts, g, build_edge_tract_map(g, tracts, mode="split"))


def test_route_traversals_absorbed_edge_falls_back():
    # At 1e16 s a route cannot add the 0.5 s edges, and the graph is refused.
    # At 2**46 s it is accepted, and the route is the faster (a, c, d), all in
    # T000001; (a, b, e, d) would put 2**46 + 0.5 m in T000000.
    with pytest.raises(ValidationError, match="edge b->e"):
        Graph(*absorbed_edge_inputs(1e16))
    tracts = grid_tracts(1, 2)
    g = Graph(*absorbed_edge_inputs(2.0**46))
    trav = assert_traversals_match_per_pair_routes(
        all_pairs(tracts), tracts, g, build_edge_tract_map(g, tracts))
    assert trav[("T000000", "T000001")] == {"T000001": 2.0**46 + 0.5}
    assert trav[("T000000", "T000000")] == {}


@pytest.mark.parametrize("big", [1e16, 2.0**52])
def test_simulate_absorbed_edge_falls_back(tmp_path, big):
    # The street tables that the simulate stage reads are refused as they
    # are read, naming the first 0.5 s edge.
    nodes, edges = absorbed_edge_inputs(big)
    nodes_csv = tmp_path / "nodes.csv"
    nodes_csv.write_text("id,x,y\n" + "".join(f"{k},{x},{y}\n" for k, (x, y) in nodes.items()))
    edges_csv = tmp_path / "edges.csv"
    edges_csv.write_text("u,v,length_m,speed_ms\n"
                         + "".join(f"{e.u},{e.v},{e.length!r},{e.speed}\n" for e in edges))
    with pytest.raises(ValidationError, match=r"edge b->e: travel time 0\.5 s is too small"):
        build_graph(str(nodes_csv), str(edges_csv))


def test_simulate_missing_edge_names_first_along_route():
    ts = grid_tracts(1, 2, attr_fn=lambda r, c: {"group_share": 0.5})
    nodes = {"A": (500.0, 500.0), "B": (800.0, 500.0), "C": (1200.0, 500.0),
             "D": (1500.0, 500.0)}
    g = Graph(nodes, [Edge("A", "B", 1.0, 1.0), Edge("B", "C", 1.0, 1.0),
                      Edge("C", "D", 1.0, 1.0)])
    em = build_edge_tract_map(g, ts)
    del em.parts["B", "C"], em.parts["C", "D"]
    od = ODTable.from_rows([("T000000", "T000001", 4)], ts)
    with pytest.raises(ConsistencyError, match="B->C"):
        simulate(assign_groups(od, ts), ts, g, em)
    with pytest.raises(ConsistencyError, match="B->C"):
        route_traversals(od, ts, g, em)


def test_route_traversals_counts_unreachable_pairs():
    ts = grid_tracts(1, 3, attr_fn=lambda r, c: {"group_share": 0.5})
    # T000000 and T000001 share a component; T000002 is cut off
    g = Graph(
        {"A": (500.0, 500.0), "B": (1500.0, 500.0), "C": (2500.0, 500.0)},
        [Edge("A", "B", 1000.0, 10.0)],
    )
    em = build_edge_tract_map(g, ts, mode="midpoint")
    od = ODTable.from_rows([
        ("T000000", "T000001", 1), ("T000000", "T000002", 1), ("T000001", "T000002", 1),
    ], ts)
    trav, unreachable = route_traversals(od, ts, g, em)
    assert unreachable == 2
    assert trav[("T000000", "T000002")] is None
    assert trav[("T000001", "T000002")] is None
    # midpoint on the shared border goes to the first tract id
    assert trav[("T000000", "T000001")] == {"T000000": 1000.0}


def test_simulate_single_pair_hand_totals():
    # home T000000, work T000002; the 2 km route leaves 0.5 / 1.0 / 0.5 km
    # in the three tracts per unit weight
    ts, g, em = line_world(3, share=0.25)
    od = ODTable.from_rows([("T000000", "T000002", 4)], ts)
    a = assign_groups(od, ts, mode="fractional")
    table = simulate(a, ts, g, em)  # weights: white 1.0, non_white 3.0
    D, C = traversal_dicts(table)
    for tid, km in (("T000000", 0.5), ("T000001", 1.0), ("T000002", 0.5)):
        assert D[tid]["white"] == pytest.approx(km)
        assert D[tid]["non_white"] == pytest.approx(3.0 * km)
    assert C["T000000"]["white"] == 1.0
    assert C["T000000"]["non_white"] == 3.0
    assert C["T000002"] == dict.fromkeys(GROUPS, 0.0)  # nobody lives there
    assert table.n_pairs == 1
    assert table.n_unreachable == 0


def test_simulate_exclude_home_drops_home_distance_only():
    ts, g, em = line_world(3, share=0.5)
    od = ODTable.from_rows([("T000000", "T000002", 2)], ts)
    a = assign_groups(od, ts, mode="fractional")
    D, C = traversal_dicts(simulate(a, ts, g, em, exclude_home=True))
    assert D["T000000"] == dict.fromkeys(GROUPS, 0.0)
    assert D["T000001"]["white"] == pytest.approx(1.0)
    assert D["T000002"]["white"] == pytest.approx(0.5)
    assert C["T000000"]["white"] == 1.0  # commuters still live at home


def test_simulate_two_pairs_accumulate():
    ts, g, em = line_world(3, share=0.5)
    od = ODTable.from_rows([
        ("T000000", "T000002", 2),  # 2 km: 0.5 T0, 1.0 T1, 0.5 T2 per unit
        ("T000001", "T000002", 2),  # 1 km: 0.5 T1, 0.5 T2 per unit
    ], ts)
    a = assign_groups(od, ts, mode="fractional")
    table = simulate(a, ts, g, em)  # white weight 1 on each pair
    D, _ = traversal_dicts(table)
    assert D["T000000"]["white"] == pytest.approx(0.5)
    assert D["T000001"]["white"] == pytest.approx(1.0 + 0.5)
    assert D["T000002"]["white"] == pytest.approx(0.5 + 0.5)
    assert table.total_km() == pytest.approx(2.0 * 2 + 1.0 * 2)


def test_simulate_same_tract_pair_contributes_commuters_only():
    ts, g, em = line_world(2, share=0.5)
    od = ODTable.from_rows([("T000000", "T000000", 6)], ts)
    a = assign_groups(od, ts, mode="fractional")
    table = simulate(a, ts, g, em)
    assert table.zones == ("T000000",)
    assert not table.D.any()
    assert traversal_dicts(table)[1]["T000000"]["white"] == 3.0


def test_simulate_unreachable_pairs_skipped():
    ts = grid_tracts(1, 2, attr_fn=lambda r, c: {"group_share": 0.5})
    # two disconnected components under their own tracts
    g = Graph(
        {"A": (400.0, 500.0), "B": (600.0, 500.0),
         "C": (1400.0, 500.0), "D": (1600.0, 500.0)},
        [Edge("A", "B", 200.0, 10.0), Edge("C", "D", 200.0, 10.0)],
    )
    em = build_edge_tract_map(g, ts, mode="midpoint")
    od = ODTable.from_rows([("T000000", "T000001", 5), ("T000000", "T000000", 3)], ts)
    a = assign_groups(od, ts, mode="fractional")
    table = simulate(a, ts, g, em)
    assert table.n_unreachable == 1
    assert table.zones == ("T000000",)
    assert not table.D.any()  # cross pair unreachable; same-pair routes nowhere
    assert traversal_dicts(table)[1]["T000000"]["white"] == 1.5  # only the reachable pair counts


def test_inline_routing_builds_one_tree_per_home_in_sorted_order(step_scenario, monkeypatch):
    sc = step_scenario
    node_of = {tid: nearest_node(sc.graph, tuple(sc.tracts.centroids[sc.tracts.index_of(tid)]))
               for tid in sc.tracts.ids}
    works_of = {}
    for home, work, _ in sc.od.rows:
        works_of.setdefault(home, set()).add(node_of[work])
    want = [(node_of[home], works_of[home]) for home in sorted(works_of)]
    real = network._search_tree
    calls = []

    def spy(graph, source, targets):
        calls.append((graph._ids[source], {graph._ids[r] for r in targets}))
        return real(graph, source, targets)

    monkeypatch.setattr(network, "_search_tree", spy)
    a = assign_groups(sc.od, sc.tracts, mode="fractional")
    simulate(a, sc.tracts, sc.graph, sc.edge_map)
    assert calls == want
    calls.clear()
    route_traversals(sc.od, sc.tracts, sc.graph, sc.edge_map)
    assert calls == want


def simulate_peak_bytes(od_pairs):
    sc = generate(ScenarioSpec(rows=16, cols=16, od_pairs=od_pairs, seed=3))
    a = assign_groups(sc.od, sc.tracts, mode="fractional")
    tracemalloc.start()
    try:
        simulate(a, sc.tracts, sc.graph, sc.edge_map)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_one_home_of_routes_at_a_time():
    # Routes are added as each home's tree is read, so simulate's own peak
    # hardly grows with the number of pairs; a table of every pair's routes
    # would grow with it.
    # At 1,600 pairs and more each run walks several times
    # network._FLUSH_STEPS edge steps, so both runs flush at full size.
    assert simulate_peak_bytes(6400) <= 1.5 * simulate_peak_bytes(1600)


def test_traversal_roundtrip_exact(tmp_path, step_scenario):
    sc = step_scenario
    a = assign_groups(sc.od, sc.tracts, mode="bernoulli", seed=9)
    table = simulate(a, sc.tracts, sc.graph, sc.edge_map)
    path = tmp_path / "trav.csv"
    write_traversal(table, str(path), header_lines=["written by a test"])
    back = read_traversal(str(path))
    assert back.groups == GROUPS
    assert back.zones == table.zones
    assert hexed(back) == hexed(table)


def test_traversal_rows_are_in_id_order_around_the_outside_zone(tmp_path):
    # "A" < "__outside__" < "b": by tract rank the outside zone would come last.
    ts, g, em = gap_strip(("A", "b"))
    od = ODTable.from_rows([("A", "b", 4), ("b", "A", 2)], ts)
    table = simulate(assign_groups(od, ts), ts, g, em)
    assert table.zones == ("A", OUTSIDE_ZONE, "b")
    path = tmp_path / "traversal.csv"
    write_traversal(table, str(path))
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == [
        "A", "A", OUTSIDE_ZONE, OUTSIDE_ZONE, "b", "b"]
    back = read_traversal(str(path))
    assert back.zones == ("A", OUTSIDE_ZONE, "b")
    assert hexed(back) == hexed(table)
    D, C = traversal_dicts(back)
    assert D[OUTSIDE_ZONE] == {"white": 0.5 * 4 + 0.25 * 2, "non_white": 0.5 * 4 + 0.75 * 2}
    assert C["b"] == {"white": 0.5, "non_white": 1.5}


@pytest.mark.parametrize("column, cell", [("D_km", "nan"), ("D_km", "inf"), ("C_count", "-5"),
                                          ("C_count", "-inf")])
def test_read_traversal_refuses_a_negative_or_non_finite_cell(tmp_path, column, cell):
    p = tmp_path / "traversal.csv"
    row = {"D_km": "1.0", "C_count": "2.0", column: cell}
    p.write_text("tract_id,group,D_km,C_count\nA,white,1.0,2.0\n"
                 f"A,non_white,{row['D_km']},{row['C_count']}\n")
    with pytest.raises(ValidationError, match=re.escape(
            f"{p} line 3: {cell!r} in column {column!r} is not a finite nonnegative number")):
        read_traversal(str(p))


def test_read_traversal_requires_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("tract,group,km\nA,white,1\n")
    with pytest.raises(ValidationError, match="header"):
        read_traversal(str(p))


def test_read_traversal_refuses_a_repeated_tract_group_row(tmp_path):
    p = tmp_path / "traversal.csv"
    p.write_text("# a header line\ntract_id,group,D_km,C_count\n"
                 "A,white,1.0,2.0\nA,non_white,0.5,1.0\nA,white,5.0,3.0\n")
    with pytest.raises(ValidationError, match=re.escape(
            f"{p} line 5: duplicate row for tract 'A', group 'white'")):
        read_traversal(str(p))


def test_uniform_share_splits_distance_proportionally(step_scenario):
    sc = step_scenario
    uniform = grid_tracts(
        sc.spec.rows, sc.spec.cols, sc.spec.cell_size,
        attr_fn=lambda r, c: {"group_share": 0.37},
    )
    a = assign_groups(sc.od, uniform, mode="fractional")
    D, C = traversal_dicts(simulate(a, uniform, sc.graph, sc.edge_map))
    for tid in D:
        d_total = math.fsum(D[tid].values())
        if d_total > 0:
            assert D[tid]["white"] / d_total == pytest.approx(0.37, abs=1e-12)
        c_total = math.fsum(C[tid].values())
        if c_total > 0:
            assert C[tid]["white"] / c_total == pytest.approx(0.37, abs=1e-12)


def accounting_world(rng):
    """4x3 tracts of 1 km with group shares of 0, 1 and fractions, and a
    250 m street lattice whose edge lengths do not add exactly. The top-right
    tract's streets form their own component (pairs into or out of it are
    unreachable); the two tracts below it hold one node only, on their
    shared border, so both snap to it."""
    shares = [0.0, 1.0, 0.37, 0.5, 0.81, 0.123, 0.0, 0.66, 0.29, 1.0, 0.44, 0.9]
    ts = grid_tracts(3, 4, attr_fn=lambda r, c: {"group_share": shares[r * 4 + c]})
    nodes = {}
    for i in range(16):
        for j in range(12):
            x, y = 125.0 + 250.0 * i, 125.0 + 250.0 * j
            if not (x > 3000.0 and y < 2000.0):
                nodes[f"n{i:02d}{j:02d}"] = (x, y)
    nodes["hub"] = (3500.0, 1000.0)

    def cut_off(nid):
        return nodes[nid][0] > 3000.0 and nodes[nid][1] > 2000.0

    edges = [Edge("n1103", "hub", 700.3, 13.9)]
    for i in range(16):
        for j in range(12):
            here = f"n{i:02d}{j:02d}"
            for nbr in (f"n{i + 1:02d}{j:02d}", f"n{i:02d}{j + 1:02d}"):
                if here in nodes and nbr in nodes and cut_off(here) == cut_off(nbr):
                    edges.append(Edge(here, nbr, float(rng.uniform(225.0, 325.0)), 13.9))
    return ts, Graph(nodes, edges)


def hexed(table):
    """A TraversalTable's D and C cells as float.hex strings, by zone and group."""
    return tuple({tid: {g: v.hex() for g, v in row.items()} for tid, row in cells.items()}
                 for cells in traversal_dicts(table))


def assert_matches_reference(od, ts, g, em, assignment, exclude_home):
    got = simulate(assignment, ts, g, em, exclude_home=exclude_home)
    D, C = simulate_reference(assignment, ts, g, em, exclude_home=exclude_home)
    assert got.zones == tuple(sorted(D.keys() | C.keys()))
    assert hexed(got) == hexed(traversal_table(D, C))
    return got


@pytest.mark.parametrize("attribution", ["midpoint", "split"])
@pytest.mark.parametrize("assign_mode", ["fractional", "bernoulli"])
@pytest.mark.parametrize("exclude_home", [False, True])
def test_simulate_matches_add_loop_reference(rng, attribution, assign_mode, exclude_home):
    ts, g = accounting_world(rng)
    em = build_edge_tract_map(g, ts, mode=attribution)
    ids = [t.tract_id for t in ts]
    counts = rng.integers(0, 9, size=len(ids) ** 2)
    od = ODTable.from_rows(
        ((h, w, int(c)) for (h, w), c in zip(((h, w) for h in ids for w in ids), counts)), ts
    )
    a = assign_groups(od, ts, mode=assign_mode, seed=5)
    drive = np.array([0.0 if k % 5 == 0 else 0.7 + 0.01 * k for k in range(len(ids))])
    for assignment in (a, scale_by_drive_share(a, drive)):
        table = assert_matches_reference(od, ts, g, em, assignment, exclude_home)
        assert table.n_unreachable > 0
    # the two tracts under the hub snap to one node
    assert nearest_node(g, ts.centroids[3]) == nearest_node(g, ts.centroids[7]) == "hub"
    assert any(c == 0 for _, _, c in od.rows)

    # Pairs of weight zero add no D rows: only the one weighted pair's
    # tracts appear.
    zero = ODTable.from_rows([(ids[0], ids[-2], 0), (ids[1], ids[6], 0), (ids[4], ids[10], 3),
                              (ids[6], ids[8], 5), (ids[0], ids[11], 2)], ts)
    za = assign_groups(zero, ts, mode=assign_mode, seed=5)
    white = za.weights[zero.rows.index((ids[6], ids[8], 5)), GROUPS.index("white")]
    assert white == 0.0  # share 0: one group weighs 0
    table = assert_matches_reference(zero, ts, g, em, za, exclude_home)
    assert table.n_unreachable == 1


@pytest.mark.parametrize("exclude_home", [False, True])
def test_simulate_flushing_after_every_home_gives_the_same_bits(rng, monkeypatch, exclude_home):
    # Split attribution on accounting_world gives edges several parts, so
    # a tract's meters in a pair take one, two or more terms.
    ts, g = accounting_world(rng)
    em = build_edge_tract_map(g, ts, mode="split")
    assert max(len(parts) for parts in em.parts.values()) > 1
    ids = ts.ids
    counts = rng.integers(0, 9, size=len(ids) ** 2)
    od = ODTable.from_rows(
        ((h, w, int(c)) for (h, w), c in zip(((h, w) for h in ids for w in ids), counts)), ts)
    a = assign_groups(od, ts, mode="bernoulli", seed=5)
    want = simulate(a, ts, g, em, exclude_home=exclude_home)
    real = network._EdgeParts._groups
    flushes = []

    def spy(self, first, steps, ends, reachable):
        flushes.append(first)
        return real(self, first, steps, ends, reachable)

    monkeypatch.setattr(network._EdgeParts, "_groups", spy)
    monkeypatch.setattr(network, "_FLUSH_STEPS", 0)
    got = simulate(a, ts, g, em, exclude_home=exclude_home)
    assert len(flushes) == len({h for h, _, _ in od.rows})
    assert got.zones == want.zones
    assert hexed(got) == hexed(want)
    assert (got.n_pairs, got.n_unreachable) == (want.n_pairs, want.n_unreachable)
    assert want.n_unreachable > 0


@pytest.mark.parametrize("assign_mode", ["fractional", "bernoulli"])
@pytest.mark.parametrize("exclude_home", [False, True])
def test_simulate_matches_add_loop_reference_step(step_scenario, assign_mode, exclude_home):
    sc = step_scenario
    a = assign_groups(sc.od, sc.tracts, mode=assign_mode, seed=3)
    for em in (sc.edge_map, build_edge_tract_map(sc.graph, sc.tracts, mode="split")):
        assert_matches_reference(sc.od, sc.tracts, sc.graph, em, a, exclude_home)
