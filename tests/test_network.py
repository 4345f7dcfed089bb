import dataclasses
import math

import numpy as np
import pytest

import helpers
from helpers import (
    absorbed_edge_inputs,
    build_edge_tract_map_linear,
    edge_identity_map,
    enumerate_best_path,
    grid_tracts,
    path_carrying_shortest_path,
    random_graph,
    square_tract,
    tie_heavy_graph,
    tract_distances_from,
)
from tracteq import network
from tracteq.data_model import Tract, TractSet
from tracteq.errors import ConsistencyError, ValidationError
from tracteq.network import (
    OUTSIDE_ZONE,
    Edge,
    Graph,
    build_edge_tract_map,
    build_graph,
    route_tract_distances,
    shortest_path,
)
from tracteq.synth import ScenarioSpec, generate


def diamond_graph():
    # A-B-D is 4 s, A-C-D is 5 s
    nodes = {"A": (0.0, 0.0), "B": (1.0, 1.0), "C": (1.0, -1.0), "D": (2.0, 0.0)}
    edges = [
        Edge("A", "B", 20.0, 10.0),
        Edge("B", "D", 20.0, 10.0),
        Edge("A", "C", 30.0, 10.0),
        Edge("C", "D", 20.0, 10.0),
    ]
    return Graph(nodes, edges)


def test_edge_travel_time():
    assert Edge("a", "b", 100.0, 10.0).travel_time == 10.0


def test_graph_rejects_missing_endpoint():
    with pytest.raises(ValidationError, match="missing node"):
        Graph({"A": (0, 0)}, [Edge("A", "B", 1.0, 1.0)])


def test_graph_rejects_nonpositive_length_or_speed():
    nodes = {"A": (0, 0), "B": (1, 0)}
    with pytest.raises(ValidationError):
        Graph(nodes, [Edge("A", "B", 0.0, 1.0)])
    with pytest.raises(ValidationError):
        Graph(nodes, [Edge("A", "B", 1.0, -1.0)])


@pytest.mark.parametrize("row", ["A,B,nan,10", "A,B,100,nan"])
def test_build_graph_rejects_nan_length_or_speed(tmp_path, row):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0,0\nB,100,0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text(f"u,v,length_m,speed_ms\n{row}\n")
    with pytest.raises(ValidationError, match="must be positive"):
        build_graph(str(nodes), str(edges))


@pytest.mark.parametrize("row", ["B,nan,0", "B,0,inf", "B,-inf,0", "B,NaN,NaN"])
def test_build_graph_rejects_non_finite_node_coordinate(tmp_path, row):
    # One node at (nan, 0) would be the nearest node to every point, so every
    # OD endpoint would snap to it.
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(f"id,x,y\nA,0,0\n{row}\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms\nA,B,100,10\n")
    with pytest.raises(ValidationError, match=r"nodes\.csv line 3: non-finite coordinate"):
        build_graph(str(nodes), str(edges))


@pytest.mark.parametrize("rows,message", [
    ("A,0,0\n,5,5\n", "line 3: empty node id"),
    ("A,0,0\nB,5,5\nA,9,9\n", "line 4: duplicate node 'A'"),
])
def test_build_graph_rejects_empty_or_duplicate_node_id(tmp_path, rows, message):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(f"id,x,y\n{rows}")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms\n")
    with pytest.raises(ValidationError, match=rf"nodes\.csv {message}"):
        build_graph(str(nodes), str(edges))


def test_build_graph_accepts_infinite_length_and_speed(tmp_path):
    # An infinite length gives an infinite time and an infinite speed a zero
    # time; a route cannot add either, so both are refused.
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0,0\nB,100,0\n")
    edges = tmp_path / "edges.csv"
    for row, got in (("A,B,inf,10", "inf s"), ("B,A,100,inf", "0.0 s")):
        edges.write_text(f"u,v,length_m,speed_ms\n{row}\n")
        with pytest.raises(ValidationError, match=rf"edge {row[0]}->{row[2]}: travel time "
                                                  rf"must be finite and positive \(got {got}"):
            build_graph(str(nodes), str(edges))


def test_graph_rejects_nan_travel_time():
    # inf / inf is NaN, and every comparison with NaN is false: the
    # path-carrying search would return the NaN edge A-B while the routing
    # tree goes A-C-B.
    nodes = {"A": (0.0, 0.0), "B": (2.0, 0.0), "C": (1.0, 1.0)}
    edges = [Edge("A", "B", math.inf, math.inf), Edge("A", "C", 1.0, 1.0),
             Edge("C", "B", 1.0, 1.0)]
    with pytest.raises(ValidationError, match=r"edge A->B: travel time is NaN"):
        Graph(nodes, edges)


def test_build_graph_rejects_infinite_length_at_infinite_speed(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0,0\nB,100,0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms\nA,B,inf,inf\n")
    with pytest.raises(ValidationError, match=r"edge A->B: travel time is NaN"):
        build_graph(str(nodes), str(edges))


def test_graph_rejects_duplicate_edge():
    nodes = {"A": (0, 0), "B": (1, 0)}
    with pytest.raises(ValidationError, match="duplicate edge"):
        Graph(nodes, [Edge("A", "B", 1.0, 1.0), Edge("A", "B", 2.0, 1.0)])


def test_build_graph_from_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0,0\nB,100,0\nC,200,0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "u,v,length_m,speed_ms,class,oneway\n"
        "A,B,100,10,street,0\n"
        "B,C,100,,highway,0\n"
        "A,C,300,,,1\n"
    )
    g = build_graph(str(nodes), str(edges))
    assert g.edges[0].travel_time == 10.0
    assert g.edges[1].speed == 27.8  # class fallback
    assert g.edges[2].speed == 13.9  # "default" fallback
    assert g.edges[2].oneway
    # oneway A->C means C has no back-edge to A
    assert all(nbr != g.rank["A"] for nbr, _, _ in g.rank_adjacency[g.rank["C"]])


def test_rank_adjacency_matches_a_node_by_node_build(rng):
    # The one sort of direction records gives each node's neighbours in the
    # order a per-node sort by (neighbour id, edge key) gives, the same
    # travel times, and an empty tuple for a node with no edge.
    synth = generate(ScenarioSpec(rows=24, cols=24, seed=3, highway_row=12)).graph
    ties = helpers.tie_heavy_graph(rng, 9, 11)
    lonely = Graph({"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (2.0, 0.0)},
                   [Edge("C", "A", 5.0, 1.0), Edge("A", "C", 5.0, 2.0, oneway=True)])
    for g in (synth, ties, lonely):
        assert g.rank_adjacency == helpers.rank_adjacency_by_node(g)
    assert any(e.oneway for e in ties.edges)
    assert lonely.rank_adjacency[lonely.rank["B"]] == ()


def test_build_graph_class_speed_override(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0,0\nB,100,0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms,class,oneway\nA,B,100,,arterial,0\n")
    g = build_graph(str(nodes), str(edges), class_speeds={"arterial": 20.0})
    assert g.edges[0].speed == 20.0
    with pytest.raises(ValidationError, match="no speed"):
        build_graph(str(nodes), str(edges), class_speeds={"arterial": 0.0, "default": 0.0})


def test_build_graph_refuses_a_class_speed_no_edge_has(tmp_path):
    # An empty class cell is the class "default", which may always be set.
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\nA,0,0\nB,100,0\nC,200,0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms,class,oneway\nA,B,100,,street,0\nB,C,100,,,0\n")
    g = build_graph(str(nodes), str(edges), class_speeds={"street": 10.0, "default": 5.0})
    assert [e.speed for e in g.edges] == [10.0, 5.0]
    for speeds, named in (({"stret": 1.0}, "'stret'"),
                          ({"street": 1.0, "highway": 2.0, "alley": 3.0}, "'alley', 'highway'")):
        with pytest.raises(ValidationError) as err:
            build_graph(str(nodes), str(edges), class_speeds=speeds)
        assert str(err.value) == f"{edges}: no edge has the class_speeds class {named}"


def test_build_graph_header_checks(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("node,x,y\nA,0,0\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m\n")
    with pytest.raises(ValidationError, match="id,x,y"):
        build_graph(str(nodes), str(edges))


def test_shortest_path_diamond():
    route = shortest_path(diamond_graph(), "A", "D")
    assert route.nodes == ("A", "B", "D")
    assert route.total_time == 4.0
    assert route.total_length == 40.0


def test_shortest_path_same_node():
    route = shortest_path(diamond_graph(), "A", "A")
    assert route.nodes == ("A",)
    assert route.total_time == 0.0
    assert route.edges == ()


def test_shortest_path_unknown_node():
    with pytest.raises(ValidationError):
        shortest_path(diamond_graph(), "A", "Z")


def test_shortest_path_unknown_origin():
    with pytest.raises(ValidationError, match="unknown origin node 'Z'"):
        shortest_path(diamond_graph(), "Z", "A")


def test_shortest_path_unreachable():
    nodes = {"A": (0, 0), "B": (1, 0), "C": (5, 5)}
    g = Graph(nodes, [Edge("A", "B", 1.0, 1.0)])
    assert shortest_path(g, "A", "C") is None


def test_shortest_path_respects_oneway():
    nodes = {"A": (0, 0), "B": (1, 0)}
    g = Graph(nodes, [Edge("A", "B", 1.0, 1.0, oneway=True)])
    assert shortest_path(g, "A", "B") is not None
    assert shortest_path(g, "B", "A") is None


def test_shortest_path_lexicographic_tie_break():
    # two equal-time parallel corridors A->B->D and A->C->D; B sorts first
    nodes = {"A": (0, 0), "B": (1, 1), "C": (1, -1), "D": (2, 0)}
    g = Graph(nodes, [
        Edge("A", "B", 10.0, 10.0),
        Edge("B", "D", 10.0, 10.0),
        Edge("A", "C", 10.0, 10.0),
        Edge("C", "D", 10.0, 10.0),
    ])
    route = shortest_path(g, "A", "D")
    assert route.nodes == ("A", "B", "D")


def test_shortest_path_matches_enumeration_small_random(rng):
    for trial in range(60):
        g = random_graph(rng, int(rng.integers(2, 9)))
        ids = sorted(g.nodes)
        origin, dest = ids[0], ids[-1]
        want = enumerate_best_path(g, origin, dest)
        got = shortest_path(g, origin, dest)
        if want is None:
            assert got is None
        else:
            assert got.total_time == want[0]
            assert got.nodes == want[1]
            assert got.edges == want[2]


def assert_tree_routes_match_oracle(graph):
    """shortest_path, which reads the routing tree, against the path-carrying
    search from every 7th origin to every node: the same nodes, the same
    Edge objects, bit-identical time and length, and None alike."""
    ids = sorted(graph.nodes)
    for origin in ids[::7]:
        for dest in ids:
            got = shortest_path(graph, origin, dest)
            want = path_carrying_shortest_path(graph, origin, dest)
            if want is None:
                assert got is None, (origin, dest)
                continue
            assert (got.origin, got.destination, got.nodes) == (origin, dest, want.nodes)
            assert len(got.edges) == len(want.edges), (origin, dest)
            assert all(a is b for a, b in zip(got.edges, want.edges)), (origin, dest)
            assert got.total_time.hex() == want.total_time.hex(), (origin, dest)
            assert got.total_length.hex() == want.total_length.hex(), (origin, dest)


def test_shortest_path_matches_path_carrying_search_random(rng):
    for trial in range(40):
        assert_tree_routes_match_oracle(random_graph(rng, int(rng.integers(2, 30))))


def test_shortest_path_matches_path_carrying_search_tie_heavy(rng):
    for trial in range(15):
        assert_tree_routes_match_oracle(tie_heavy_graph(rng, 5, 6))
    # A 12 x 12 grid: routes of 22 edges and more, corner to corner, and ids
    # with two-digit rows and columns.
    assert_tree_routes_match_oracle(tie_heavy_graph(rng, 12, 12))


def test_shortest_path_matches_path_carrying_search_synth_grid():
    spec = ScenarioSpec(rows=12, cols=12, seed=3, highway_row=6)
    assert_tree_routes_match_oracle(generate(spec).graph)


def assert_same_tract_distances(graph, origin, destinations, edge_map):
    got = tract_distances_from(graph, origin, destinations, edge_map)
    assert list(got) == sorted(set(destinations))
    for dest, meters in got.items():
        route = path_carrying_shortest_path(graph, origin, dest)
        if route is None:
            assert meters is None, (origin, dest)
            continue
        want = route_tract_distances(route, edge_map)
        assert list(meters) == list(want), (origin, dest)
        assert [v.hex() for v in meters.values()] == [v.hex() for v in want.values()]


# The routing tree's shortest paths from one origin, read through
# tract_distances_from under edge_identity_map: each edge is its own zone, so
# meters equal to the oracle's mean the tree took path_carrying_shortest_path's
# route.


def assert_same_routes(graph, origin, destinations):
    assert_same_tract_distances(graph, origin, destinations, edge_identity_map(graph))


def test_shortest_paths_from_matches_shortest_path_random(rng):
    for trial in range(30):
        g = random_graph(rng, int(rng.integers(2, 12)))
        ids = sorted(g.nodes)
        for origin in ids:
            assert_same_routes(g, origin, ids)


def test_shortest_paths_from_matches_shortest_path_tie_heavy(rng):
    for trial in range(6):
        g = tie_heavy_graph(rng, 5, 6)
        ids = sorted(g.nodes)
        for origin in ids:
            assert_same_routes(g, origin, ids)
        # a few destinations only: the search stops early
        for origin in ids[::7]:
            assert_same_routes(g, origin, [ids[-1], ids[len(ids) // 2], origin])


def test_shortest_paths_from_ranks_follow_string_order(rng):
    # Sorted as strings, as numbers where they are numbers, and in insertion
    # order, these ids come out in three different orders; the tie-break
    # follows string order.
    labels = ["9", "10", "100", "B", "a", "11", "2", "Z", "b", "1", "_", "20"]
    for trial in range(6):
        base = tie_heavy_graph(rng, 3, 4)
        rename = dict(zip(base.nodes, labels))
        g = Graph({rename[k]: xy for k, xy in base.nodes.items()},
                  [dataclasses.replace(e, u=rename[e.u], v=rename[e.v]) for e in base.edges])
        assert g.rank == {nid: r for r, nid in enumerate(sorted(labels))}
        for origin in labels:
            assert_same_routes(g, origin, labels)


def test_shortest_paths_from_prefix_tie_break():
    # A->C direct and A->B->C both take 2 s; (A, B, C) < (A, C) because B < C,
    # although the bare predecessor path (A,) sorts before (A, B).
    nodes = {"A": (0, 0), "B": (1, 1), "C": (2, 0), "D": (3, 0)}
    g = Graph(nodes, [
        Edge("A", "C", 20.0, 10.0),
        Edge("A", "B", 10.0, 10.0),
        Edge("B", "C", 10.0, 10.0),
        Edge("C", "D", 10.0, 10.0),
    ])
    meters = tract_distances_from(g, "A", ["C", "D"], edge_identity_map(g))
    assert meters["C"] == {"A>B": 10.0, "B>C": 10.0}
    assert meters["D"] == {"A>B": 10.0, "B>C": 10.0, "C>D": 10.0}
    assert_same_routes(g, "A", ["C", "D"])


def test_shortest_paths_from_absorbed_edge_falls_back():
    # B->C adds ~1e-30 s to a 1e6 s route, so t + tt == t: settle order
    # among equal-time nodes would decide the route. The graph is refused,
    # though a search from D to E never reaches B->C.
    nodes = {"A": (0, 0), "B": (1, 0), "C": (2, 0), "D": (1, 1), "E": (1, 2)}
    edges = [
        Edge("A", "B", 1e6, 1.0),
        Edge("B", "C", 1e-30, 1.0),
        Edge("A", "D", 1e6, 1.0),
        Edge("D", "C", 1e6, 1.0),
        Edge("D", "E", 1.0, 1.0),
    ]
    assert 1e6 + edges[1].travel_time == 1e6
    with pytest.raises(ValidationError, match=r"edge B->C: travel time 1e-30 s is too small "
                                              r"for a route to add"):
        Graph(nodes, edges)
    g = Graph(nodes, edges[:1] + edges[2:])
    assert tract_distances_from(g, "D", ["E"], edge_identity_map(g)) == {"E": {"D>E": 1.0}}


def test_shortest_paths_from_absorbed_edge_into_settled_target():
    # D and Z would both settle at 1e6 s, and Z->D would add nothing to Z's
    # time, so D's route would depend on whether Z is expanded after D
    # settles. The one-way edge Z->D is refused, by name.
    nodes = {"O": (0, 0), "B": (1, 1), "Z": (2, 1), "D": (2, 0)}
    edges = [
        Edge("O", "D", 1e6, 1.0),
        Edge("O", "B", 5e5, 1.0),
        Edge("B", "Z", 5e5, 1.0),
        Edge("Z", "D", 1e-30, 1.0, oneway=True),
    ]
    with pytest.raises(ValidationError, match=r"edge Z->D: .* too small for a route to add"):
        Graph(nodes, edges)


def test_shortest_paths_from_infinite_time():
    # A->B would take an infinite time, which no finite route time exceeds.
    nodes = {"A": (0, 0), "B": (1, 0), "C": (2, 0)}
    edges = [
        Edge("A", "B", math.inf, 1.0, oneway=True),
        Edge("A", "C", 1.0, 1.0),
    ]
    with pytest.raises(ValidationError, match=r"edge A->B: travel time must be finite "
                                              r"and positive \(got inf s"):
        Graph(nodes, edges)


def test_shortest_paths_from_no_destinations_and_origin_only():
    g = diamond_graph()
    em = edge_identity_map(g)
    assert tract_distances_from(g, "A", [], em) == {}
    assert tract_distances_from(g, "A", ["A"], em) == {"A": {}}
    # With no targets the tree stops right after settling the source.
    dist, pred, pred_edge, settled = network._search_tree(g, g.rank["A"], set())
    assert settled == [r == g.rank["A"] for r in range(len(g.nodes))]


def test_shortest_paths_from_unreachable_and_same_node():
    nodes = {"A": (0, 0), "B": (1, 0), "C": (5, 5)}
    g = Graph(nodes, [Edge("A", "B", 1.0, 1.0, oneway=True)])
    em = edge_identity_map(g)
    assert tract_distances_from(g, "A", ["A", "B", "C"], em) == {
        "A": {}, "B": {"A>B": 1.0}, "C": None,
    }
    assert_same_routes(g, "A", ["A", "B", "C"])
    assert tract_distances_from(g, "B", ["A"], em) == {"A": None}
    with pytest.raises(ValidationError, match="unknown destination"):
        tract_distances_from(g, "A", ["Z"], em)
    with pytest.raises(ValidationError, match="unknown origin"):
        tract_distances_from(g, "Z", ["A"], em)


def test_edge_identity_map_sees_a_wrong_tie_break(monkeypatch, rng):
    # The tests above compare routes by their per-edge meters: the real
    # tie-break must pass them on these graphs, and a tie-break that is
    # reversed, or that never replaces a predecessor, must fail them.
    real = network._tie_prefers
    graphs = [tie_heavy_graph(rng, 5, 6) for _ in range(3)]

    def assert_all_routes_same():
        for g in graphs:
            ids = sorted(g.nodes)
            for origin in ids:
                assert_same_routes(g, origin, ids)

    assert_all_routes_same()
    for mutant in (lambda *args: not real(*args), lambda *args: False):
        monkeypatch.setattr(network, "_tie_prefers", mutant)
        with pytest.raises(AssertionError):
            assert_all_routes_same()


def test_tract_distances_from_matches_route_tract_distances_random(rng):
    # Split attribution over four tracts gives most edges several parts;
    # one-way edges leave some pairs unreachable, and each origin is also
    # its own destination.
    tracts = grid_tracts(2, 2, size=500.0)
    for trial in range(30):
        g = random_graph(rng, int(rng.integers(2, 12)))
        em = build_edge_tract_map(g, tracts, mode="split")
        ids = sorted(g.nodes)
        for origin in ids:
            assert_same_tract_distances(g, origin, ids, em)


def test_tract_distances_from_matches_route_tract_distances_tie_heavy(rng):
    tracts = grid_tracts(3, 3, size=2.0)
    for trial in range(6):
        g = tie_heavy_graph(rng, 5, 6)
        em = build_edge_tract_map(g, tracts, mode="split")
        ids = sorted(g.nodes)
        for origin in ids:
            assert_same_tract_distances(g, origin, ids, em)
        for origin in ids[::7]:
            assert_same_tract_distances(g, origin, [ids[-1], ids[len(ids) // 2], origin], em)


def test_tract_distances_from_absorbed_edge_falls_back():
    # At 1e16 s the three 0.5 s edges would be absorbed; the first of them
    # in edge order is named, though it is not first in b's adjacency.
    with pytest.raises(ValidationError, match=r"edge b->e: travel time 0\.5 s is too small"):
        Graph(*absorbed_edge_inputs(1e16))


def test_absorption_at_the_least_absorbing_time_falls_back():
    # 0.5 s is first absorbed at 0.5 * 2**53 = 2**52 s, a tie that rounds to
    # even; a graph whose routes reach that time is refused. At 2**46 s the
    # summed edge time, 17 * 2**46 + 1.5 s, is below 0.5 * 2**52 s: the graph
    # is accepted and the tree takes the faster route (a, c, d), as the
    # oracle does.
    assert 2.0**52 + 0.5 == 2.0**52
    with pytest.raises(ValidationError, match=r"edge b->e: .* is at least 2\*\*52 times it"):
        Graph(*absorbed_edge_inputs(2.0**52))
    g = Graph(*absorbed_edge_inputs(2.0**46))
    assert tract_distances_from(g, "a", ["d"], edge_identity_map(g)) == {
        "d": {"a>c": 2.0**46, "c>d": 0.5}
    }
    ids = sorted(g.nodes)
    for origin in ids:
        assert_same_routes(g, origin, ids)


def test_search_tree_times_rise_and_stopping_at_the_last_target_is_exact(rng):
    # Every settled node is reached at a larger time than its predecessor,
    # and a search that stops as its last target settles gives each target
    # the predecessor and edge of a search that settles every node.
    graphs = [random_graph(rng, int(rng.integers(2, 12))) for _ in range(10)]
    graphs += [tie_heavy_graph(rng, 5, 6) for _ in range(3)]
    graphs.append(generate(ScenarioSpec(rows=12, cols=12, seed=3, highway_row=6)).graph)
    for g in graphs:
        n = len(g.nodes)
        for source in range(0, n, max(1, n // 8)):
            full = network._search_tree(g, source, set(range(n)))
            targets = {int(r) for r in rng.choice(n, size=min(3, n), replace=False)}
            part = network._search_tree(g, source, targets)
            for dist, pred, _, settled in (full, part):
                for v in range(n):
                    if settled[v] and v != source:
                        assert dist[v] > dist[pred[v]]
            _, pred, pred_edge, settled = part
            for v in targets:
                assert (settled[v], pred[v], pred_edge[v]) == (full[3][v], full[1][v], full[2][v])


def test_graph_refuses_a_summed_edge_time_of_2_52_times_the_smallest():
    nodes = {"A": (0, 0), "B": (1, 0), "C": (2, 0)}
    below = [Edge("A", "B", 1.0, 1.0), Edge("B", "C", 2.0**52 - 1.5, 1.0)]
    assert sum(e.travel_time for e in below) == math.nextafter(2.0**52, 0)
    Graph(nodes, below)
    at = [Edge("A", "B", 1.0, 1.0), Edge("B", "C", 2.0**52 - 1.0, 1.0)]
    with pytest.raises(ValidationError, match=r"edge A->B: travel time 1\.0 s .* "
                                              r"4503599627370496\.0 s is at least 2\*\*52"):
        Graph(nodes, at)
    # a sum that overflows to inf counts as at least 2**52 times any time
    overflow = [Edge("A", "B", 1e308, 1.0), Edge("B", "C", 1e308, 1.0)]
    with pytest.raises(ValidationError, match=r"edge A->B: .* summed edge time inf s"):
        Graph(nodes, overflow)


def test_tract_distances_from_missing_edge_names_first_along_route():
    nodes = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (2.0, 0.0), "D": (3.0, 0.0)}
    g = Graph(nodes, [Edge("A", "B", 1.0, 1.0), Edge("B", "C", 1.0, 1.0),
                      Edge("C", "D", 1.0, 1.0)])
    em = build_edge_tract_map(g, grid_tracts(1, 1))
    del em.parts["B", "C"], em.parts["C", "D"]
    with pytest.raises(ConsistencyError, match="B->C"):
        tract_distances_from(g, "A", ["D"], em)
    with pytest.raises(ConsistencyError, match="B->C"):
        route_tract_distances(shortest_path(g, "A", "D"), em)


def test_route_time_scales_with_speed():
    # doubling every speed exactly halves the time when speeds are powers of 2
    nodes = {"A": (0, 0), "B": (1, 0), "C": (2, 0)}
    base = Graph(nodes, [Edge("A", "B", 128.0, 4.0), Edge("B", "C", 64.0, 8.0)])
    fast = Graph(nodes, [Edge("A", "B", 128.0, 8.0), Edge("B", "C", 64.0, 16.0)])
    t1 = shortest_path(base, "A", "C").total_time
    t2 = shortest_path(fast, "A", "C").total_time
    assert t1 == 2.0 * t2


def test_midpoint_attribution_full_length_to_one_tract():
    ts = grid_tracts(1, 2)  # tracts [0,1000) and [1000,2000) in x
    nodes = {"L": (200.0, 500.0), "R": (900.0, 500.0)}
    g = Graph(nodes, [Edge("L", "R", 700.0, 10.0)])
    em = build_edge_tract_map(g, ts, mode="midpoint")
    assert em.for_edge(g.edges[0]) == (("T000000", 700.0),)


def test_midpoint_on_shared_border_goes_to_first_id():
    ts = grid_tracts(1, 2)
    # midpoint exactly on the border x=1000
    nodes = {"L": (800.0, 500.0), "R": (1200.0, 500.0)}
    g = Graph(nodes, [Edge("L", "R", 400.0, 10.0)])
    em = build_edge_tract_map(g, ts, mode="midpoint")
    assert em.for_edge(g.edges[0]) == (("T000000", 400.0),)


def test_split_attribution_40_60():
    ts = grid_tracts(1, 2)
    # edge spans x 600..1600: 400 m in the first tract, 600 m in the second
    nodes = {"L": (600.0, 500.0), "R": (1600.0, 500.0)}
    g = Graph(nodes, [Edge("L", "R", 1000.0, 10.0)])
    em = build_edge_tract_map(g, ts, mode="split")
    parts = dict(em.for_edge(g.edges[0]))
    assert parts["T000000"] == pytest.approx(400.0)
    assert parts["T000001"] == pytest.approx(600.0)


def test_split_attribution_outside_zone():
    ts = grid_tracts(1, 1)
    nodes = {"L": (500.0, 500.0), "R": (1500.0, 500.0)}
    g = Graph(nodes, [Edge("L", "R", 1000.0, 10.0)])
    em = build_edge_tract_map(g, ts, mode="split")
    parts = dict(em.for_edge(g.edges[0]))
    assert parts["T000000"] == pytest.approx(500.0)
    assert parts[OUTSIDE_ZONE] == pytest.approx(500.0)


def test_midpoint_outside_everything():
    ts = grid_tracts(1, 1)
    nodes = {"L": (5000.0, 5000.0), "R": (6000.0, 5000.0)}
    g = Graph(nodes, [Edge("L", "R", 1000.0, 10.0)])
    em = build_edge_tract_map(g, ts, mode="midpoint")
    assert em.for_edge(g.edges[0]) == ((OUTSIDE_ZONE, 1000.0),)


def test_attribution_mode_validation():
    ts = grid_tracts(1, 1)
    g = Graph({"A": (0, 0), "B": (1, 0)}, [Edge("A", "B", 1.0, 1.0)])
    with pytest.raises(ValueError):
        build_edge_tract_map(g, ts, mode="nearest")


def test_split_conserves_length_on_diagonal_edges(rng):
    ts = grid_tracts(3, 3)
    for trial in range(40):
        a = tuple(rng.uniform(-500, 3500, 2))
        b = tuple(rng.uniform(-500, 3500, 2))
        length = float(np.hypot(b[0] - a[0], b[1] - a[1]))
        if length < 1.0:
            continue
        g = Graph({"A": a, "B": b}, [Edge("A", "B", length, 10.0)])
        em = build_edge_tract_map(g, ts, mode="split")
        total = math.fsum(m for _, m in em.for_edge(g.edges[0]))
        assert math.isclose(total, length, rel_tol=1e-9)


def test_route_tract_distances_accumulates():
    ts = grid_tracts(1, 3)
    nodes = {"N0": (0.0, 500.0), "N1": (1000.0, 500.0),
             "N2": (2000.0, 500.0), "N3": (3000.0, 500.0)}
    g = Graph(nodes, [
        Edge("N0", "N1", 1000.0, 10.0),
        Edge("N1", "N2", 1000.0, 10.0),
        Edge("N2", "N3", 1000.0, 10.0),
    ])
    em = build_edge_tract_map(g, ts, mode="midpoint")
    route = shortest_path(g, "N0", "N3")
    dist = route_tract_distances(route, em)
    assert dist == {"T000000": 1000.0, "T000001": 1000.0, "T000002": 1000.0}
    assert math.fsum(dist.values()) == route.total_length


def test_route_tract_distances_missing_edge_errors():
    ts = grid_tracts(1, 1)
    g = Graph({"A": (100.0, 500.0), "B": (900.0, 500.0)}, [Edge("A", "B", 800.0, 10.0)])
    em = build_edge_tract_map(g, ts, mode="midpoint")
    other = Edge("X", "Y", 1.0, 1.0)
    route = shortest_path(g, "A", "B")
    broken = type(route)(
        route.origin, route.destination, route.nodes, (other,), 1.0, 1.0
    )
    with pytest.raises(ConsistencyError, match="X->Y"):
        route_tract_distances(broken, em)


def lattice_points(rng, lo, hi, step, count):
    """count random points on a lattice of the given step in [lo, hi]^2."""
    ticks = np.arange(lo, hi + step / 2, step)
    return [(float(rng.choice(ticks)), float(rng.choice(ticks))) for _ in range(count)]


def segments_graph(rng, points, n_edges, segments=()):
    """Graph over the points with n_edges random edges, plus one edge per
    (a, b) segment given."""
    nodes = {f"p{i:03d}": p for i, p in enumerate(points)}
    ids = list(nodes)
    pairs = set()
    while len(pairs) < min(n_edges, len(ids) * (len(ids) - 1) // 2):
        i, j = sorted(int(k) for k in rng.choice(len(ids), 2, replace=False))
        pairs.add((ids[i], ids[j]))
    for a, b in segments:
        u, v = f"s{len(nodes):03d}", f"s{len(nodes) + 1:03d}"
        nodes[u], nodes[v] = a, b
        pairs.add((u, v))
    edges = [
        Edge(u, v, max(1.0, math.dist(nodes[u], nodes[v])), 10.0)
        for u, v in sorted(pairs)
    ]
    return Graph(nodes, edges)


def shuffled_lattice(rng, rows, cols, size=1000.0):
    """Square tracts whose ids sort in neither position nor insertion order."""
    labels = [f"{k}" for k in rng.permutation(rows * cols) * 7 + 3]
    tracts = [square_tract(labels[r * cols + c], c, r, size)
              for r in range(rows) for c in range(cols)]
    return TractSet([tracts[k] for k in rng.permutation(len(tracts))])


def cell_lines(tracts):
    """Coordinates where the grid's cell index changes, with one ulp either
    side."""
    grid = network._TractGrid(tracts)
    xs = [grid.x0 + k / grid.sx for k in range(grid.side + 1)]
    ys = [grid.y0 + k / grid.sy for k in range(grid.side + 1)]

    def widen(vs):
        return [w for v in vs
                for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]

    return widen(xs), widen(ys)


def hexed_parts(parts):
    return {k: [(t, m.hex()) for t, m in v] for k, v in parts.items()}


def assert_grid_matches_linear(monkeypatch, graph, tracts):
    """Both modes: the same parts as the linear scan (floats by hex), from
    the same point_in_polygon calls in the same order."""
    calls = {"grid": [], "linear": []}

    def spy(module, key):
        real = module.point_in_polygon

        def recording(point, polygon):
            calls[key].append((point, polygon))
            return real(point, polygon)

        monkeypatch.setattr(module, "point_in_polygon", recording)

    spy(network, "grid")
    spy(helpers, "linear")
    for mode in ("midpoint", "split"):
        calls["grid"].clear()
        calls["linear"].clear()
        got = build_edge_tract_map(graph, tracts, mode=mode).parts
        want = build_edge_tract_map_linear(graph, tracts, mode).parts
        assert hexed_parts(got) == hexed_parts(want), mode
        assert calls["grid"] == calls["linear"], mode
        assert calls["grid"], mode


def test_grid_map_matches_linear_scan_step_scenario(monkeypatch, step_scenario):
    assert_grid_matches_linear(monkeypatch, step_scenario.graph, step_scenario.tracts)


def test_grid_map_matches_linear_scan_shuffled_shared_borders(monkeypatch, rng):
    for rows, cols in ((3, 4), (5, 2), (4, 4)):
        ts = shuffled_lattice(rng, rows, cols)
        pts = lattice_points(rng, -500.0, 1000.0 * max(rows, cols) + 500.0, 250.0, 40)
        assert_grid_matches_linear(monkeypatch, segments_graph(rng, pts, 80), ts)


def test_grid_map_matches_linear_scan_on_cell_lines(monkeypatch, rng):
    for rows, cols in ((3, 5), (3, 3), (2, 7)):
        ts = grid_tracts(rows, cols)
        xs, ys = cell_lines(ts)
        segments = []
        for x in xs:  # vertical edges: midpoint x on a cell line
            y0, y1 = sorted(float(v) for v in rng.uniform(-100.0, rows * 1000.0 + 100.0, 2))
            segments.append(((x, y0), (x, y1)))
        for y in ys:  # horizontal edges: midpoint y on a cell line
            x0, x1 = sorted(float(v) for v in rng.uniform(-100.0, cols * 1000.0 + 100.0, 2))
            segments.append(((x0, y), (x1, y)))
        for x in xs[::2]:  # zero-length edges at cell corners
            for y in ys[::2]:
                segments.append(((x, y), (x, y)))
        assert_grid_matches_linear(monkeypatch, segments_graph(rng, [], 0, segments), ts)


def test_grid_map_matches_linear_scan_tract_spanning_every_cell(monkeypatch, rng):
    # The triangle's box covers the whole grid and it overlaps the lattice
    # tracts; its id sorts among theirs, so it wins some points only.
    big = Tract("T001999", ((-100.0, -100.0), (4100.0, -100.0), (-100.0, 4100.0)))
    ts = TractSet(list(grid_tracts(4, 4).tracts) + [big])
    grid = network._TractGrid(ts)
    assert all(grid.ids.index("T001999") in cell for cell in grid.cells)
    pts = [tuple(float(v) for v in rng.uniform(-600.0, 4600.0, 2)) for _ in range(30)]
    pts += lattice_points(rng, 0.0, 4000.0, 500.0, 30)
    assert_grid_matches_linear(monkeypatch, segments_graph(rng, pts, 90), ts)


def test_grid_map_matches_linear_scan_outside_every_tract(monkeypatch, rng):
    # A lattice with holes, and points beyond its extent on every side.
    kept = [t for k, t in enumerate(grid_tracts(4, 4).tracts) if k not in (5, 6, 10)]
    ts = TractSet(kept)
    pts = lattice_points(rng, -3000.0, 7000.0, 500.0, 40)
    g = segments_graph(rng, pts, 80)
    assert_grid_matches_linear(monkeypatch, g, ts)
    em = build_edge_tract_map(g, ts, mode="split")
    assert any(t == OUTSIDE_ZONE for parts in em.parts.values() for t, _ in parts)


def test_grid_map_matches_linear_scan_single_tract(monkeypatch, rng):
    ts = grid_tracts(1, 1)
    pts = lattice_points(rng, -1000.0, 2000.0, 250.0, 25)
    assert_grid_matches_linear(monkeypatch, segments_graph(rng, pts, 40), ts)
