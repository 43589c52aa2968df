import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree import graphs
from kemtree.errors import DisconnectedError, InputError, NotATreeError, ParseError
from kemtree.errors import ResourceLimitError

import helpers


def test_parse_smallest_path():
    g = kt.parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_duplicate_edge_names_line():
    with pytest.raises(ParseError) as exc:
        kt.parse_edge_list("0 1\n0 1")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        kt.parse_edge_list("0 1\n1 0")
    assert exc.value.line == 2


def test_parse_self_loop():
    with pytest.raises(ParseError) as exc:
        kt.parse_edge_list("0 1\n2 2")
    assert exc.value.line == 2


def test_parse_non_integer_token():
    with pytest.raises(ParseError) as exc:
        kt.parse_edge_list("0 1\n1 x")
    assert exc.value.line == 2
    assert "x" in str(exc.value)


@pytest.mark.parametrize(
    "text, line, token",
    [
        ("0 1\n0 1_0", 2, "1_0"),
        ("0 \u0661", 1, "\u0661"),
        ("0 1\n\u0662 1", 2, "\u0662"),
        ("+1 0", 1, "+1"),
        ("0 -", 1, "-"),
        ("n 1_0\n0 1", 1, "1_0"),
        ("# count\nn \u0663\n0 1", 2, "\u0663"),
    ],
)
def test_parse_accepts_only_ascii_decimal_digits(text, line, token):
    with pytest.raises(ParseError) as exc:
        kt.parse_edge_list(text)
    assert exc.value.line == line
    assert repr(token) in str(exc.value)


def test_parse_label_exceeds_header():
    with pytest.raises(ParseError) as exc:
        kt.parse_edge_list("n 3\n0 1\n1 3")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text, line",
    [("0 1\n1 1000000000\n", 2), ("# big\nn 1000000000\n0 1\n", 2)],
)
def test_parse_vertex_ceiling_raises_before_building_a_graph(monkeypatch, text, line):
    def no_graph(*args):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(graphs, "Graph", no_graph)
    with pytest.raises(ResourceLimitError, match=f"^line {line}: "):
        kt.parse_edge_list(text)


def test_parse_vertex_ceiling_boundary(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 10)
    assert kt.parse_edge_list("0 9").n == 10
    assert kt.parse_edge_list("n 10\n0 1").n == 10
    with pytest.raises(ResourceLimitError):
        kt.parse_edge_list("0 10")
    with pytest.raises(ResourceLimitError):
        kt.parse_edge_list("n 11\n0 1")
    # a label past a declared count is still a parse error
    with pytest.raises(ParseError):
        kt.parse_edge_list("n 5\n0 1000")


def test_parse_header_comments_and_crlf():
    g = kt.parse_edge_list("# a path\r\nn 4\r\n0 1\r\n\r\n1 2\r\n2 3\r\n")
    assert g.n == 4 and g.m == 3


def test_parse_header_declares_isolated_vertex():
    g = kt.parse_edge_list("n 3\n0 1")
    assert g.n == 3
    with pytest.raises(DisconnectedError):
        kt.all_pairs_distances(g)


def test_parse_rejects_empty_and_zero():
    with pytest.raises(ParseError):
        kt.parse_edge_list("# nothing here\n")
    with pytest.raises(ParseError):
        kt.parse_edge_list("n 0")


def test_parse_single_vertex_header():
    g = kt.parse_edge_list("n 1\n")
    assert g.n == 1 and g.m == 0


def test_parse_fixture_double_star():
    g = helpers.load_graph("double_star_1_3")
    assert g.n == 6 and g.m == 5


def test_distances_path3():
    g = helpers.path_graph(3)
    assert kt.all_pairs_distances(g) == ((0, 1, 2), (1, 0, 1), (2, 1, 0))


def test_distances_star_off_center():
    g = helpers.star_graph(4)
    d = kt.all_pairs_distances(g)
    for i in range(1, 4):
        for j in range(1, 4):
            assert d[i][j] == (0 if i == j else 2)


def test_distances_grand_sum_double_star_2_2():
    g = helpers.load_graph("double_star_2_2")
    d = kt.all_pairs_distances(g)
    assert sum(sum(row) for row in d) == 2 * 29


def test_distances_disconnected_reports_pair():
    g = kt.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError) as exc:
        kt.all_pairs_distances(g)
    u, v = exc.value.pair
    assert {u, v} <= {0, 1, 2, 3}


def test_distances_match_floyd_warshall_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = helpers.random_connected_graph(rng, n)
        d = kt.all_pairs_distances(g)
        assert [list(row) for row in d] == helpers.floyd_warshall(g)


def test_tree_rejects_triangle():
    with pytest.raises(NotATreeError) as exc:
        kt.tree_from_graph(helpers.cycle_graph(3))
    assert exc.value.reason == "cyclic"


def test_tree_rejects_disconnected():
    with pytest.raises(NotATreeError) as exc:
        kt.tree_from_graph(kt.Graph(4, [(0, 1), (2, 3)]))
    assert exc.value.reason == "disconnected"


def test_tree_is_a_validated_graph_that_never_equals_a_graph():
    edges = [(0, 1), (1, 2), (1, 3)]
    t, g = kt.Tree(4, edges), kt.Graph(4, edges)
    assert isinstance(t, kt.Graph)
    assert (t.n, t.m, t.edges, t.adjacency) == (g.n, g.m, g.edges, g.adjacency)
    assert (t.degrees, t.degree(1)) == (g.degrees, 3)
    assert t != g and g != t
    assert t == kt.tree_from_graph(g) == kt.tree_from_edges(4, reversed(edges))
    assert len({t, kt.Tree(4, edges)}) == 1
    assert not hasattr(t, "graph") and not hasattr(t, "dist")
    with pytest.raises(ValueError):
        kt.Tree(3, [(0, 1), (1, 1)])


def test_tree_path5_center():
    t = kt.tree_from_graph(helpers.path_graph(5))
    assert t.diameter == 4
    assert t.center == frozenset({2})


def test_tree_path4_two_adjacent_centers():
    t = kt.tree_from_graph(helpers.path_graph(4))
    assert t.diameter == 3
    assert t.center == frozenset({1, 2})
    a, b = sorted(t.center)
    assert t.has_edge(a, b)


def test_single_vertex_tree():
    t = kt.tree_from_edges(1, [])
    assert t.diameter == 0
    assert t.center == frozenset({0})
    with pytest.raises(ValueError):
        kt.leaf_center_distances(t)


def test_leaf_center_distances_path5():
    t = kt.tree_from_graph(helpers.path_graph(5))
    assert kt.leaf_center_distances(t) == ((0, 2), (4, 2))


def test_leaf_center_distances_star6():
    t = kt.tree_from_graph(helpers.star_graph(6))
    assert kt.leaf_center_distances(t) == tuple((v, 1) for v in range(1, 6))


PATH4 = kt.tree_from_graph(helpers.path_graph(4))
# Each call is a tree-only function with arguments that are valid on a
# 4-vertex tree; a Graph that is not a tree must be refused before any walk.
TREE_ONLY = {
    "omega_weights": lambda g: kt.omega_weights(g),
    "wiener_edge_cut_route": lambda g: kt.wiener_edge_cut_route(g),
    "kemeny_edge_cut_route": lambda g: kt.kemeny_edge_cut_route(g),
    "kemeny_wiener_route": lambda g: kt.kemeny_wiener_route(g),
    "decompose_path": lambda g: kt.decompose_path(g, 0, 2),
    "canonical_code": lambda g: kt.canonical_code(g),
    "apply_op1": lambda g: kt.apply_op1(g, 0, 2),
    "apply_op2": lambda g: kt.apply_op2(g, 0, 1, 2),
    "op2_delta_formula": lambda g: kt.op2_delta_formula(g, 0, 1, 2),
    "covers_upper": lambda g: kt.covers(PATH4, g),
    "covers_lower": lambda g: kt.covers(g, PATH4),
    "leaf_center_distances": lambda g: kt.leaf_center_distances(g),
}


@pytest.mark.parametrize("name", sorted(TREE_ONLY))
@pytest.mark.parametrize(
    "graph, reason",
    [
        (helpers.cycle_graph(4), "cyclic"),
        (kt.Graph(4, [(0, 1), (2, 3)]), "disconnected"),
    ],
    ids=["cycle4", "forest"],
)
def test_tree_only_functions_refuse_a_graph_that_is_not_a_tree(name, graph, reason):
    # A traversal that skips only a vertex's parent never ends on a cycle, so
    # the check must come before it.
    with pytest.raises(NotATreeError) as info:
        TREE_ONLY[name](graph)
    assert info.value.reason == reason


@pytest.mark.parametrize("name", sorted(TREE_ONLY))
def test_tree_only_functions_read_a_tree_shaped_graph_as_its_tree(name):
    graph = helpers.path_graph(4)
    assert type(graph) is kt.Graph
    assert TREE_ONLY[name](graph) == TREE_ONLY[name](PATH4)


def test_leaf_center_distances_spider_fixture():
    t = helpers.load_tree("spider_1_6")
    dists = dict(kt.leaf_center_distances(t))
    assert t.diameter == 4
    assert max(dists.values()) == t.diameter // 2
    assert all(d <= 2 for d in dists.values())


def test_tree_path_method_matches_distances():
    rng = random.Random(7)
    for _ in range(30):
        t = helpers.random_tree(rng, rng.randrange(2, 12))
        u, v = rng.sample(range(t.n), 2)
        path = t.path(u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) - 1 == kt.all_pairs_distances(t)[u][v]
        for k in range(len(path) - 1):
            assert t.has_edge(path[k], path[k + 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_eccentricity_properties(n, rng):
    t = helpers.random_tree(rng, n)
    assert sum(t.eccentricities) >= t.n * t.radius
    assert t.diameter == max(t.eccentricities)
    for c in t.center:
        assert t.eccentricities[c] == t.radius


def test_lazy_metrics_match_floyd_warshall():
    trees = [t for n in range(1, 11) for t in helpers.members(kt.enumerate_trees(n))]
    trees += [
        helpers.load_tree(f.stem)
        for f in sorted(helpers.FIXTURES.glob("*.txt"))
        if not f.stem.startswith("unicycle")
    ]
    for t in trees:
        fw = helpers.floyd_warshall(t)
        ecc = tuple(max(row) for row in fw)
        radius = min(ecc)
        center = frozenset(v for v, e in enumerate(ecc) if e == radius)
        assert t.eccentricities == ecc
        assert t.radius == radius
        assert t.diameter == max(ecc)
        assert t.center == center
        for v in range(t.n):
            assert t.center_distance(v) == min(fw[c][v] for c in center)
        assert [list(row) for row in kt.all_pairs_distances(t)] == fw


def test_entry_adjacency_matches_tree_adjacency_row_for_row():
    # neighbour order decides which op1 endpoints and which cover witness
    # the scans find first, so it is part of the CLI's output
    for n in range(1, 13):
        for e in kt.enumerate_trees(n).entries:
            adj = e.adjacency()
            assert tuple(map(tuple, adj)) == kt.Tree(n, e.edges).adjacency


def test_tree_construction_runs_one_bfs(monkeypatch):
    sources = []
    real = graphs.bfs_distances

    def counting(g, source):
        sources.append(source)
        return real(g, source)

    monkeypatch.setattr(graphs, "bfs_distances", counting)
    t = kt.tree_from_graph(helpers.path_graph(9))
    assert len(sources) == 1
    assert (t.diameter, t.radius, t.center) == (8, 4, frozenset({4}))
    assert t.eccentricities[0] == 8 and t.center_distance(0) == 4
    assert len(sources) == 4  # plus the three sweeps, run once and cached


def test_center_parity_all_trees_up_to_10():
    for n in range(1, 11):
        for t in helpers.members(kt.enumerate_trees(n)):
            if t.diameter % 2 == 0:
                assert len(t.center) == 1
            else:
                assert len(t.center) == 2
                a, b = sorted(t.center)
                assert t.has_edge(a, b)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        kt.Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        kt.Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        kt.Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        kt.Graph(0, [])
    # a label must be an int and not a bool, and an edge a pair of labels
    for n, edges, message in [
        (2, [(0, "1")], "^vertex label must be an integer, not str$"),
        (2, [(0.0, 1)], "^vertex label must be an integer, not float$"),
        (2, [(True, 0)], "^vertex label must be an integer, not bool$"),
        (2, [(1, False)], "^vertex label must be an integer, not bool$"),
        (3, [(0, 1, 2)], r"^edge \(0, 1, 2\) is not a pair of vertex labels$"),
        (2, [0], "^edge 0 is not a pair of vertex labels$"),
    ]:
        with pytest.raises(InputError, match=message) as exc:
            kt.Graph(n, edges)
        assert type(exc.value) is InputError


def test_float_vertex_count_is_input_error():
    with pytest.raises(InputError, match="^vertex count must be an integer, not float$"):
        kt.tree_from_edges(2.0, [(0, 1)])


def test_bool_vertex_count_is_input_error():
    with pytest.raises(InputError, match="^vertex count must be an integer, not bool$"):
        kt.tree_from_edges(True, [])
