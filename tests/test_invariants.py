import random
import sys
import time
from fractions import Fraction

import pytest

import kemtree as kt
from kemtree import graphs, invariants, linalg
from kemtree.errors import DisconnectedError, InputError, ResourceLimitError
from kemtree.errors import RouteRequiresTreeError
from kemtree.invariants import KemenyRoute

import helpers


def tree(g):
    return kt.tree_from_graph(g)


def test_wiener_path3():
    d = kt.all_pairs_distances(helpers.path_graph(3))
    assert kt.wiener_distance_route(d) == 4


def test_wiener_double_stars_both_routes():
    for name, expected in [("double_star_1_3", 28), ("double_star_2_2", 29)]:
        t = helpers.load_tree(name)
        d = kt.all_pairs_distances(t)
        assert kt.wiener_distance_route(d) == expected
        assert kt.wiener_edge_cut_route(t) == expected


def test_wiener_star_closed_form():
    for n in range(2, 12):
        t = tree(helpers.star_graph(n))
        assert kt.wiener_edge_cut_route(t) == (n - 1) ** 2


def test_wiener_path_closed_form():
    for n in range(2, 51):
        t = tree(helpers.path_graph(n))
        w = n * (n * n - 1) // 6
        assert kt.wiener_edge_cut_route(t) == w
        assert kt.wiener_distance_route(kt.all_pairs_distances(t)) == w


def test_omega_double_stars():
    t1 = helpers.load_tree("double_star_1_3")
    t2 = helpers.load_tree("double_star_2_2")
    w1, w2 = kt.omega_weights(t1), kt.omega_weights(t2)
    assert w1.multiset() == (5, 5, 5, 5, 8)
    assert w2.multiset() == (5, 5, 5, 5, 9)
    assert w1.weights[(0, 1)] == 8
    assert w2.weights[(0, 1)] == 9
    # every edge touching a degree-1 vertex weighs n - 1 = 5
    for t, wmap in [(t1, w1), (t2, w2)]:
        for (u, v), w in wmap.weights.items():
            if t.degree(u) == 1 or t.degree(v) == 1:
                assert w == 5


def test_omega_p4():
    t = tree(helpers.path_graph(4))
    assert kt.omega_weights(t).multiset() == (3, 3, 4)


def test_omega_split_sizes_sum_to_n():
    rng = random.Random(17)
    for _ in range(20):
        t = helpers.random_tree(rng, rng.randrange(2, 41))
        omega = kt.omega_weights(t)
        for (u, v), w in omega.weights.items():
            # w = n1 * (n - n1) for some 1 <= n1 < n
            assert any(
                w == s * (t.n - s) for s in range(1, t.n)
            )
        # a random labelling, so a root-dependent slip cannot cancel
        wiener = kt.wiener_distance_route(kt.all_pairs_distances(t))
        assert omega.total == kt.wiener_edge_cut_route(t) == wiener


def test_a_trees_edge_cut_sums_build_no_edge_keyed_map(monkeypatch):
    def forbidden(t):
        raise AssertionError("omega_weights called")

    monkeypatch.setattr(invariants, "omega_weights", forbidden)
    t = helpers.load_tree("spider_2_5")
    assert invariants.wiener_edge_cut_route(t) == 108
    assert invariants.kemeny_edge_cut_route(t) == Fraction(29, 2)
    report = invariants.compute_invariants(t)
    assert (report.wiener, report.kemeny) == (108, Fraction(29, 2))


def test_omega_mates15_marked_edges():
    t = helpers.load_tree("mates15_b")
    weights = kt.omega_weights(t).weights
    assert weights[(0, 1)] == 56  # 7 * 8
    assert weights[(1, 2)] == 44  # 11 * 4


def test_omega_matches_path_enumeration_up_to_8():
    for n in range(2, 9):
        for t in helpers.members(kt.enumerate_trees(n)):
            assert kt.omega_weights(t).weights == helpers.omega_by_path_enumeration(t)


def test_gutman_small_cases():
    g2 = kt.Graph(2, [(0, 1)])
    assert kt.gutman_index(g2, kt.all_pairs_distances(g2)) == 1
    g3 = helpers.path_graph(3)
    assert kt.gutman_index(g3, kt.all_pairs_distances(g3)) == 6
    g5 = helpers.star_graph(5)
    assert kt.gutman_index(g5, kt.all_pairs_distances(g5)) == 28


def test_gutman_matches_direct_expansion():
    rng = random.Random(23)
    for _ in range(20):
        g = helpers.random_connected_graph(rng, rng.randrange(2, 8))
        d = helpers.floyd_warshall(g)
        deg = g.degrees
        grand = sum(
            deg[i] * deg[j] * d[i][j] for i in range(g.n) for j in range(g.n)
        )
        assert kt.gutman_index(g, kt.all_pairs_distances(g)) == grand // 2


def test_kemeny_forest_k2():
    assert kt.kemeny_forest_route(kt.Graph(2, [(0, 1)])) == Fraction(1, 2)


def test_kemeny_forest_unicycles():
    k1 = kt.kemeny_forest_route(helpers.load_graph("unicycle_balanced"))
    k2 = kt.kemeny_forest_route(helpers.load_graph("unicycle_lopsided"))
    assert k1 == Fraction(65, 12)
    assert k2 == Fraction(73, 12)
    assert kt.format_exact(k1) == "5.4167"
    assert kt.format_exact(k2) == "6.0833"


def test_forest_route_matches_determinant_formula_on_fixtures_and_trees():
    cases = [helpers.load_graph(p.stem) for p in sorted(helpers.FIXTURES.glob("*.txt"))]
    assert len(cases) == 13
    cases += [t for n in range(2, 9) for t in helpers.members(kt.enumerate_trees(n))]
    for g in cases:
        assert kt.kemeny_forest_route(g) == helpers.kemeny_forest_determinants(g)


def test_forest_route_matches_determinant_formula_on_random_graphs():
    rng = random.Random(2024)
    for n in range(2, 17):
        top = n * (n - 1) // 2
        sizes = {n - 1, top} | {rng.randint(n - 1, top) for _ in range(3)}
        for m in sorted(sizes):
            g = helpers.random_graph_with_edges(rng, n, m)
            assert g.m == m
            assert kt.kemeny_forest_route(g) == helpers.kemeny_forest_determinants(g)


def test_kemeny_closed_forms_complete_and_cycle():
    for n in range(3, 13):
        assert kt.kemeny_forest_route(helpers.complete_graph(n)) == Fraction((n - 1) ** 2, n)
        assert kt.kemeny_forest_route(helpers.cycle_graph(n)) == Fraction(n * n - 1, 6)


def test_kemeny_wiener_route_double_stars():
    t1 = helpers.load_tree("double_star_1_3")
    t2 = helpers.load_tree("double_star_2_2")
    k1, k2 = kt.kemeny_wiener_route(t1), kt.kemeny_wiener_route(t2)
    assert k1 == Fraction(57, 10)
    assert k2 == Fraction(61, 10)
    assert k2 > k1


def test_kemeny_edge_cut_small_cases():
    assert kt.kemeny_edge_cut_route(tree(kt.Graph(2, [(0, 1)]))) == Fraction(1, 2)
    assert kt.kemeny_edge_cut_route(tree(helpers.path_graph(3))) == Fraction(3, 2)
    t = tree(helpers.star_graph(10))
    expected = Fraction(17, 2)  # n - 3/2 at n = 10
    assert kt.kemeny_edge_cut_route(t) == expected
    assert kt.kemeny_wiener_route(t) == expected
    assert kt.kemeny_forest_route(t) == expected


def test_three_routes_agree_up_to_8():
    for n in range(2, 9):
        for t in helpers.members(kt.enumerate_trees(n)):
            a = kt.kemeny_forest_route(t)
            b = kt.kemeny_wiener_route(t)
            c = kt.kemeny_edge_cut_route(t)
            assert a == b == c
            assert a > 0


def test_wiener_relation_fails_on_cycles():
    for name in ["unicycle_balanced", "unicycle_lopsided"]:
        g = helpers.load_graph(name)
        d = kt.all_pairs_distances(g)
        w = kt.wiener_distance_route(d)
        pretend = kt.kemeny_from_wiener(g.n, w)
        assert kt.kemeny_forest_route(g) != pretend


def test_degree_distance_identity_on_trees_up_to_9():
    # column sums: deg^T F == 1^T (2F - (n-1) I) entrywise when F is the
    # tree distance matrix
    for n in range(2, 10):
        for t in helpers.members(kt.enumerate_trees(n)):
            deg = t.degrees
            d = kt.all_pairs_distances(t)
            for j in range(n):
                lhs = sum(deg[i] * d[i][j] for i in range(n))
                rhs = 2 * sum(d[i][j] for i in range(n)) - (n - 1)
                assert lhs == rhs


def test_comparison_transfers_between_kemeny_and_wiener():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(4, 9)
        t1, t2 = helpers.random_tree(rng, n), helpers.random_tree(rng, n)
        w1, w2 = kt.wiener_edge_cut_route(t1), kt.wiener_edge_cut_route(t2)
        k1 = kt.kemeny_forest_route(t1)
        k2 = kt.kemeny_forest_route(t2)
        assert (k1 < k2) == (w1 < w2)
        assert (k1 == k2) == (w1 == w2)


def test_kemeny_needs_two_vertices():
    single = kt.tree_from_edges(1, [])
    with pytest.raises(ValueError):
        kt.kemeny_wiener_route(single)
    with pytest.raises(ValueError):
        kt.kemeny_edge_cut_route(single)
    with pytest.raises(ValueError):
        kt.kemeny_forest_route(single)
    assert kt.wiener_edge_cut_route(single) == 0


def test_wiener_lower_bound_complete_graphs():
    for n in range(2, 6):
        comp = helpers.complete_graph(n)
        d = kt.all_pairs_distances(comp)
        assert kt.wiener_distance_route(d) == n * (n - 1) // 2
    g = helpers.path_graph(4)
    assert kt.wiener_distance_route(kt.all_pairs_distances(g)) > 6


def test_compute_invariants_route_selection():
    t_report = kt.compute_invariants(helpers.path_graph(4))
    assert t_report.route is KemenyRoute.EDGE_CUT
    g_report = kt.compute_invariants(helpers.cycle_graph(4))
    assert g_report.route is KemenyRoute.SPARSE
    assert kt.compute_invariants(helpers.cycle_graph(4), "forest") == g_report._replace(
        route=KemenyRoute.FOREST
    )
    forced = kt.compute_invariants(helpers.path_graph(4), "forest")
    assert forced.kemeny == t_report.kemeny
    with pytest.raises(RouteRequiresTreeError):
        kt.compute_invariants(helpers.cycle_graph(4), "wiener")
    with pytest.raises(RouteRequiresTreeError):
        kt.compute_invariants(helpers.cycle_graph(4), "edgecut")


def test_compute_invariants_unknown_route_is_an_input_error():
    message = "^unknown route 'bogus'; the routes are auto, forest, wiener, edgecut, sparse$"
    with pytest.raises(InputError, match=message) as info:
        kt.compute_invariants(helpers.cycle_graph(4), "bogus")
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "n, w, message",
    [
        (4.0, 10, "^order must be an integer, not float$"),
        (4, "10", "^Wiener index must be an integer, not str$"),
        (True, 10, "^order must be an integer, not bool$"),
    ],
    ids=["float-order", "str-wiener", "bool-order"],
)
def test_kemeny_from_wiener_rejects_arguments_that_are_not_ints(n, w, message):
    with pytest.raises(InputError, match=message):
        kt.kemeny_from_wiener(n, w)


def test_compute_invariants_matches_distance_matrix_oracle():
    cases = [t for n in range(2, 11) for t in helpers.members(kt.enumerate_trees(n))]
    cases += [helpers.load_graph(p.stem) for p in sorted(helpers.FIXTURES.glob("*.txt"))]
    for g in cases:
        d = kt.all_pairs_distances(g)
        report = kt.compute_invariants(g)
        assert report.wiener == kt.wiener_distance_route(d)
        assert report.gutman == kt.gutman_index(g, d)


def test_compute_invariants_builds_no_distance_matrix_on_any_route(monkeypatch):
    calls = []
    real = graphs.all_pairs_distances

    def counting(g):
        calls.append(g.n)
        return real(g)

    for module in (graphs, invariants):
        monkeypatch.setattr(module, "all_pairs_distances", counting, raising=False)
    kt.compute_invariants(helpers.load_graph("spider_2_5"))
    kt.compute_invariants(helpers.path_graph(30), "forest")
    assert calls == []
    kt.compute_invariants(helpers.cycle_graph(5), "forest")
    assert calls == []
    # a disconnected graph still names the first vertex unreachable from 0,
    # also when its edge count is that of a tree
    for g, pair in [
        (kt.Graph(4, [(0, 1), (2, 3)]), (0, 2)),
        (kt.Graph(4, [(0, 1), (1, 2), (0, 2)]), (0, 3)),
    ]:
        with pytest.raises(DisconnectedError) as exc:
            kt.compute_invariants(g)
        assert exc.value.pair == pair


def _forbid_dense_matrices(monkeypatch):
    def built(*args):
        raise AssertionError("a dense matrix was built")

    # `linalg` is imported where a matrix is read, so its builder is patched there
    monkeypatch.setattr(linalg, "laplacian", built)
    monkeypatch.setattr(graphs, "all_pairs_distances", built)


def test_tree_only_route_on_a_cycle_is_refused_before_any_distance(monkeypatch):
    _forbid_dense_matrices(monkeypatch)
    for route in ("wiener", "edgecut"):
        with pytest.raises(RouteRequiresTreeError):
            kt.compute_invariants(helpers.cycle_graph(4), route)


def test_dense_limit_is_checked_before_any_matrix(monkeypatch):
    limit = invariants.MAX_DENSE_VERTICES
    _forbid_dense_matrices(monkeypatch)
    above = helpers.cycle_graph(limit + 1)
    message = f"^{limit + 1} vertices exceed the dense-route limit {limit}$"
    for call in (
        lambda: kt.kemeny_forest_route(above),
        lambda: kt.compute_invariants(above, "forest"),
        lambda: kt.compute_invariants(helpers.path_graph(limit + 1), "forest"),
    ):
        with pytest.raises(ResourceLimitError, match=message):
            call()
    # at the limit both checks admit the graph and the patched builders run
    at = helpers.cycle_graph(limit)
    for call in (lambda: kt.kemeny_forest_route(at), lambda: kt.compute_invariants(at, "forest")):
        with pytest.raises(AssertionError, match="a dense matrix was built"):
            call()
    # trees on their own routes build no dense matrix, so no limit applies
    path = helpers.path_graph(limit + 1)
    assert kt.compute_invariants(path).wiener == (limit + 2) * (limit + 1) * limit // 6


def test_format_exact_rounding():
    assert kt.format_exact(Fraction(1, 20)) == "0.0500"
    assert kt.format_exact(Fraction(1, 20), places=1) == "0.0"
    assert kt.format_exact(Fraction(3, 20), places=1) == "0.2"
    assert kt.format_exact(Fraction(-65, 12)) == "-5.4167"
    assert kt.format_exact(Fraction(5, 2), places=0) == "2"
    assert kt.format_exact(Fraction(7, 2), places=0) == "4"
    assert kt.format_exact(7) == "7.0000"


def test_format_rational():
    assert kt.format_rational(Fraction(65, 12)) == "65/12"
    assert kt.format_rational(Fraction(4, 2)) == "2"
    assert kt.format_rational(3) == "3"


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1/3", None])
def test_formatters_take_only_exact_values(value):
    with pytest.raises(InputError, match="int or a Fraction"):
        kt.format_exact(value, 4)
    with pytest.raises(InputError, match="int or a Fraction"):
        kt.format_rational(value)


@pytest.mark.parametrize(
    "places, message", [(-1, "nonnegative"), (True, "not bool"), (2.0, "not float")]
)
def test_format_exact_places_is_an_int_at_least_0(places, message):
    with pytest.raises(InputError, match=message):
        kt.format_exact(Fraction(1, 3), places)


def test_format_exact_refuses_places_above_the_digit_limit_before_any_work():
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="places exceed"):
        kt.format_exact(Fraction(1, 3), 10**9)  # 10**(10**9) alone would take minutes
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ResourceLimitError):
        kt.format_exact(Fraction(1, 3), limit + 1)
    assert kt.format_exact(Fraction(1, 3), limit) == "0." + "3" * limit


def test_formatters_refuse_an_integer_above_the_digit_limit():
    big = Fraction(10**5000 + 1, 3)
    with pytest.raises(ResourceLimitError, match="digits for integer formatting"):
        kt.format_rational(big)
    with pytest.raises(ResourceLimitError, match="digits for integer formatting"):
        kt.format_exact(big, 2)
