import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree import linalg
from kemtree.linalg import adjugate_det, delete_rows_cols

import helpers


def test_laplacian_single_edge():
    g = kt.Graph(2, [(0, 1)])
    assert kt.laplacian(g) == [[1, -1], [-1, 1]]


def test_laplacian_triangle():
    lap = kt.laplacian(helpers.cycle_graph(3))
    assert lap == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_laplacian_row_sums_zero():
    rng = random.Random(5)
    for _ in range(20):
        g = helpers.random_connected_graph(rng, rng.randrange(2, 9))
        for row in kt.laplacian(g):
            assert sum(row) == 0


def test_det_small_cases():
    assert kt.det_exact([[2, -1], [-1, 2]]) == 3
    assert kt.det_exact([]) == 1
    for k in range(1, 6):
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        assert kt.det_exact(ident) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        kt.det_exact([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("solve", [kt.det_exact, adjugate_det])
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.5, 1], [1, 3]], "not float"),
        ([[1, 0], [0, 1.0]], "not float"),
        ([[True, 0], [0, True]], "not bool"),
        ([["1", 0], [0, 1]], "not str"),
        ([[1, 2], [3, Fraction(1, 2)]], "not Fraction"),
        (["ab", "cd"], "not str"),
        (5, "sequence of rows"),
        ([1, 2], "sequence of rows"),
        ([[1, 2], [3]], "square"),
    ],
)
def test_matrix_entries_must_be_ints(solve, matrix, message):
    with pytest.raises(kt.InputError, match=message):
        solve(matrix)


def test_matrix_rows_may_be_tuples_and_are_left_unchanged():
    assert kt.det_exact(((2, -1), (-1, 2))) == 3
    assert adjugate_det(((2, -1), (-1, 2))) == (3, [[2, 1], [1, 2]])
    rows = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    for solve in (kt.det_exact, adjugate_det):
        solve(rows)
        assert rows == [[2, 1, 0], [1, 2, 1], [0, 1, 2]]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
))
def test_det_matches_cofactor_oracle(matrix):
    assert kt.det_exact(matrix) == helpers.det_cofactor(matrix)


def test_det_with_zero_pivot_needs_swap():
    m = [[0, 1, 2], [3, 0, 1], [1, 1, 1]]
    assert kt.det_exact(m) == helpers.det_cofactor(m)
    singular = [[0, 0], [1, 1]]
    assert kt.det_exact(singular) == 0


def test_petersen_spanning_trees():
    g = helpers.petersen_graph()
    minor = delete_rows_cols(kt.laplacian(g), {0})
    assert helpers.det_cofactor(minor) == 2000
    assert kt.det_exact(minor) == 2000
    assert kt.spanning_tree_count(g) == 2000


def test_tree_has_one_spanning_tree():
    for n in range(1, 9):
        for t in helpers.members(kt.enumerate_trees(n)):
            assert kt.spanning_tree_count(t) == 1


def test_cycle_spanning_trees_brute_force():
    for n in range(3, 9):
        g = helpers.cycle_graph(n)
        assert kt.spanning_tree_count(g) == n
        assert helpers.spanning_tree_count_brute(g) == n


def test_k4_spanning_trees():
    g = helpers.complete_graph(4)
    assert kt.spanning_tree_count(g) == 16
    assert helpers.spanning_tree_count_brute(g) == 16


def test_spanning_count_relabel_invariant():
    rng = random.Random(11)
    for _ in range(25):
        g = helpers.random_connected_graph(rng, rng.randrange(2, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert kt.spanning_tree_count(g) == kt.spanning_tree_count(
            helpers.relabel_graph(g, perm)
        )


def test_spanning_count_disconnected_is_zero():
    assert kt.spanning_tree_count(kt.Graph(4, [(0, 1), (2, 3)])) == 0


def test_two_forest_rejects_equal_vertices():
    with pytest.raises(ValueError):
        kt.two_forest_count(helpers.path_graph(3), 1, 1)


@pytest.mark.parametrize(
    "i, j, message",
    [
        (0, 7, r"^vertex 7 outside vertex range 0\.\.3$"),
        (0, -1, r"^vertex -1 outside vertex range 0\.\.3$"),
        (0, 1.0, r"^vertex label must be an integer, not float$"),
        (True, 2, r"^vertex label must be an integer, not bool$"),
    ],
    ids=["above", "negative", "float", "bool"],
)
def test_two_forest_rejects_labels_that_are_not_vertices(i, j, message):
    # an unheld label once dropped nothing and counted the spanning trees (4)
    with pytest.raises(kt.InputError, match=message):
        kt.two_forest_count(helpers.cycle_graph(4), i, j)


def test_two_forest_single_edge():
    assert kt.two_forest_count(kt.Graph(2, [(0, 1)]), 0, 1) == 1


def test_two_forest_c4_adjacent_and_opposite():
    c4 = helpers.cycle_graph(4)
    assert helpers.two_forest_count_brute(c4, 0, 1) == 3
    assert helpers.two_forest_count_brute(c4, 0, 2) == 4
    assert kt.two_forest_count(c4, 0, 1) == 3
    assert kt.two_forest_count(c4, 0, 2) == 4


def test_two_forest_symmetric():
    rng = random.Random(3)
    for _ in range(20):
        g = helpers.random_connected_graph(rng, rng.randrange(3, 8))
        i, j = rng.sample(range(g.n), 2)
        assert kt.two_forest_count(g, i, j) == kt.two_forest_count(g, j, i)


def test_two_forest_on_trees_is_distance():
    for n in range(2, 11):
        for t in helpers.members(kt.enumerate_trees(n)):
            d = kt.all_pairs_distances(t)
            for i in range(n):
                for j in range(i + 1, n):
                    assert kt.two_forest_count(t, i, j) == d[i][j]


def test_counts_match_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(30):
        g = helpers.random_connected_graph(rng, rng.randrange(2, 8))
        assert kt.spanning_tree_count(g) == helpers.spanning_tree_count_brute(g)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert kt.two_forest_count(g, i, j) == helpers.two_forest_count_brute(
                    g, i, j
                )


def _cofactor_adjugate(matrix):
    k = len(matrix)
    return [
        [
            (-1) ** (i + j)
            * helpers.det_cofactor(
                [[matrix[r][c] for c in range(k) if c != i] for r in range(k) if r != j]
            )
            for j in range(k)
        ]
        for i in range(k)
    ]


def test_adjugate_of_laplacian_minors():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(2, 13)
        g = helpers.random_connected_graph(rng, n, rng.choice((0.1, 0.3, 0.7)))
        a = delete_rows_cols(kt.laplacian(g), {rng.randrange(n)})
        det, adj = adjugate_det(a)
        assert det == kt.det_exact(a) == kt.spanning_tree_count(g)
        k = n - 1
        for i in range(k):
            for j in range(k):
                assert sum(a[i][t] * adj[t][j] for t in range(k)) == det * (i == j)
        if k <= 6:
            assert adj == _cofactor_adjugate(a)


def test_adjugate_small_cases():
    assert adjugate_det([]) == (1, [])
    assert adjugate_det([[5]]) == (5, [[1]])
    assert adjugate_det([[-3]]) == (-3, [[1]])
    assert adjugate_det([[2, -1], [-1, 2]]) == (3, [[2, 1], [1, 2]])


def test_adjugate_zero_pivot_is_an_input_error():
    for matrix in ([[0, 1], [1, 0]], [[0]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]]):
        with pytest.raises(kt.InputError):
            adjugate_det(matrix)
    with pytest.raises(kt.InputError):
        adjugate_det([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
))
def test_adjugate_matches_cofactor_oracle(matrix):
    leading = [
        helpers.det_cofactor([row[:s] for row in matrix[:s]])
        for s in range(1, len(matrix) + 1)
    ]
    if 0 in leading:
        with pytest.raises(kt.InputError):
            adjugate_det(matrix)
    else:
        assert adjugate_det(matrix) == (leading[-1], _cofactor_adjugate(matrix))


def test_forest_route_takes_no_determinant(monkeypatch):
    def forbidden(m):
        raise AssertionError("det_exact called")

    monkeypatch.setattr(linalg, "det_exact", forbidden)
    g = helpers.load_graph("unicycle_balanced")
    assert kt.kemeny_forest_route(g) == Fraction(65, 12)
