"""The sparse route against its oracles, and its three limits.

The forest route (`kemeny_forest_route`, a dense adjugate over the integers)
and the distance matrix (`all_pairs_distances`) are the oracles; the sparse
route shares neither its arithmetic nor its order of work.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree import invariants, sparse
from kemtree.cli import main
from kemtree.errors import DisconnectedError, InputError, ResourceLimitError

import helpers

MODULUS_MESSAGE = (
    "the sparse route's modulus needs more than 19937 bits, "
    "the largest tabled Mersenne exponent"
)
DISTANCE_MESSAGE = "distance work n(n + m) = 20480000 exceeds the sparse-route limit 20000000"
ELIMINATION_MESSAGE = "elimination work exceeds the sparse-route limit 4000000"


def grid_graph(a: int, b: int) -> kt.Graph:
    edges = [(v, v + 1) for v in range(a * b) if (v + 1) % b]
    edges += [(v, v + b) for v in range(a * b - b)]
    return kt.Graph(a * b, edges)


def _check_modulus(g: kt.Graph) -> None:
    """2^e - 1 exceeds 4 m^2 prod_{v >= 1} d_v, and no smaller tabled one does."""
    bound = 4 * g.m * g.m * math.prod(g.degrees[1:])
    e = sparse._exponent(g)
    assert (1 << e) - 1 > bound
    assert all((1 << f) - 1 <= bound for f in sparse.MERSENNE_EXPONENTS if f < e)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.data(), st.randoms(use_true_random=False))
def test_sparse_route_matches_the_forest_route_and_the_distance_matrix(n, data, rng):
    m = data.draw(st.integers(n - 1, min(n * (n - 1) // 2, 3 * n)), label="m")
    g = helpers.random_graph_with_edges(rng, n, m)
    _check_modulus(g)
    assert sparse.kemeny_sparse_route(g) == kt.kemeny_forest_route(g)
    d = kt.all_pairs_distances(g)
    assert invariants._distance_sums(g) == (kt.wiener_distance_route(d), kt.gutman_index(g, d))
    perm = list(range(n))
    rng.shuffle(perm)
    assert sparse.kemeny_sparse_route(helpers.relabel_graph(g, perm)) == kt.kemeny_forest_route(g)


def test_sparse_route_closed_forms_on_cycles_and_complete_graphs():
    for n in range(3, 61):
        g = helpers.cycle_graph(n)
        _check_modulus(g)
        assert sparse.kemeny_sparse_route(g) == Fraction(n * n - 1, 6)
    for n in range(2, 12):
        g = helpers.complete_graph(n)
        _check_modulus(g)
        assert sparse.kemeny_sparse_route(g) == Fraction((n - 1) ** 2, n)


def test_sparse_route_matches_the_edge_cut_route_on_trees():
    trees = [t for n in range(2, 10) for t in helpers.members(kt.enumerate_trees(n))]
    rng = random.Random(29)
    trees += [helpers.random_tree(rng, n) for n in range(10, 200, 7)]
    for t in trees:
        _check_modulus(t)
        assert sparse.kemeny_sparse_route(t) == kt.kemeny_edge_cut_route(t)
        assert kt.compute_invariants(t, "sparse") == kt.compute_invariants(t)._replace(
            route=kt.KemenyRoute.SPARSE
        )


def test_sparse_invariants_match_the_forest_route_on_fixtures_and_grids():
    cases = [helpers.load_graph(name) for name in ("unicycle_balanced", "unicycle_lopsided")]
    cases += [helpers.petersen_graph(), grid_graph(10, 10)]
    for g in cases:
        report = kt.compute_invariants(g)
        assert report.route is kt.KemenyRoute.SPARSE
        assert report == kt.compute_invariants(g, "forest")._replace(route=kt.KemenyRoute.SPARSE)
    assert [kt.compute_invariants(g).kemeny for g in cases[:2]] == [
        Fraction(65, 12),
        Fraction(73, 12),
    ]


def test_sparse_route_refuses_one_vertex_and_a_disconnected_graph():
    with pytest.raises(InputError, match="at least two vertices"):
        sparse.kemeny_sparse_route(kt.Graph(1, []))
    with pytest.raises(DisconnectedError) as info:
        sparse.kemeny_sparse_route(kt.Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))
    assert info.value.pair == (0, 3)


def _lucas_lehmer(e: int) -> bool:
    p = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    return s == 0


def test_tabled_exponents_up_to_4423_give_mersenne_primes():
    assert sparse.MERSENNE_EXPONENTS == tuple(sorted(sparse.MERSENNE_EXPONENTS))
    assert [e for e in sparse.MERSENNE_EXPONENTS if e <= 4423 and _lucas_lehmer(e)] == [
        e for e in sparse.MERSENNE_EXPONENTS if e <= 4423
    ]
    assert not _lucas_lehmer(67)  # 2^67 - 1 = 193707721 * 761838257287, not tabled


def _forbid_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a BFS or numeric step ran")

    monkeypatch.setattr(invariants, "_distance_sums", forbidden)
    monkeypatch.setattr(sparse, "_eliminate", forbidden)


# (graph, route, message): a path whose degree product needs a modulus of
# about 20,000 bits, a cycle of 3,200 vertices (n(n + m) = 20,480,000), and
# the 30 x 30 grid, whose elimination work is 7.3 * 10^6
LIMITS = {
    "modulus": (lambda: helpers.path_graph(20_000), "sparse", MODULUS_MESSAGE),
    "distance": (lambda: helpers.cycle_graph(3_200), "auto", DISTANCE_MESSAGE),
    "elimination": (lambda: grid_graph(30, 30), "auto", ELIMINATION_MESSAGE),
}


@pytest.mark.parametrize("limit", LIMITS)
def test_each_limit_is_checked_before_any_bfs_or_numeric_step(monkeypatch, limit):
    build, route, message = LIMITS[limit]
    g = build()
    _forbid_work(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        kt.compute_invariants(g, route)
    if limit != "distance":  # the Kemeny route alone does no BFS sums
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
            sparse.kemeny_sparse_route(g)


@pytest.mark.parametrize("limit", LIMITS)
def test_each_limit_exits_3_with_its_own_message(capsys, tmp_path, limit):
    build, route, message = LIMITS[limit]
    g = build()
    f = tmp_path / "graph.txt"
    f.write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    code = main(["invariants", str(f), "--route", route])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_the_limits_admit_their_measured_workloads():
    # the 20 x 20 grid and a random graph with n = 300, m = 600 run in a few
    # tenths of a second; their work stays well under each bound
    rng = random.Random(12)
    for g in (grid_graph(20, 20), helpers.random_graph_with_edges(rng, 300, 600)):
        invariants._require_distance_work(g)
        sparse._elimination_order(g, sparse._exponent(g))
