"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion is exact (integer or rational equality), with the
stated wall-clock budgets enforced where given.
"""

import itertools
import random
import time
from fractions import Fraction

import kemtree as kt

import helpers

SPIDERS = [
    "spider_1_6",
    "spider_2_5",
    "spider_3_4",
    "spider_1_1_4",
    "spider_1_2_3",
    "spider_2_2_2",
    "spider_1_1_1_2",
]


def _pass(num, message):
    print(f"ACCEPTANCE {num:02d} PASS  {message}")


def test_criterion_01_unicycle_regression():
    start = time.perf_counter()
    u1 = helpers.load_graph("unicycle_balanced")
    u2 = helpers.load_graph("unicycle_lopsided")
    k1, k2 = kt.kemeny_forest_route(u1), kt.kemeny_forest_route(u2)
    assert k1 == Fraction(65, 12)
    assert k2 == Fraction(73, 12)
    assert kt.format_exact(k1) == "5.4167"
    assert kt.format_exact(k2) == "6.0833"
    w1 = kt.wiener_distance_route(kt.all_pairs_distances(u1))
    w2 = kt.wiener_distance_route(kt.all_pairs_distances(u2))
    assert w1 == w2 == 27
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"kappa 65/12 and 73/12, equal W={w1}, {elapsed:.3f}s")


def test_criterion_02_family_10_4_reproduction():
    start = time.perf_counter()
    fam = kt.family(10, 4)
    survivors = kt.theorem_leaf_filter(fam)
    assert len(survivors) == 7
    spider_codes = {
        name: kt.canonical_code(helpers.load_tree(name)) for name in SPIDERS
    }
    assert set(survivors.codes) == set(spider_codes.values())
    maxi = kt.maximal_elements(fam)
    expected_w = {
        spider_codes["spider_3_4"]: 112,
        spider_codes["spider_2_2_2"]: 117,
        spider_codes["spider_1_1_1_2"]: 114,
    }
    got = {kt.canonical_code(t): kt.wiener_edge_cut_route(t) for t in helpers.members(maxi)}
    assert got == expected_w
    argmax = max(helpers.members(maxi), key=kt.kemeny_wiener_route)
    assert kt.canonical_code(argmax) == spider_codes["spider_2_2_2"]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(2, f"7 filter survivors, maximal W {{112,117,114}}, {elapsed:.2f}s")


def test_criterion_03_three_route_agreement():
    start = time.perf_counter()
    census = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
    total = 0
    for n, expected in census.items():
        members = helpers.members(kt.enumerate_trees(n))
        assert len(members) == expected
        for t in members:
            a = kt.kemeny_forest_route(t)
            b = kt.kemeny_wiener_route(t)
            c = kt.kemeny_edge_cut_route(t)
            assert a == b == c
            total += 1
    assert total == sum(census.values()) == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(3, f"exact route agreement on {total} trees, {elapsed:.2f}s")


def test_criterion_04_wiener_route_agreement():
    count = 0
    for n in range(2, 11):
        for t in helpers.members(kt.enumerate_trees(n)):
            assert kt.wiener_edge_cut_route(t) == kt.wiener_distance_route(
                kt.all_pairs_distances(t)
            )
            count += 1
    _pass(4, f"edge-cut Wiener equals distance Wiener on {count} trees")


def test_criterion_05_six_vertex_example():
    t1 = helpers.load_tree("double_star_1_3")
    t2 = helpers.load_tree("double_star_2_2")
    assert kt.omega_weights(t1).multiset() == (5, 5, 5, 5, 8)
    assert kt.omega_weights(t2).multiset() == (5, 5, 5, 5, 9)
    k1 = kt.kemeny_forest_route(t1)
    k2 = kt.kemeny_forest_route(t2)
    assert k2 > k1
    assert (k1, k2) == (Fraction(57, 10), Fraction(61, 10))
    _pass(5, "weights {8,5,5,5,5} vs {9,5,5,5,5}, kappa ordering confirmed")


def test_criterion_06_extremal_star_and_path():
    for n in range(3, 11):
        members = helpers.members(kt.enumerate_trees(n))
        wieners = [kt.wiener_edge_cut_route(t) for t in members]
        kappas = [kt.kemeny_forest_route(t) for t in members]
        w_min, w_max = min(wieners), max(wieners)
        k_min, k_max = min(kappas), max(kappas)
        min_by_w = {i for i, w in enumerate(wieners) if w == w_min}
        min_by_k = {i for i, k in enumerate(kappas) if k == k_min}
        max_by_w = {i for i, w in enumerate(wieners) if w == w_max}
        max_by_k = {i for i, k in enumerate(kappas) if k == k_max}
        assert min_by_w == min_by_k and len(min_by_k) == 1
        assert max_by_w == max_by_k and len(max_by_k) == 1
        star = members[next(iter(min_by_k))]
        path = members[next(iter(max_by_k))]
        assert max(star.degrees) == n - 1
        assert star.diameter == (2 if n >= 3 else 1)
        assert path.diameter == n - 1
    _pass(6, "min at the star, max at the path, attaining sets coincide, n=3..10")


def _uniform_head_instances(t):
    """(i1, i2) pairs whose path components are all one size except the far
    end: sizes[0] = ... = sizes[d-1] = t_size, sizes[d] = t_size + m."""
    n = t.n
    dist = kt.all_pairs_distances(t)
    for i1 in range(n):
        parent, order = t.rooted(i1)
        size = [1] * n
        for v in reversed(order):
            p = parent[v]
            if p >= 0:
                size[p] += size[v]
        for i2 in range(n):
            if dist[i1][i2] < 2:
                continue
            v = parent[i2]
            prev_child = i2
            t_size = -1
            ok = True
            while v != i1:
                interior = size[v] - size[prev_child]
                if t_size < 0:
                    t_size = interior
                elif interior != t_size:
                    ok = False
                    break
                prev_child = v
                v = parent[v]
            if not ok:
                continue
            c0 = n - size[prev_child]
            if c0 == t_size:
                yield i1, i2, t_size, size[i2] - t_size


def test_criterion_07_transformation_oracles():
    rng = random.Random(20240801)
    checked = 0
    while checked < 500:
        n = rng.randrange(8, 15)
        t = helpers.random_tree(rng, n)
        i1, i2 = rng.sample(range(n), 2)
        if kt.all_pairs_distances(t)[i1][i2] < 2:
            continue
        pd = kt.decompose_path(t, i1, i2)
        t2 = kt.apply_op1(t, i1, i2)
        assert kt.op1_delta_formula(pd) == kt.wiener_edge_cut_route(
            t
        ) - kt.wiener_edge_cut_route(t2)
        checked += 1
    checked = 0
    while checked < 500:
        n = rng.randrange(8, 15)
        t = helpers.random_tree(rng, n)
        u, v = t.edges[rng.randrange(len(t.edges))]
        i1, b_root = (u, v) if rng.random() < 0.5 else (v, u)
        branch = helpers._component_of(t.adjacency, b_root, {frozenset((i1, b_root))})
        host = [x for x in range(n) if x not in branch and x != i1]
        if not host:
            continue
        i2 = rng.choice(host)
        delta = kt.op2_delta_formula(t, b_root, i1, i2)
        moved = kt.apply_op2(t, b_root, i1, i2)
        assert delta == kt.wiener_edge_cut_route(t) - kt.wiener_edge_cut_route(moved)
        checked += 1
    uniform_checked = 0
    for n in range(4, 13):
        for t in helpers.members(kt.enumerate_trees(n)):
            for i1, i2, t_size, m in _uniform_head_instances(t):
                pd = kt.decompose_path(t, i1, i2)
                expected = -(t_size - 1) * (pd.d - 1) * (m + 1)
                assert kt.op1_delta_formula(pd) == expected
                t2 = kt.apply_op1(t, i1, i2)
                assert (
                    kt.wiener_edge_cut_route(t) - kt.wiener_edge_cut_route(t2)
                    == expected
                )
                uniform_checked += 1
    assert uniform_checked > 100
    _pass(
        7,
        f"500+500 random deltas exact, {uniform_checked} uniform instances reduce",
    )


def test_criterion_08_mate_generation_to_15():
    start = time.perf_counter()
    mates = [p for n in range(4, 16) for p in kt.generate_mates_op1(kt.enumerate_trees(n))]
    assert mates
    for pair in mates:
        assert pair.code_a != pair.code_b
        tree_a = kt.tree_from_edges(pair.order, pair.edges_a)
        tree_b = kt.tree_from_edges(pair.order, pair.edges_b)
        assert (kt.canonical_code(tree_a), kt.canonical_code(tree_b)) == (pair.code_a, pair.code_b)
        assert tree_a.n == tree_b.n == pair.order <= 15
        assert (
            kt.wiener_edge_cut_route(tree_a)
            == kt.wiener_edge_cut_route(tree_b)
            == pair.wiener
        )
        assert (
            kt.kemeny_wiener_route(tree_a)
            == kt.kemeny_wiener_route(tree_b)
            == kt.kemeny_from_wiener(pair.order, pair.wiener)
        )
    ma = helpers.load_tree("mates15_a")
    mb = helpers.load_tree("mates15_b")
    fixture_key = frozenset((kt.canonical_code(ma), kt.canonical_code(mb)))
    n15_keys = {
        frozenset((p.code_a, p.code_b)) for p in mates if p.order == 15
    }
    assert fixture_key in n15_keys
    mapped = kt.apply_op1(ma, 0, 3)
    assert kt.canonical_code(mapped) == kt.canonical_code(mb)
    assert kt.wiener_edge_cut_route(ma) == kt.wiener_edge_cut_route(mapped)
    elapsed = time.perf_counter() - start
    _pass(8, f"{len(mates)} mate pairs through order 15, {elapsed:.1f}s")


def test_criterion_09_maximal_included_in_filter():
    start = time.perf_counter()
    pairs_checked = 0
    for n in range(5, 12):
        for d in range(2, n):
            fam = kt.family(n, d)
            if not fam.entries:
                continue
            maxi = set(kt.maximal_elements(fam).codes)
            surv = set(kt.theorem_leaf_filter(fam).codes)
            assert maxi <= surv
            pairs_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _pass(9, f"inclusion holds for {pairs_checked} (n,d) families, {elapsed:.1f}s")


def test_criterion_10_enumeration_matches_prufer_oracle():
    expected = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    for n, count in expected.items():
        assert kt.prufer_oracle_count(n) == count
        assert len(kt.enumerate_trees(n)) == count
    _pass(10, "counts (1,2,3,6,11,23,47) for n=3..9 match the decode oracle")


def test_criterion_11_forest_counts_match_brute_force():
    rng = random.Random(987654321)
    for trial in range(200):
        n = rng.randrange(2, 7)
        g = helpers.random_connected_graph(rng, n)
        assert kt.spanning_tree_count(g) == helpers.spanning_tree_count_brute(g)
        for i in range(n):
            for j in range(i + 1, n):
                assert kt.two_forest_count(g, i, j) == helpers.two_forest_count_brute(
                    g, i, j
                )
    _pass(11, "tau and all f_ij equal subset enumeration on 200 random graphs")
