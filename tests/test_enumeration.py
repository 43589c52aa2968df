import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree import enumeration
from kemtree.enumeration import (
    _center_rooting,
    _code_from_adjacency,
    _code_from_rooting,
    _decode_shape,
    _layer,
    _leaf_attachments,
    _oracle_codes,
    _shape_adjacency,
)
from kemtree.errors import InputError, ParseError, ResourceLimitError
from kemtree.graphs import bfs_distances, double_sweep, rooted_traversal

import helpers

# OEIS A000055
FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}
ROOTED_TREE_COUNTS = helpers.rooted_tree_counts(16)
SRC = str(Path(kt.__file__).resolve().parents[1])


def test_enumerate_counts_match_census():
    # A000055, and Otter's count from the rooted-tree recurrence
    free = helpers.free_tree_counts(16)
    for n, expected in FREE_TREE_COUNTS.items():
        assert len(kt.enumerate_trees(n)) == expected == free[n]


def test_rooted_tree_counts_match_a000081():
    assert ROOTED_TREE_COUNTS[1:10] == [1, 1, 2, 4, 9, 20, 48, 115, 286]
    assert ROOTED_TREE_COUNTS[15:] == [87811, 235381]


def test_generator_keeps_every_representative():
    # same codes, and the same first-found edge list for each code, as
    # attaching a leaf at every vertex and coding every result from scratch
    for n in range(1, 15):
        got = tuple((e.code, e.edges) for e in _layer(n))
        assert got == helpers.layer_by_full_recode(n)


def test_entries_are_attachment_sequences():
    # vertex k hangs from attach[k - 1] < k, and the sorted edges are the
    # pairs (a_k, k)
    for n in range(1, 15):
        for e in _layer(n):
            assert isinstance(e.attach, bytes) and len(e.attach) == n - 1
            assert all(a < k for k, a in enumerate(e.attach, 1))
            assert e.edges == tuple(sorted((a, k) for k, a in enumerate(e.attach, 1)))


def test_layers_carry_the_wiener_index_and_diameter_of_their_trees():
    for n in range(1, 15):
        for entry in _layer(n):
            t = kt.tree_from_edges(n, entry.edges)
            assert t.edges == entry.edges
            assert entry.wiener == kt.wiener_edge_cut_route(t)
            assert entry.diameter == t.diameter


def test_attachments_are_orbit_minima_with_their_codes():
    # with each vertex's total distance from a BFS, and whether the new
    # leaf lengthens the diameter from the eccentricities
    for n in range(2, 11):
        for e in _layer(n):
            adj = [[] for _ in range(n + 1)]
            for u, v in e.edges:
                adj[u].append(v)
                adj[v].append(u)
            orbits = {}
            for v in range(n):
                orbits.setdefault(helpers.rooted_code(adj, v), v)
            got = list(_leaf_attachments(e.attach))
            assert [v for v, *_ in got] == sorted(orbits.values())
            for v, code, dist, deepens in got:
                assert dist == sum(bfs_distances(adj[:n], v))
                adj[v].append(n)
                adj[n] = [v]
                assert code == _code_from_adjacency(adj)
                da, far = double_sweep(adj)
                assert deepens == (da[far] == e.diameter + 1)
                adj[v].pop()


def test_attachments_count_rooted_trees():
    # an attachment orbit of a free tree is one rooted tree of the same
    # order, so orbit minima over a whole layer number exactly r(n)
    for n in range(2, 16):
        attachments = sum(
            1 for e in _layer(n) for _ in _leaf_attachments(e.attach)
        )
        assert attachments == ROOTED_TREE_COUNTS[n]


def test_generator_codes_no_tree_from_scratch(monkeypatch):
    def forbidden(adj):
        raise AssertionError("_code_from_adjacency called")

    monkeypatch.setattr(enumeration, "_layers", {})
    monkeypatch.setattr(enumeration, "_code_from_adjacency", forbidden)
    assert len(_layer(12)) == FREE_TREE_COUNTS[12]


def test_generator_builds_no_adjacency_lists(monkeypatch):
    # each parent is rooted from its attachment bytes
    def forbidden(self):
        raise AssertionError("TreeEntry.adjacency called")

    monkeypatch.setattr(enumeration, "_layers", {})
    monkeypatch.setattr(enumeration.TreeEntry, "adjacency", forbidden)
    assert len(_layer(12)) == FREE_TREE_COUNTS[12]


def test_layer_codes_are_the_codes_of_their_edges():
    for n in range(1, 17):
        for e in _layer(n):
            adj = [[] for _ in range(n)]
            for u, v in e.edges:
                adj[u].append(v)
                adj[v].append(u)
            assert _code_from_adjacency(adj) == e.code


def _check_center_rooting(rooting):
    given = list(rooting[0])
    parent, order, code, kids, size = _center_rooting(*rooting)
    assert list(rooting[0]) == given
    adj = [[] for _ in rooting[0]]
    for v, p in enumerate(rooting[0]):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    assert sorted(order) == list(range(len(adj)))
    heads = 1 + (parent[order[0]] >= 0)
    assert all(order.index(parent[v]) < i for i, v in enumerate(order) if i >= heads)
    for v in order:
        # v's children are its neighbours it is the parent of, less the
        # other center across a central edge
        children = [u for u in adj[v] if parent[u] == v and parent[v] != u]
        assert kids[v] == sorted(kids[v]) == [b"(", *sorted(code[u] for u in children), b")"]
        assert code[v] == b"".join(kids[v])
    # sizes are those of the rooting at order[0]; any other vertex's code
    # spells its subtree, two bytes per vertex
    assert size[order[0]] == len(adj)
    assert all(size[v] == len(code[v]) // 2 for v in order[1:])


def test_center_rooting_child_lists_are_sorted_and_spell_each_code():
    for n in range(2, 13):
        for e in _layer(n):
            _check_center_rooting(([-1, *e.attach], range(n)))
    rng = random.Random(23)
    for n in [2, 3, 5, 18, 40, 97]:
        for _ in range(20):
            _check_center_rooting(rooted_traversal(helpers.random_tree(rng, n).adjacency, 0)[:2])


def test_layers_satisfy_the_cayley_orbit_identity():
    # each free tree T has n!/|Aut(T)| labelings, and there are n^(n-2)
    # labeled trees in all, so a missing or repeated class breaks the sum;
    # weighting each carried W by the same count gives the labeled trees'
    # Wiener sum, which a wrong W breaks; summed per degree multiset, read
    # from the attachment bytes, it gives Moon's count of labeled trees with
    # those degrees, which wrong attachment bytes break
    for n in range(1, 17):
        labelings, wiener, by_degrees = helpers.labelings(n, _layer(n))
        assert labelings == (n ** (n - 2) if n > 1 else 1)
        assert wiener == helpers.labeled_wiener_sum(n)
        assert by_degrees == helpers.labeled_trees_by_degrees(n)


def test_the_degree_identity_catches_attachment_bytes_the_cayley_sum_misses():
    # one order-13 entry takes the attachment bytes of a tree with as many
    # automorphisms but other degrees: the code, |Aut| and W it carries are
    # unchanged, so only the per-degree sums see it
    entries = list(_layer(13))
    first = entries[0]
    i = next(
        i
        for i, e in enumerate(entries)
        if helpers.automorphism_count(e.code) == helpers.automorphism_count(first.code)
        and helpers.degree_multiset(13, e.attach) != helpers.degree_multiset(13, first.attach)
    )
    entries[0] = first._replace(attach=entries[i].attach)
    labelings, wiener, by_degrees = helpers.labelings(13, entries)
    assert labelings == 13**11 and wiener == helpers.labeled_wiener_sum(13)
    assert by_degrees != helpers.labeled_trees_by_degrees(13)


def test_automorphism_count_small_trees():
    star = kt.canonical_code(kt.tree_from_graph(helpers.star_graph(5)))
    assert helpers.automorphism_count(star) == 24
    path = kt.canonical_code(kt.tree_from_graph(helpers.path_graph(6)))
    assert helpers.automorphism_count(path) == 2
    double_star = kt.canonical_code(helpers.load_tree("double_star_1_3"))
    assert helpers.automorphism_count(double_star) == 6
    assert helpers.automorphism_count(b"()") == 1


def test_enumerate_members_are_valid_and_sorted():
    for n in range(1, 9):
        fam = kt.enumerate_trees(n)
        codes = fam.codes
        assert len(set(codes)) == len(codes)
        assert list(codes) == sorted(codes)
        for t in helpers.members(fam):
            assert t.n == n and t.m == n - 1


def test_enumerate_respects_cap():
    with pytest.raises(ResourceLimitError):
        kt.enumerate_trees(17)
    with pytest.raises(ResourceLimitError):
        kt.enumerate_trees(7, cap=6)
    with pytest.raises(ValueError):
        kt.enumerate_trees(0)


def test_enumerate_refuses_orders_above_the_hard_ceiling(monkeypatch):
    def forbidden(n):
        raise AssertionError("_layer called")

    monkeypatch.setattr(enumeration, "_layer", forbidden)
    top = enumeration.MAX_ORDER_HARD
    for cap in (top + 1, 25, 10**6):
        with pytest.raises(ResourceLimitError, match="hard ceiling"):
            kt.enumerate_trees(top + 1, cap=cap)
    with pytest.raises(ResourceLimitError):
        kt.family(top + 1, 4, cap=top + 1)


def _center_code_by_recursion(t):
    """Canonical code from the recursive `helpers.rooted_code` at the
    centers `Tree.center` reads off the eccentricities, not the center
    `_center_rooting` finds."""
    if len(t.center) == 1:
        (c,) = t.center
        return helpers.rooted_code(t.adjacency, c)
    a, b = sorted(t.center)
    cut = [[u for u in nbrs if {v, u} != {a, b}] for v, nbrs in enumerate(t.adjacency)]
    half_a, half_b = helpers.rooted_code(cut, a), helpers.rooted_code(cut, b)
    return min(half_a + half_b, half_b + half_a)


def test_canonical_code_matches_recursive_center_code():
    # the generator, canonical_code, the decode oracle and
    # layer_by_full_recode share one center rooting; this oracle roots by
    # eccentricity and codes by recursion instead
    rng = random.Random(1111)
    trees = [t for n in range(1, 13) for t in helpers.members(kt.enumerate_trees(n))]
    trees += [helpers.random_tree(rng, rng.randrange(13, 61)) for _ in range(200)]
    centers = set()
    for t in trees:
        assert kt.canonical_code(t) == _center_code_by_recursion(t)
        centers.add(len(t.center))
    assert centers == {1, 2}
    # the rooting fed as the generator feeds it, from every entry's
    # attachment bytes, and as canonical_code does, from a BFS, here at a
    # random root: its centers are Tree.center's, its code the recursion's
    rootings = [
        (kt.tree_from_edges(n, e.edges), ([-1, *e.attach], range(n)))
        for n in range(1, 13)
        for e in _layer(n)
    ]
    for _ in range(200):
        t = helpers.random_tree(rng, rng.randrange(13, 61))
        rootings.append((t, rooted_traversal(t.adjacency, rng.randrange(t.n))[:2]))
    centers.clear()
    for t, (parent, order) in rootings:
        new_parent, new_order, code, _, _ = _center_rooting(parent, order)
        heads = new_order[: 1 + (new_parent[new_order[0]] >= 0)]
        assert sorted(heads) == sorted(t.center)
        if len(heads) == 1:
            got = code[heads[0]]
        else:
            got = min(code[heads[0]] + code[heads[1]], code[heads[1]] + code[heads[0]])
        assert got == _center_code_by_recursion(t)
        centers.add(len(heads))
    assert centers == {1, 2}


def test_center_rooting_checks_the_code_bytes_from_the_center(monkeypatch):
    # a center rooting holds 2 * (n + D(center)) bytes of subtree codes,
    # whatever rooting it starts from: 38 for the path of order 7, whose
    # sizes from the center are 7, 3, 3, 2, 2, 1 and 1
    path = kt.tree_from_graph(helpers.path_graph(7))
    monkeypatch.setattr(enumeration, "MAX_CODE_BYTES", 38)
    for root in range(7):
        assert _code_from_rooting(*path.rooted(root)) == b"(((()))((())))"
    monkeypatch.setattr(enumeration, "MAX_CODE_BYTES", 37)
    for root in range(7):
        with pytest.raises(ResourceLimitError, match="38 bytes"):
            _code_from_rooting(*path.rooted(root))


def test_canonical_code_refuses_a_long_path_before_joining_codes():
    # the 100,000-vertex path would hold about 5 GB of subtree codes; the
    # star of the same order holds 4 * 10^5 bytes and codes
    n = 100_000
    path = kt.tree_from_edges(n, [(v, v + 1) for v in range(n - 1)])
    with pytest.raises(ResourceLimitError, match="canonical code"):
        kt.canonical_code(path)
    star = kt.tree_from_edges(n, [(0, v) for v in range(1, n)])
    assert kt.canonical_code(star) == b"(" + b"()" * (n - 1) + b")"


def test_canonical_code_relabel_invariant_p4():
    a = kt.tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = kt.tree_from_edges(4, [(2, 0), (0, 3), (3, 1)])  # path 2-0-3-1
    assert kt.canonical_code(a) == kt.canonical_code(b)


def test_canonical_code_distinguishes_p4_star():
    p4 = kt.tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    s4 = kt.tree_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert kt.canonical_code(p4) != kt.canonical_code(s4)


def test_canonical_code_frozen_bytes():
    assert kt.canonical_code(kt.tree_from_edges(2, [(0, 1)])) == b"()()"
    assert kt.canonical_code(kt.tree_from_edges(3, [(0, 1), (1, 2)])) == b"(()())"
    assert (
        kt.canonical_code(kt.tree_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        == b"(())(())"
    )
    assert (
        kt.canonical_code(kt.tree_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        == b"(()()())"
    )
    assert kt.canonical_code(kt.tree_from_edges(1, [])) == b"()"


def test_double_stars_not_isomorphic():
    t1 = helpers.load_tree("double_star_1_3")
    t2 = helpers.load_tree("double_star_2_2")
    assert kt.canonical_code(t1) != kt.canonical_code(t2)
    assert not helpers.brute_force_isomorphic(t1, t2)


def test_code_equality_matches_brute_force_isomorphism_n6():
    members = helpers.members(kt.enumerate_trees(6))
    for a, b in itertools.combinations(members, 2):
        assert kt.canonical_code(a) != kt.canonical_code(b)
        assert not helpers.brute_force_isomorphic(a, b)
    rng = random.Random(41)
    for t in members:
        perm = list(range(6))
        rng.shuffle(perm)
        relabeled = kt.tree_from_graph(helpers.relabel_graph(t, perm))
        assert kt.canonical_code(relabeled) == kt.canonical_code(t)
        assert helpers.brute_force_isomorphic(t, relabeled)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_canonical_code_relabel_invariant_random(n, rng):
    t = helpers.random_tree(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = kt.tree_from_graph(helpers.relabel_graph(t, perm))
    assert kt.canonical_code(t) == kt.canonical_code(relabeled)


def test_family_path_and_star():
    for n in range(3, 9):
        paths = kt.family(n, n - 1)
        assert len(paths) == 1
        assert helpers.members(paths)[0].degrees.count(2) == n - 2
        stars = kt.family(n, 2)
        assert len(stars) == 1
        assert max(helpers.members(stars)[0].degrees) == n - 1


def test_family_diameters_partition():
    for n in range(2, 10):
        total = sum(len(kt.family(n, d)) for d in range(1, n))
        assert total == len(kt.enumerate_trees(n))


def test_family_10_4_contains_the_seven_spiders():
    fam_codes = set(kt.family(10, 4).codes)
    spiders = [
        "spider_1_6",
        "spider_2_5",
        "spider_3_4",
        "spider_1_1_4",
        "spider_1_2_3",
        "spider_2_2_2",
        "spider_1_1_1_2",
    ]
    for name in spiders:
        assert kt.canonical_code(helpers.load_tree(name)) in fam_codes


def test_family_rejects_bad_diameter():
    with pytest.raises(ValueError):
        kt.family(5, 0)
    with pytest.raises(ValueError):
        kt.family(5, 5)


def test_family_boundary_order_first_and_d0_only_at_n1():
    single = kt.family(1, 0)
    assert single.diameter == 0
    assert single.codes == kt.enumerate_trees(1).codes == (b"()",)
    for n, d in ((0, 5), (0, 0), (-2, 1)):
        with pytest.raises(InputError, match="^order must be positive$"):
            kt.family(n, d)
    for n, d, message in ((1, 1, "0..0"), (2, 0, "1..1"), (20, 30, "1..19")):
        # the range is checked before the enumeration cap
        with pytest.raises(InputError, match=f"^diameter {d} out of range {message}$"):
            kt.family(n, d)


def test_families_carry_the_codes_of_their_members():
    for n in range(1, 12):
        families = [kt.enumerate_trees(n)]
        for d in range(min(1, n - 1), n):
            fam = kt.family(n, d)
            families += [fam, kt.maximal_elements(fam), kt.theorem_leaf_filter(fam)]
        for fam in families:
            trees = helpers.members(fam)
            assert fam.codes == tuple(kt.canonical_code(t) for t in trees)
            assert [(e.code, e.edges, e.wiener, e.diameter) for e in fam.entries] == [
                (code, t.edges, kt.wiener_edge_cut_route(t), t.diameter)
                for code, t in zip(fam.codes, trees)
            ]


def test_family_filters_on_the_carried_diameter():
    for n in range(1, 13):
        whole = kt.enumerate_trees(n)
        for d in range(min(1, n - 1), n):
            want = tuple(
                code
                for code, t in zip(whole.codes, helpers.members(whole))
                if t.diameter == d
            )
            assert kt.family(n, d).codes == want


def test_enumerate_family_and_where_build_no_tree(monkeypatch):
    built = []
    real = kt.Tree.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(kt.Tree, "__init__", counting)
    monkeypatch.setattr(enumeration, "_layers", {})
    whole = kt.enumerate_trees(13)
    fam = kt.family(13, 6)
    kept = fam.where(lambda e: e.wiener % 3 == 0, 6)
    assert 0 < len(kept) < len(fam) < len(whole)
    assert len(fam.codes) == len(fam) and kept.n == 13 and kept.diameter == 6
    for e in kept.entries:  # reading an entry builds none either
        assert len(e.edges) == 12 and len(e.adjacency()) == 13
    assert built == []


def _assert_decode_shape_matches_naive(seq, n, ids):
    # the shape, expanded, is the naive decode's tree rooted at n - 1
    shape = _decode_shape(seq, n, ids)
    adj = _shape_adjacency(shape, n, tuple(ids))
    naive = [[] for _ in range(n)]
    for u, v in helpers.naive_prufer_decode(seq, n):
        naive[u].append(v)
        naive[v].append(u)
    assert len(adj) == n
    assert helpers.rooted_code(adj, 0) == helpers.rooted_code(naive, n - 1)
    return shape


def test_prufer_decode_matches_naive_exhaustively():
    for n in range(3, 7):
        ids = {}
        for seq in itertools.product(range(n), repeat=n - 2):
            _assert_decode_shape_matches_naive(seq, n, ids)


def test_prufer_decode_matches_naive_random_n9():
    rng = random.Random(13)
    ids = {}
    for _ in range(300):
        seq = tuple(rng.randrange(9) for _ in range(7))
        _assert_decode_shape_matches_naive(seq, 9, ids)


def test_prufer_decode_stars_reach_the_largest_digit():
    # a constant sequence decodes to a star; centred at n - 1, the root has
    # n - 1 leaf children, so its key is the digit n - 1 at the leaf's id 0
    for n in range(3, 10):
        ids = {}
        for v in range(n):
            shape = _assert_decode_shape_matches_naive((v,) * (n - 2), n, ids)
            if v == n - 1:
                assert shape == n - 1 and ids[0] == 1


def _restricted_sequences(n):
    """The oracle's code sequences of order n >= 3: the star's, then each
    0 w 2 with w any n - 4 symbols from 0, 2, 3, ..., n - 2, in order."""
    rest = itertools.product([0, *range(2, n - 1)], repeat=n - 4) if n > 3 else []
    return [(0,) * (n - 2)] + [(0, *w, 2) for w in rest]


def test_oracle_decodes_every_sequence(monkeypatch):
    decoded = []

    def counting(seq, n, ids):
        decoded.append((seq, ids))
        return _decode_shape(seq, n, ids)

    monkeypatch.setattr(enumeration, "_decoded", {})
    monkeypatch.setattr(enumeration, "_decode_shape", counting)
    assert kt.prufer_oracle_count(6) == 6
    # each restricted sequence once, the star's first, all into one ids
    assert [seq for seq, _ in decoded] == _restricted_sequences(6)
    assert len(decoded) == 1 + 4**2 and len({id(ids) for _, ids in decoded}) == 1
    kt.prufer_oracle_count(6)
    assert len(decoded) == 1 + 4**2


def _decoded_codes(n, seqs):
    """The canonical codes of the trees of `seqs`, decoded with one ids."""
    ids = {}
    shapes = {_decode_shape(seq, n, ids) for seq in seqs}
    table = tuple(ids)
    return {_code_from_adjacency(_shape_adjacency(s, n, table)) for s in shapes}


@pytest.mark.parametrize("n", range(3, 9))
def test_restricted_sequences_reach_every_tree(n):
    # the star's sequence and the 0 w 2 sequences miss no tree of the
    # full decode of all n^(n-2) sequences
    full = itertools.product(range(n), repeat=n - 2)
    assert _decoded_codes(n, _restricted_sequences(n)) == _decoded_codes(n, full)


@pytest.mark.parametrize("n", range(4, 9))
def test_only_the_star_sequence_reaches_the_star(n):
    star, *rest = _restricted_sequences(n)
    star_code = kt.canonical_code(kt.tree_from_graph(helpers.star_graph(n)))
    assert _decoded_codes(n, [star]) == {star_code}
    assert _decoded_codes(n, _restricted_sequences(n)) - _decoded_codes(n, rest) == {star_code}


@pytest.mark.parametrize("n", range(4, 10))
def test_longest_path_labelling_encodes_to_0_w_2(n):
    # relabel each non-star tree as the oracle's lemma does: a longest
    # path's ends become 1 and n - 1, their neighbours 0 and 2, the rest
    # 3..n-2 in any order; its sequence is then 0 w 2 with no 1, no n - 1
    non_stars = [e for e in kt.enumerate_trees(n).entries if e.diameter >= 3]
    assert len(non_stars) == FREE_TREE_COUNTS[n] - 1
    for entry in non_stars:
        adj = entry.adjacency()
        da, b = double_sweep(adj)
        path = [b]
        while da[path[-1]]:
            path.append(next(u for u in adj[path[-1]] if da[u] == da[path[-1]] - 1))
        label = {path[-1]: 1, path[-2]: 0, path[1]: 2, b: n - 1}
        others = iter(range(3, n - 1))
        label.update((v, next(others)) for v in range(n) if v not in label)
        edges = [(label[u], label[v]) for u, v in entry.edges]
        seq = helpers.naive_prufer_encode(edges, n)
        assert seq[0] == 0 and seq[-1] == 2 and len(seq) == n - 2
        assert 1 not in seq and n - 1 not in seq
        assert helpers.naive_prufer_decode(seq, n) == {frozenset(e) for e in edges}


def _family_codes(n):
    return set(kt.enumerate_trees(n).codes)


def test_oracle_codes_are_the_family_codes():
    # in a full run, order 9 was already decoded by criterion 10's count
    for n in range(3, 10):
        codes = _oracle_codes(n)
        assert isinstance(codes, frozenset)
        assert codes == _family_codes(n)
        assert _oracle_codes(n) is codes


def test_oracle_shapes_count_rooted_trees(monkeypatch):
    # rooted at the leaf n - 1, the shapes are the planted trees of order n,
    # one per rooted tree of order n - 1, and each is expanded once
    expanded = []

    def counting(shape, n, table):
        expanded.append(shape)
        return _shape_adjacency(shape, n, table)

    monkeypatch.setattr(enumeration, "_decoded", {})
    monkeypatch.setattr(enumeration, "_shape_adjacency", counting)
    for n in range(3, 9):
        expanded.clear()
        assert _oracle_codes(n) == _family_codes(n)
        assert len(expanded) == len(set(expanded)) == ROOTED_TREE_COUNTS[n - 1]


def _run_script(tmp_path, text, *argv):
    script = tmp_path / "oracle.py"
    script.write_text(text)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


# Any usable CPU count: the order-8 decode in a fresh interpreter, with
# every call that starts a process refused, prints the count and whether
# multiprocessing was imported.
_NO_PROCESS_SCRIPT = """\
import os, sys
from kemtree import enumeration

def refuse(*args, **kwargs):
    raise AssertionError("the decode oracle started a process")

os.fork = os.posix_spawn = os.posix_spawnp = refuse
for cpus in (1, 2, 64):
    os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
    os.cpu_count = lambda cpus=cpus: cpus
    enumeration._decoded.clear()
    print(enumeration.prufer_oracle_count(8), "multiprocessing" in sys.modules)
"""


def test_oracle_on_one_usable_cpu_starts_no_process(tmp_path):
    # one usable CPU, or two, or 64: the oracle decodes in this process
    proc = _run_script(tmp_path, _NO_PROCESS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "23 False\n" * 3


def test_oracle_under_spawn_survives_an_unguarded_main_module(tmp_path):
    # a main module that sets the spawn start method and calls the oracle
    # without a __main__ guard: no spawned interpreter runs it again
    script = (
        "import multiprocessing\n"
        "from kemtree import prufer_oracle_count\n"
        'multiprocessing.set_start_method("spawn", force=True)\n'
        "print(prufer_oracle_count(8))\n"
    )
    proc = _run_script(tmp_path, script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "23\n", "")


def test_prufer_oracle_small_counts():
    assert kt.prufer_oracle_count(1) == 1
    assert kt.prufer_oracle_count(2) == 1
    assert kt.prufer_oracle_count(3) == 1
    assert kt.prufer_oracle_count(5) == 3
    for n in range(3, 8):
        assert kt.prufer_oracle_count(n) == len(kt.enumerate_trees(n))


def test_prufer_oracle_order_zero_is_input_error():
    with pytest.raises(InputError, match="^order must be positive$"):
        kt.prufer_oracle_count(0)


def test_prufer_oracle_cap():
    with pytest.raises(ResourceLimitError):
        kt.prufer_oracle_count(11)


def test_enumerate_float_order_is_input_error(monkeypatch):
    monkeypatch.setattr(enumeration, "_layers", {})
    with pytest.raises(InputError):
        kt.enumerate_trees(5.0)
    kt.enumerate_trees(5)
    with pytest.raises(InputError):
        kt.enumerate_trees(5.0)


def test_family_float_order_or_diameter_is_input_error():
    kt.enumerate_trees(6)
    with pytest.raises(InputError):
        kt.family(6.0, 3)
    with pytest.raises(InputError):
        kt.family(6, 3.0)


def test_enumerate_str_cap_is_input_error():
    with pytest.raises(InputError, match="^cap must be an integer, not str$"):
        kt.enumerate_trees(5, "9")
    with pytest.raises(InputError, match="^cap must be an integer, not bool$"):
        kt.family(5, 2, True)


def test_prufer_oracle_bool_order_is_input_error():
    with pytest.raises(InputError):
        kt.prufer_oracle_count(True)


def test_prufer_oracle_str_order_is_input_error():
    with pytest.raises(InputError):
        kt.prufer_oracle_count("8")


def test_census_round_trip():
    fam = kt.enumerate_trees(7)
    for fam_code, t in zip(fam.codes, helpers.members(fam)):
        line = kt.census_line(fam_code, t.edges)
        code, parsed = kt.parse_census_line(line)
        assert code == kt.canonical_code(t)
        assert parsed.edges == t.edges
    single = kt.tree_from_edges(1, [])
    code, parsed = kt.parse_census_line(kt.census_line(b"()", single.edges))
    assert parsed.n == 1 and code == b"()"


def test_census_line_is_plain_edge_formatting_inside_and_outside_its_table():
    # labels up to 17 are read from the table, larger ones formatted
    def plain(code, edges):
        return f"{code.hex()} {' '.join(f'{u}-{v}' for u, v in edges)}".rstrip()

    for n in range(1, 11):
        for e in _layer(n):
            assert kt.census_line(e.code, e.edges) == plain(e.code, e.edges)
    rng = random.Random(18)
    for n in [18, 19, 40]:
        for _ in range(10):
            t = helpers.random_tree(rng, n)
            code = kt.canonical_code(t)
            line = kt.census_line(code, t.edges)
            assert line == plain(code, t.edges)
            assert kt.parse_census_line(line) == (code, t)
    assert kt.census_line(b"()()", ((0, 40),)) == "28292829 0-40"


def test_census_line_reads_a_one_shot_iterable_like_a_list():
    # inside the edge table and past it, where the edges are read a second time
    for edges, line in [
        ([(0, 1), (1, 2)], "2829 0-1 1-2"),
        ([(0, 1), (100, 200)], "2829 0-1 100-200"),
    ]:
        assert kt.census_line(b"()", edges) == kt.census_line(b"()", iter(edges)) == line


def test_entry_lines_are_the_census_lines_of_their_edges():
    for n in range(1, 13):
        for e in kt.enumerate_trees(n).entries:
            assert enumeration.entry_line(e) == kt.census_line(e.code, e.edges)
    # at the ceiling every attachment a_k < k, packed with k, still sorts as (a_k, k)
    rng = random.Random(18)
    n = enumeration.MAX_ORDER_HARD
    for attach in [bytes(n - 1), bytes(range(n - 1)), *(
        bytes(rng.randrange(k) for k in range(1, n)) for _ in range(50)
    )]:
        e = enumeration.TreeEntry(b"()", attach, 0, 0)
        assert enumeration.entry_line(e) == kt.census_line(e.code, e.edges)


def _census_line_with_foreign_code():
    a, b = helpers.members(kt.enumerate_trees(6))[:2]
    return kt.census_line(kt.canonical_code(a), b.edges)


@pytest.mark.parametrize(
    "line",
    [
        "",
        "zz 0-1",
        "2828 01",
        "2828 0-1-2",
        "28282929 0-1 1-2",
        "28 ",
        _census_line_with_foreign_code(),
    ],
)
def test_parse_census_line_rejects_bad_input(line):
    with pytest.raises(ParseError):
        kt.parse_census_line(line)
