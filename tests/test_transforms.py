import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree.errors import InputError, NotABridgeConfigError, PathTooShortError
from kemtree.errors import TheoremViolationError
from kemtree import enumeration, transforms
from kemtree.graphs import double_sweep
from kemtree.transforms import _relocated, _relocations, _zero_delta_candidates

import helpers


def wiener(t):
    return kt.wiener_edge_cut_route(t)


def test_decompose_path_endpoints_of_path5():
    t = kt.tree_from_graph(helpers.path_graph(5))
    pd = kt.decompose_path(t, 0, 4)
    assert pd.path == (0, 1, 2, 3, 4)
    assert pd.sizes == (1, 1, 1, 1, 1)
    assert all(len(c) == 1 for c in pd.components)


def test_decompose_path_fifteen_vertex_sizes():
    # spine 0-1-2-3; two pendants at 0, 1, 2 each; five pendants at 3
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(0, 4), (0, 5), (1, 6), (1, 7), (2, 8), (2, 9)]
    edges += [(3, v) for v in range(10, 15)]
    t = kt.tree_from_edges(15, edges)
    pd = kt.decompose_path(t, 0, 3)
    assert pd.sizes == (3, 3, 3, 6)
    assert pd.d == 3
    # components partition the vertex set and contain their path vertex
    union = set()
    for v, comp in zip(pd.path, pd.components):
        assert v in comp
        union |= comp
    assert union == set(range(15))


def test_decompose_path_caterpillar_interior_sizes():
    # spine 0-1-2-3-4 with 2 legs at 1, 3 legs at 2, 1 leg at 3
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    edges += [(1, 5), (1, 6), (2, 7), (2, 8), (2, 9), (3, 10)]
    t = kt.tree_from_edges(11, edges)
    pd = kt.decompose_path(t, 0, 4)
    assert pd.sizes == (1, 3, 4, 2, 1)


def test_decompose_path_rejects_equal_endpoints():
    t = kt.tree_from_graph(helpers.path_graph(4))
    with pytest.raises(ValueError):
        kt.decompose_path(t, 2, 2)


def test_op1_rejects_short_path():
    t = kt.tree_from_graph(helpers.path_graph(4))
    with pytest.raises(PathTooShortError):
        kt.apply_op1(t, 0, 1)
    with pytest.raises(PathTooShortError):
        kt.op1_delta_formula(kt.decompose_path(t, 0, 1))


def test_op1_vanishing_case_d2():
    # path 0-1-2 with pendant 3 at 0 and pendant 4 at 1: sizes (2, 2, 1)
    t = kt.tree_from_edges(5, [(0, 1), (1, 2), (0, 3), (1, 4)])
    pd = kt.decompose_path(t, 0, 2)
    assert pd.sizes == (2, 2, 1)
    assert kt.op1_delta_formula(pd) == 0
    t2 = kt.apply_op1(t, 0, 2)
    assert wiener(t2) == wiener(t)


def test_op1_mates15_pair():
    ma = helpers.load_tree("mates15_a")
    mb = helpers.load_tree("mates15_b")
    pd = kt.decompose_path(ma, 0, 3)
    assert pd.sizes == (4, 4, 4, 3)
    assert kt.op1_delta_formula(pd) == 0
    result = kt.apply_op1(ma, 0, 3)
    assert kt.canonical_code(result) == kt.canonical_code(mb)
    assert wiener(ma) == wiener(mb) == wiener(result)


def test_op1_formula_matches_recomputation_random():
    rng = random.Random(404)
    checked = 0
    while checked < 120:
        n = rng.randrange(8, 15)
        t = helpers.random_tree(rng, n)
        i1, i2 = rng.sample(range(n), 2)
        if kt.all_pairs_distances(t)[i1][i2] < 2:
            continue
        pd = kt.decompose_path(t, i1, i2)
        t2 = kt.apply_op1(t, i1, i2)
        assert t2.n == t.n
        assert kt.op1_delta_formula(pd) == wiener(t) - wiener(t2)
        checked += 1


def test_op1_uniform_interior_with_matching_head_reduces():
    # all components except the far end share size t and the far end has
    # size t + m: delta collapses to -(t-1)(d-1)(m+1)
    found = 0
    for n in range(5, 11):
        for t in helpers.members(kt.enumerate_trees(n)):
            dist = kt.all_pairs_distances(t)
            for i1 in range(n):
                for i2 in range(n):
                    if dist[i1][i2] < 2:
                        continue
                    pd = kt.decompose_path(t, i1, i2)
                    sizes = pd.sizes
                    d = pd.d
                    tsize = sizes[0]
                    if any(sizes[j] != tsize for j in range(1, d)):
                        continue
                    m = sizes[d] - sizes[0]
                    expected = -(tsize - 1) * (d - 1) * (m + 1)
                    assert kt.op1_delta_formula(pd) == expected
                    # the longer displayed form agrees on the same instances
                    displayed = (
                        d
                        + (5 - 3 * d) * tsize
                        + 2 * (d - 2) * sizes[0]
                        - 1
                        - (tsize - 1) * (d - 1) * m
                    )
                    assert displayed == expected
                    found += 1
    assert found > 50


def test_op1_uniform_t1_gives_isomorphic_trees():
    for n in range(4, 9):
        for t in helpers.members(kt.enumerate_trees(n)):
            dist = kt.all_pairs_distances(t)
            for i1 in range(n):
                for i2 in range(n):
                    if dist[i1][i2] < 2:
                        continue
                    pd = kt.decompose_path(t, i1, i2)
                    sizes = pd.sizes
                    if any(sizes[j] != 1 for j in range(0, pd.d)):
                        continue
                    t2 = kt.apply_op1(t, i1, i2)
                    assert kt.canonical_code(t2) == kt.canonical_code(t)


def test_op1_balanced_shape_yields_isomorphic_pair():
    # interior components uniform, far end one smaller than the near end,
    # near end = path vertex plus a branch equal to the far component
    t = kt.tree_from_edges(
        7, [(3, 4), (4, 0), (0, 1), (1, 5), (1, 2), (2, 6)]
    )
    pd = kt.decompose_path(t, 0, 2)
    assert pd.sizes == (3, 2, 2)
    assert kt.op1_delta_formula(pd) == 0
    t2 = kt.apply_op1(t, 0, 2)
    assert kt.canonical_code(t2) == kt.canonical_code(t)


def test_generate_mates_smallest_order_is_7():
    for n in range(4, 7):
        assert kt.generate_mates_op1(kt.enumerate_trees(n)) == ()
    mates = kt.generate_mates_op1(kt.enumerate_trees(7))
    assert {p.order for p in mates} == {7}
    assert len(mates) == 1
    pair = mates[0]
    assert pair.wiener == 46
    assert pair.code_a != pair.code_b
    tree_a = kt.tree_from_edges(pair.order, pair.edges_a)
    tree_b = kt.tree_from_edges(pair.order, pair.edges_b)
    assert (kt.canonical_code(tree_a), kt.canonical_code(tree_b)) == (pair.code_a, pair.code_b)
    assert not helpers.brute_force_isomorphic(tree_a, tree_b)


def test_generate_mates_pairs_are_exact_mates_up_to_10():
    mates = [p for n in range(4, 11) for p in kt.generate_mates_op1(kt.enumerate_trees(n))]
    assert mates
    seen = set()
    for pair in mates:
        assert pair.code_a < pair.code_b
        key = (pair.code_a, pair.code_b)
        assert key not in seen
        seen.add(key)
        tree_a = kt.tree_from_edges(pair.order, pair.edges_a)
        tree_b = kt.tree_from_edges(pair.order, pair.edges_b)
        assert (kt.canonical_code(tree_a), kt.canonical_code(tree_b)) == key
        assert tree_a.n == tree_b.n == pair.order
        assert wiener(tree_a) == wiener(tree_b) == pair.wiener
        ka = kt.kemeny_forest_route(tree_a)
        kb = kt.kemeny_forest_route(tree_b)
        assert ka == kb == kt.kemeny_from_wiener(pair.order, pair.wiener)


def test_op2_apply_and_errors():
    t = kt.tree_from_graph(helpers.path_graph(5))
    moved = kt.apply_op2(t, 4, 3, 0)  # move leaf 4 from 3 to 0
    assert moved.has_edge(0, 4)
    assert not moved.has_edge(3, 4)
    with pytest.raises(ValueError):
        kt.apply_op2(t, 4, 2, 0)  # no edge {2, 4}
    with pytest.raises(ValueError):
        kt.apply_op2(t, 4, 3, 3)  # target equals source
    # relocating the 0-1-2 side of edge {2,3}: vertex 1 sits inside it
    with pytest.raises(NotABridgeConfigError):
        kt.apply_op2(t, 2, 3, 1)


def test_op2_symmetric_target_gives_zero_delta():
    # host path 0-1-2 is symmetric about 1; branch hangs at 0, moves to 2
    t = kt.tree_from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    assert kt.op2_delta_formula(t, 3, 0, 2) == 0
    moved = kt.apply_op2(t, 3, 0, 2)
    assert wiener(moved) == wiener(t)
    assert kt.canonical_code(moved) == kt.canonical_code(t)


def test_op2_adjacent_sign_rule_exhaustive():
    # every relocation's delta is exact; for adjacent endpoints the Wiener
    # index rises exactly when the far host component is bigger than the
    # near one
    for n in range(4, 10):
        for t in helpers.members(kt.enumerate_trees(n)):
            dist = kt.all_pairs_distances(t)
            for i1, b_root, i2, delta in _relocations(t.adjacency):
                moved = kt.apply_op2(t, b_root, i1, i2)
                assert delta == kt.op2_delta_formula(t, b_root, i1, i2)
                assert delta == wiener(t) - wiener(moved)
                if dist[i1][i2] != 1:
                    continue
                blocked_path = {frozenset((i1, i2)), frozenset((i1, b_root))}
                c0 = helpers._component_of(t.adjacency, i1, blocked_path)
                c1 = helpers._component_of(t.adjacency, i2, blocked_path)
                assert (wiener(t) > wiener(moved)) == (len(c0) < len(c1))


def test_relocations_cover_every_branch_and_target():
    for n in range(2, 9):
        for t in helpers.members(kt.enumerate_trees(n)):
            expected = []
            for i1 in range(n):
                for b_root in t.adjacency[i1]:
                    branch = helpers._component_of(
                        t.adjacency, b_root, {frozenset((i1, b_root))}
                    )
                    expected += [
                        (i1, b_root, i2)
                        for i2 in range(n)
                        if i2 != i1 and i2 not in branch
                    ]
            assert [m[:3] for m in _relocations(t.adjacency)] == expected


def test_relocated_leaves_list_rows_untouched():
    # family scans pass adjacency lists with list rows; the edit must copy
    # every row it changes rather than extend the caller's row in place
    for n in range(2, 9):
        for e in enumeration._layer(n):
            adj = e.adjacency()
            saved = copy.deepcopy(adj)
            for i1, b_root, i2, _ in _relocations(adj):
                _relocated(adj, b_root, i1, i2)
                assert adj == saved


def test_op2_formula_matches_recomputation_random():
    rng = random.Random(505)
    checked = 0
    while checked < 120:
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
        assert delta == wiener(t) - wiener(moved)
        checked += 1


def test_covers_between_spiders():
    lower = helpers.load_tree("spider_1_6")
    upper = helpers.load_tree("spider_2_5")
    witness = kt.covers(lower, upper)
    assert witness is not None
    assert witness.wiener_lower == 100 and witness.wiener_upper == 108
    assert witness.lower == kt.canonical_code(lower)
    assert witness.upper == kt.canonical_code(upper)
    assert witness.i1 != witness.i2
    assert witness.host_vertices | witness.branch_vertices == set(range(10))
    assert not witness.host_vertices & witness.branch_vertices
    rebuilt = kt.apply_op2(upper, witness.attachment, witness.i1, witness.i2)
    assert kt.canonical_code(rebuilt) == kt.canonical_code(lower)


def test_covers_negative_cases():
    lower = helpers.load_tree("spider_1_6")
    upper = helpers.load_tree("spider_2_5")
    assert kt.covers(upper, lower) is None  # wrong Wiener direction
    assert kt.covers(lower, lower) is None  # strict inequality required
    path6 = kt.tree_from_graph(helpers.path_graph(6))
    star6 = kt.tree_from_graph(helpers.star_graph(6))
    assert kt.covers(star6, path6) is None  # diameters differ
    with pytest.raises(ValueError):
        kt.covers(path6, kt.tree_from_graph(helpers.path_graph(5)))


def test_covers_found_inside_family_10_4():
    trees = helpers.members(kt.family(10, 4))
    cover_count = 0
    for lower in trees:
        for upper in trees:
            if lower is upper:
                continue
            witness = kt.covers(lower, upper)
            if witness is not None:
                cover_count += 1
                assert witness.wiener_lower < witness.wiener_upper
    assert cover_count > 0


def _relocation_codes_brute(t):
    """Canonical codes of every branch relocation of t, each rebuilt with
    apply_op2; branches and targets come from t's edges, not _relocations."""
    codes = set()
    for u, v in t.edges:
        for i1, b_root in ((u, v), (v, u)):
            branch = kt.decompose_path(t, i1, b_root).components[1]
            for i2 in range(t.n):
                if i2 != i1 and i2 not in branch:
                    codes.add(kt.canonical_code(kt.apply_op2(t, b_root, i1, i2)))
    return codes


def test_covers_matches_brute_force_over_families_of_order_9():
    found = 0
    for d in range(1, 9):
        fam = kt.family(9, d)
        pairs = list(zip(fam.codes, helpers.members(fam)))
        reach = [_relocation_codes_brute(t) for _, t in pairs]
        for code_lo, lower in pairs:
            for (code_up, upper), codes in zip(pairs, reach):
                expected = wiener(lower) < wiener(upper) and code_lo in codes
                witness = kt.covers(lower, upper)
                assert (witness is not None) == expected
                if witness is not None:
                    moved = kt.apply_op2(
                        upper, witness.attachment, witness.i1, witness.i2
                    )
                    assert kt.canonical_code(moved) == code_lo == witness.lower
                    assert witness.upper == code_up
                    found += 1
    assert found > 0


def test_covers_rebuilds_only_the_witness(monkeypatch):
    calls = 0
    real = transforms.apply_op2

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(transforms, "apply_op2", counting)
    trees = helpers.members(kt.family(12, 5))
    witnesses = sum(
        kt.covers(lower, upper) is not None for lower in trees for upper in trees
    )
    assert calls == witnesses == 756


def test_covers_rebuild_disagreeing_with_the_screen_raises(monkeypatch):
    monkeypatch.setattr(transforms, "apply_op2", lambda t, b_root, i1, i2: t)
    lower = helpers.load_tree("spider_1_6")
    upper = helpers.load_tree("spider_2_5")
    with pytest.raises(TheoremViolationError, match="cover screen and rebuild"):
        kt.covers(lower, upper)


def test_maximal_family_10_4():
    fam = kt.family(10, 4)
    maxi = kt.maximal_elements(fam)
    expected = {
        kt.canonical_code(helpers.load_tree("spider_3_4")),
        kt.canonical_code(helpers.load_tree("spider_2_2_2")),
        kt.canonical_code(helpers.load_tree("spider_1_1_1_2")),
    }
    assert set(maxi.codes) == expected
    assert sorted(wiener(t) for t in helpers.members(maxi)) == [112, 114, 117]


def test_maximal_elements_match_brute_force_oracle_up_to_9():
    for n in range(2, 10):
        for d in range(1, n):
            fam = kt.family(n, d)
            expected = tuple(
                kt.canonical_code(t) for t in helpers.maximal_members_brute(fam)
            )
            assert kt.maximal_elements(fam).codes == expected


def test_maximal_scan_rebuild_disagreeing_with_the_sweep_raises(monkeypatch):
    # a rebuild of another diameter: only the rebuild check sees it
    def wrong_diameter(t, b_root, i1, i2):
        return kt.tree_from_graph(helpers.path_graph(t.n))

    monkeypatch.setattr(transforms, "apply_op2", wrong_diameter)
    with pytest.raises(TheoremViolationError, match="diameter screen and rebuild disagree"):
        kt.maximal_elements(kt.family(8, 4))


def test_maximal_scan_rebuild_catches_a_screen_that_claims_every_diameter(monkeypatch):
    # a screen that keeps d on every move passes W-increasing moves that
    # change the diameter; only the rebuild check sees it
    def claims_d(adj, i1, *rooting):
        return lambda b_root, i2: 4

    monkeypatch.setattr(transforms, "_relocation_diameters", claims_d)
    with pytest.raises(TheoremViolationError, match="diameter screen and rebuild disagree"):
        kt.maximal_elements(kt.family(10, 4))


def _sweep_diameter(adj, b_root, i1, i2):
    da, far = double_sweep(_relocated(adj, b_root, i1, i2))
    return da[far]


def _check_relocation_diameters(adj):
    checked = 0
    for i1 in range(len(adj)):
        rooting, moves = transforms._source(adj, i1)
        diameter = transforms._relocation_diameters(adj, i1, *rooting)
        for b_root, i2, _ in moves:
            assert diameter(b_root, i2) == _sweep_diameter(adj, b_root, i1, i2)
            checked += 1
    return checked


def test_relocation_diameters_match_the_sweep_up_to_11():
    checked = 0
    for n in range(1, 12):
        for e in enumeration._layer(n):
            checked += _check_relocation_diameters(e.adjacency())
    assert checked == 32880


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.randoms(use_true_random=False))
def test_relocation_diameters_match_the_sweep_on_random_labelled_trees(n, rng):
    t = helpers.random_tree(rng, n)
    assert _check_relocation_diameters(t.adjacency) == len(list(_relocations(t.adjacency)))


def test_maximal_scan_rebuilds_only_the_rejecting_move(monkeypatch):
    calls = {"apply_op2": 0, "op2_delta_formula": 0}
    for name in calls:
        real = getattr(transforms, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(transforms, name, counting)
    fam = kt.family(10, 4)
    maxi = kt.maximal_elements(fam)
    assert calls == {"apply_op2": len(fam) - len(maxi), "op2_delta_formula": 0}


def test_mate_scan_roots_each_tree_once_and_rebuilds_only_new_pairs(monkeypatch):
    calls = {"apply_op1": 0, "rooted_traversal": 0}
    for name in calls:
        real = getattr(transforms, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(transforms, name, counting)
    mates = kt.generate_mates_op1(kt.enumerate_trees(12))
    assert calls == {"apply_op1": len(mates), "rooted_traversal": len(kt.enumerate_trees(12))}


def test_mate_pairs_hold_edge_tuples_and_one_side_is_its_source_entry():
    fam = kt.enumerate_trees(12)
    entries = {e.code: e for e in fam.entries}
    mates = kt.generate_mates_op1(fam)
    assert mates
    for pair in mates:
        assert not any(isinstance(field, kt.Graph) for field in pair)
        sides = [(pair.code_a, pair.edges_a), (pair.code_b, pair.edges_b)]
        assert all(type(u) is type(v) is int for _, edges in sides for u, v in edges)
        sources = [(code, edges) for code, edges in sides if entries[code].edges == edges]
        assert sources
        for code, edges in sources:
            assert kt.census_line(code, edges) == enumeration.entry_line(entries[code])


def test_mate_scan_takes_each_source_wiener_index_from_its_family(monkeypatch):
    measured = []
    real = transforms.wiener_edge_cut_route

    def counting(t):
        measured.append(t)
        return real(t)

    monkeypatch.setattr(transforms, "wiener_edge_cut_route", counting)
    mates = kt.generate_mates_op1(kt.enumerate_trees(12))
    # only each rebuilt mate is measured, against its source's carried W
    assert len(measured) == len(mates) > 0


def test_mate_scan_reads_only_the_family_it_is_given(monkeypatch):
    fam = kt.enumerate_trees(12)
    full = {(p.code_a, p.code_b) for p in kt.generate_mates_op1(fam)}

    def no_layer(n):
        raise AssertionError(f"the scan enumerated order {n}")

    monkeypatch.setattr(enumeration, "_layer", no_layer)
    with pytest.raises(AssertionError):
        kt.enumerate_trees(12)
    part = fam.where(lambda e: e.wiener % 3 == 0, None)
    assert 0 < len(part) < len(fam)
    codes = set(part.codes)
    mates = kt.generate_mates_op1(part)
    assert mates
    for pair in mates:
        assert pair.order == 12
        assert pair.code_a in codes or pair.code_b in codes
        assert (pair.code_a, pair.code_b) in full


def test_mate_scan_checks_rebuilds_against_the_carried_wiener_index(monkeypatch):
    skewed = tuple(e._replace(wiener=e.wiener + 1) for e in enumeration._layer(7))
    monkeypatch.setitem(enumeration._layers, 7, skewed)
    with pytest.raises(TheoremViolationError, match="changed the Wiener index"):
        kt.generate_mates_op1(kt.enumerate_trees(7))


def test_covers_codes_upper_only_for_a_witness(monkeypatch):
    calls = 0
    real = transforms.canonical_code

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(transforms, "canonical_code", counting)
    trees = helpers.members(kt.family(10, 4))
    screened = witnesses = 0
    for lower in trees:
        for upper in trees:
            witnesses += kt.covers(lower, upper) is not None
            screened += wiener(lower) < wiener(upper)
    # lower's code for each pair past the W screen (one family, one
    # diameter), then the rebuild's and upper's for each witness
    assert witnesses > 0
    assert calls == screened + 2 * witnesses


def _zero_delta_by_decomposition(t):
    """The zero-delta candidates of t, with their paths, from one
    decompose_path per ordered endpoint pair."""
    expected = []
    for i1 in range(t.n):
        for i2 in range(t.n):
            if i1 == i2:
                continue
            pd = kt.decompose_path(t, i1, i2)
            sizes, d = pd.sizes, pd.d
            interior = set(sizes[1:d])
            if d >= 2 and len(interior) == 1 and min(interior) >= 2:
                if sizes[d] == sizes[0] - 1:
                    expected.append((i1, i2, pd.path))
    return expected


def test_zero_delta_candidates_match_path_pattern_up_to_10():
    for n in range(1, 11):
        for t in helpers.members(kt.enumerate_trees(n)):
            assert list(_zero_delta_candidates(t.adjacency)) == _zero_delta_by_decomposition(t)


def test_zero_delta_candidates_match_path_pattern_random_11_to_24():
    # beyond the exhaustive range: the pruned walk must lose no candidate
    rng = random.Random(1010)
    found = 0
    for _ in range(200):
        t = helpers.random_tree(rng, rng.randrange(11, 25))
        expected = _zero_delta_by_decomposition(t)
        assert list(_zero_delta_candidates(t.adjacency)) == expected
        found += len(expected)
    assert found > 100


def _long_paths(t):
    """Every ordered endpoint pair of `t` whose path has length >= 2."""
    for i1 in range(t.n):
        for i2 in range(t.n):
            if i1 != i2 and len(path := t.path(i1, i2)) > 2:
                yield i1, i2, path


def test_op1_screen_codes_match_rebuilds_up_to_11():
    checked = 0
    for n in range(1, 12):
        for t in helpers.members(kt.enumerate_trees(n)):
            for i1, i2, path in _zero_delta_candidates(t.adjacency):
                assert path == t.path(i1, i2)
                rebuilt = kt.apply_op1(t, i1, i2)
                assert transforms._op1_code(t.adjacency, path) == kt.canonical_code(rebuilt)
                checked += 1
    assert checked == 735
    # every path, not only zero-delta ones: d = 2 (last == p1), a leaf i1
    checked = 0
    for n in range(1, 10):
        for t in helpers.members(kt.enumerate_trees(n)):
            for i1, i2, path in _long_paths(t):
                rebuilt = kt.apply_op1(t, i1, i2)
                assert transforms._op1_code(t.adjacency, path) == kt.canonical_code(rebuilt)
                checked += 1
    assert checked == 4098


def test_mirror_screen_skips_only_candidates_that_code_to_their_source():
    skipped = 0
    for n in range(4, 13):
        for e in enumeration._layer(n):
            adj, memo = e.adjacency(), {}
            for _, _, path in _zero_delta_candidates(adj):
                if transforms._is_mirror(adj, path, memo):
                    assert transforms._op1_code(adj, path) == e.code
                    skipped += 1
    assert skipped == 1266


def test_mirror_screen_skips_every_candidate_that_codes_to_its_source():
    candidates = selves = 0
    for n in range(7, 14):
        for e in enumeration._layer(n):
            adj, memo = e.adjacency(), {}
            for _, _, path in _zero_delta_candidates(adj):
                candidates += 1
                if transforms._op1_code(adj, path) == e.code:
                    assert transforms._is_mirror(adj, path, memo)
                    selves += 1
    assert (selves, candidates) == (3002, 4282)


def test_op1_is_three_relocations():
    # contract-and-subdivide is i1's other branches moved onto p1, the leaf
    # i1 moved onto the last interior vertex, then i2 moved onto i1
    checked = 0
    for n in range(3, 9):
        for t in helpers.members(kt.enumerate_trees(n)):
            for i1, i2, path in _long_paths(t):
                p1, last = path[1], path[-2]
                steps = [(u, i1, p1) for u in t.adjacency[i1] if u != p1]
                if last != p1:
                    steps.append((i1, p1, last))
                steps.append((i2, last, i1))
                moved, delta = t, 0
                for b_root, a, b in steps:
                    delta += kt.op2_delta_formula(moved, b_root, a, b)
                    moved = kt.apply_op2(moved, b_root, a, b)
                assert moved == kt.apply_op1(t, i1, i2)
                assert delta == kt.op1_delta_formula(kt.decompose_path(t, i1, i2))
                checked += 1
    assert checked == 1466


@pytest.mark.parametrize(
    "name, args, label",
    [
        ("apply_op1", (0, 99), 99),
        ("apply_op1", (-1, 3), -1),
        ("decompose_path", (0, 9), 9),
        ("op2_delta_formula", (1, 0, 9), 9),
        ("apply_op2", (1, 0, -2), -2),
        ("apply_op1", ("0", 3), "0"),
        ("decompose_path", (0, 3.0), 3.0),
        ("apply_op2", (True, 0, 2), True),
    ],
)
def test_surgery_rejects_vertex_labels_out_of_range(name, args, label):
    t = kt.tree_from_graph(helpers.path_graph(5))
    if type(label) is int:
        message = rf"^vertex {label} outside vertex range 0\.\.4$"
    else:
        message = rf"^vertex label must be an integer, not {type(label).__name__}$"
    with pytest.raises(InputError, match=message) as info:
        getattr(kt, name)(t, *args)
    assert type(info.value) is InputError


def test_maximal_path_family_is_trivial():
    for n in range(4, 9):
        fam = kt.family(n, n - 1)
        maxi = kt.maximal_elements(fam)
        assert len(maxi) == 1


def test_maximal_subset_of_filter_8_3():
    fam = kt.family(8, 3)
    maxi = set(kt.maximal_elements(fam).codes)
    surv = set(kt.theorem_leaf_filter(fam).codes)
    assert maxi <= surv


def test_leaf_filter_10_4_has_seven():
    fam = kt.family(10, 4)
    surv = kt.theorem_leaf_filter(fam)
    assert len(surv) == 7
    spider_codes = {
        kt.canonical_code(helpers.load_tree(name))
        for name in [
            "spider_1_6",
            "spider_2_5",
            "spider_3_4",
            "spider_1_1_4",
            "spider_1_2_3",
            "spider_2_2_2",
            "spider_1_1_1_2",
        ]
    }
    assert set(surv.codes) == spider_codes


def test_leaf_filter_star_passes():
    for n in range(3, 8):
        fam = kt.family(n, 2)
        surv = kt.theorem_leaf_filter(fam)
        assert len(surv) == 1


def _leaf_filter_by_center_distance(fam):
    """Codes of the members whose leaves all sit at distance floor(d/2)
    from the center, read off each member's Tree."""
    half = fam.diameter // 2
    return tuple(
        code
        for code, t in zip(fam.codes, helpers.members(fam))
        if all(t.center_distance(v) == half for v in t.leaves)
    )


def test_leaf_filter_matches_center_distance_definition_up_to_12():
    for n in range(1, 13):
        for d in range(min(1, n - 1), n):
            fam = kt.family(n, d)
            assert kt.theorem_leaf_filter(fam).codes == _leaf_filter_by_center_distance(fam)


def test_family_filter_required():
    fam = kt.enumerate_trees(6)
    with pytest.raises(ValueError):
        kt.maximal_elements(fam)
    with pytest.raises(ValueError):
        kt.theorem_leaf_filter(fam)


def test_maximal_subset_of_filter_up_to_9():
    for n in range(5, 10):
        for d in range(2, n):
            fam = kt.family(n, d)
            if not fam.entries:
                continue
            maxi = set(kt.maximal_elements(fam).codes)
            surv = set(kt.theorem_leaf_filter(fam).codes)
            assert maxi <= surv
