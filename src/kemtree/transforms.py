"""Tree surgeries and the diameter-preserving cover order.

Two operations are implemented, both with closed-form Wiener deltas that
depend only on the component sizes along the endpoint path:

* contract-and-subdivide: contract the first path edge, subdivide the
  last one. Keeps the order fixed; the Wiener delta has a closed form in
  the path component sizes. When the interior components share one size
  t >= 2 and the far end is one vertex smaller than the near end, the
  delta is zero, which is where co-Kemeny mate pairs come from. The mate
  scan roots each tree once, reads every component size off that rooting,
  and walks from each endpoint only the paths that can still qualify.
  A candidate that reads the same from either end (`_is_mirror`) is
  dropped uncoded; each other one is coded after three branch
  relocations (`_op1_code`), and only a new pair is rebuilt and checked.

* branch relocation: detach a branch B from attachment i1 and rejoin it
  at i2. Only distances between B and the host H = V - B change, so the
  delta is |B| * (D_H(i1) - D_H(i2)), D_H(x) being the total distance
  from x to H; one rooting at i1 gives it for every branch and target.
  The maximality scan reads each move's new diameter off the same
  rooting (`_relocation_diameters`); `covers` codes each move, edited on
  a copy of the adjacency lists by `_relocated`, never a Tree, against
  the lower tree's code. Each rebuilds only the move it reports, as a check.

The scans over a family (the mate scan, maximality and the leaf filter)
take a TreeFamily, which `enumeration` builds (anything else raises
InputError), and read only its TreeEntry
records, on each entry's adjacency lists (`TreeEntry.adjacency`); they
build a Tree only for the source and the result of a move they report,
whose rebuild checks the scan. A mate pair keeps only the two trees' edge
tuples, so the pairs held for sorting hold no Tree.

A tree covers another when some single branch relocation maps one to the
other with equal diameter and strictly larger Wiener index. Maximal
elements of a fixed-(order, diameter) family are those admitting no
Wiener-increasing, diameter-preserving relocation at all; their leaves
all sit at distance floor(d/2) from the center, which is the executable
filter `theorem_leaf_filter`. As the radius is d - floor(d/2), that is
every leaf having eccentricity d.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, NotABridgeConfigError, PathTooShortError
from .errors import TheoremViolationError, check_type
from .graphs import Edge, Tree, path_from_root, rooted_traversal
from .graphs import _check_labels, tree_eccentricities, tree_from_edges, tree_from_graph
from .enumeration import CanonicalCode, TreeFamily, _code_from_adjacency, canonical_code
from .invariants import wiener_edge_cut_route


class PathDecomposition(NamedTuple):
    """The unique i1-i2 path and the components left by deleting its edges.

    components[j] is the vertex set hanging at path vertex j (including
    the path vertex itself); the sets partition the vertex set.
    """

    tree: Tree
    path: tuple[int, ...]
    components: tuple[frozenset[int], ...]

    @property
    def d(self) -> int:
        return len(self.path) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)


def _check_vertices(t: Tree, *labels: int) -> Tree:
    """Check each label is an int vertex of `t`; return `t` as a Tree
    (`tree_from_graph`), so a Graph that is not a tree raises NotATreeError."""
    _check_labels(t, *labels)
    return tree_from_graph(t)


def decompose_path(t: Tree, i1: int, i2: int) -> PathDecomposition:
    """Split the tree along its unique i1-i2 path. Rooted at i1, a vertex
    off the path hangs where its parent hangs."""
    t = _check_vertices(t, i1, i2)
    if i1 == i2:
        raise InputError("path endpoints must be distinct")
    parent, order, _ = rooted_traversal(t.adjacency, i1)
    path = path_from_root(parent, i2)
    index = [-1] * t.n
    for j, v in enumerate(path):
        index[v] = j
    groups: list[list[int]] = [[] for _ in path]
    for v in order:
        if index[v] < 0:
            index[v] = index[parent[v]]
        groups[index[v]].append(v)
    comps = tuple(frozenset(g) for g in groups)
    return PathDecomposition(tree=t, path=path, components=comps)


def op1_delta_formula(pd: PathDecomposition) -> int:
    """Closed-form Wiener change of contract-and-subdivide along `pd`.

    Positive means the operation decreases the Wiener index (the returned
    value is W(before) - W(after)). InputError unless `pd` is a
    PathDecomposition.
    """
    check_type("path decomposition", pd, PathDecomposition)
    if pd.d < 2:
        raise PathTooShortError("contract-and-subdivide needs path length >= 2")
    sizes = pd.sizes
    n = pd.tree.n
    d = pd.d
    c0, cd = sizes[0], sizes[d]
    delta = c0 * (n - c0) - (cd + 1) * (n - cd - 1)
    delta += (d - 2) * (n + 1) - 2 * (d - 2) * c0
    delta -= 2 * sum((d - 1 - i) * sizes[i] for i in range(1, d - 1))
    return delta


def apply_op1(t: Tree, i1: int, i2: int) -> Tree:
    """Contract the first edge of the i1-i2 path and subdivide the last.

    The order is preserved: the contracted endpoint label is recycled as
    the new subdivision vertex.
    """
    t = _check_vertices(t, i1, i2)
    path = t.path(i1, i2)
    d = len(path) - 1
    if d < 2:
        raise PathTooShortError("contract-and-subdivide needs path length >= 2")
    l0, l1, last_a, last_b = path[0], path[1], path[d - 1], path[d]
    drop = {(min(l0, l1), max(l0, l1)), (min(last_a, last_b), max(last_a, last_b))}
    edges: list[Edge] = [
        (l1 if u == l0 else u, l1 if v == l0 else v)
        for u, v in t.edges
        if (u, v) not in drop
    ]
    return tree_from_edges(t.n, edges + [(last_a, l0), (l0, last_b)])


def _relocation(t: Tree, b_root: int, i1: int, i2: int):
    """Check a branch relocation; return (subtree sizes rooted at i1, i1-i2 path)."""
    t = _check_vertices(t, b_root, i1, i2)
    if not t.has_edge(i1, b_root):
        raise InputError(f"no edge between {i1} and {b_root}")
    if i2 == i1:
        raise InputError("relocation target must differ from the source")
    parent, _, size = rooted_traversal(t.adjacency, i1)
    path = path_from_root(parent, i2)
    if path[1] == b_root:
        raise NotABridgeConfigError(
            f"target {i2} lies inside the detached branch"
        )
    return size, path


def apply_op2(t: Tree, b_root: int, i1: int, i2: int) -> Tree:
    """Relocate the branch rooted at b_root from attachment i1 to i2."""
    _relocation(t, b_root, i1, i2)
    cut = (min(i1, b_root), max(i1, b_root))
    edges = [e for e in t.edges if e != cut]
    edges.append((i2, b_root))
    return tree_from_edges(t.n, edges)


def _relocated(adj, b_root: int, i1: int, i2: int) -> list:
    """Adjacency lists `adj` with the branch at b_root moved from i1 to i2,
    never a Tree: the one adjacency edit of every surgery screen. Each
    edited row is a new list, so `adj` is left as it was, whether its rows
    are tuples or lists."""
    adjacency = list(adj)
    adjacency[i1] = [u for u in adj[i1] if u != b_root]
    adjacency[b_root] = [i2 if u == i1 else u for u in adj[b_root]]
    adjacency[i2] = [*adj[i2], b_root]
    return adjacency


def op2_delta_formula(t: Tree, b_root: int, i1: int, i2: int) -> int:
    """W(t) - W(relocated) = |B| * (D_H(i1) - D_H(i2)).

    Rooted at i1, each step from i1 towards i2 into a vertex v lowers D_H
    by 2 size(v) - (n - |B|), and |B| is the subtree size of b_root.
    """
    size, path = _relocation(t, b_root, i1, i2)
    b = size[b_root]
    return b * (2 * sum(size[v] for v in path[1:]) - (len(path) - 1) * (t.n - b))


def _source(adj, i1: int):
    """((parent, order, depth, top), moves) of the tree with adjacency lists
    `adj` rooted at i1: moves yields (b_root, i2, W(before) - W(moved)) for
    each branch at i1 in adjacency order and each target outside it,
    ascending. One top-down pass gives each vertex its depth, the child of
    i1 above it (top), and the subtree sizes summed along its path from i1
    (s), which is all `op2_delta_formula` reads.
    """
    n = len(adj)
    parent, order, size = rooted_traversal(adj, i1)
    depth, top, s = [0] * n, list(range(n)), [0] * n
    for v in order[1:]:
        p = parent[v]
        depth[v], s[v] = depth[p] + 1, s[p] + size[v]
        if p != i1:
            top[v] = top[p]
    moves = (
        (b_root, i2, size[b_root] * (2 * s[i2] - depth[i2] * (n - size[b_root])))
        for b_root in adj[i1]
        for i2 in range(n)
        if i2 != i1 and top[i2] != b_root
    )
    return (parent, order, depth, top), moves


def _relocations(adj):
    """Yield (i1, b_root, i2, W(before) - W(moved)) for every branch
    relocation of the tree with adjacency lists `adj`."""
    for i1 in range(len(adj)):
        for move in _source(adj, i1)[1]:
            yield (i1, *move)


def _relocation_diameters(adj, i1: int, parent, order, depth, top):
    """diameter(b_root, i2), in O(1), once the branch B at b_root moves from
    i1 to i2, from `_source`'s rooting at i1: with H = T - B, it is
    max(diam H, diam B, ecc_H(i2) + 1 + height B). Bottom-up: heights h,
    second child heights + 1 (h2), subtree diameters (sub). Top-down: up[v],
    the reach from v in top[v]'s subtree outside v's. ecc_H(i2) is then the
    largest of h[i2], up[i2] and depth[i2] + the best h[c] + 1 over i1's
    children c other than b_root and top[i2].
    """
    n = len(adj)
    h, h2, sub, up = [0] * n, [0] * n, [0] * n, [0] * n
    for v in reversed(order[1:]):
        p, x = parent[v], h[v] + 1
        sub[v] = max(sub[v], h[v] + h2[v])
        if x > h[p]:
            h[p], h2[p] = x, h[p]
        elif x > h2[p]:
            h2[p] = x
        sub[p] = max(sub[p], sub[v])
    for v in order[1:]:
        p = parent[v]
        if p != i1:
            up[v] = 1 + max(up[p], h2[p] if h[v] + 1 == h[p] else h[p])
    ranked = sorted([(h[c] + 1, c) for c in adj[i1]], reverse=True) + [(0, -1)] * 2
    branches = {}
    for b in adj[i1]:
        first, second = [r for r in ranked if r[1] != b][:2]
        host = max([sub[c] for c in adj[i1] if c != b] + [first[0] + second[0]])
        branches[b] = max(host, sub[b]), h[b] + 1, first, second[0]

    def diameter(b_root: int, i2: int) -> int:
        span, reach, (best, c), other = branches[b_root]
        ecc = max(h[i2], up[i2], depth[i2] + (other if c == top[i2] else best))
        return max(span, ecc + reach)

    return diameter


class MatePair(NamedTuple):
    """Two non-isomorphic same-order trees with identical Wiener index, so
    identical Kemeny's constant `kemeny_from_wiener(order, wiener)`,
    produced by a zero-delta contract-and-subdivide. Each tree is its
    canonical code and its sorted edge tuple, as `Tree.edges` gives it;
    `tree_from_edges(order, edges_a)` rebuilds it."""

    order: int
    code_a: CanonicalCode
    code_b: CanonicalCode
    edges_a: tuple[Edge, ...]
    edges_b: tuple[Edge, ...]
    wiener: int


def _zero_delta_candidates(adjacency):
    """Ordered endpoint pairs, in the tree with these adjacency lists,
    whose path has all interior components of one size >= 2 and far
    endpoint component exactly one vertex smaller than the near one.
    Yields (i1, i2, path), i1-major then i2.

    The tree is rooted once, at vertex 0: the vertex count on v's side of
    an edge u-v is size[v] when parent[v] == u, else n - size[u]. Along a
    path from i1 the component hanging at an interior vertex is its side
    minus the next one's, so the side falls strictly. The interior
    components sum to s1 - want, where s1 = side(i1, p1) and want = n - s1
    - 1 is the far size, and each holds at least 2 vertices, so a walk
    starts only where s1 - want >= 2, that is 2 * s1 >= n + 1: on the one
    neighbour p1 of i1, if any, whose side holds more than half the tree.
    It extends a path only while its interior components share one size
    >= 2 and its side is still at least want; it yields the path where the
    two are equal.
    """
    n = len(adjacency)
    parent, _, size = rooted_traversal(adjacency, 0)
    for i1 in range(n):
        hits = []
        for p1 in adjacency[i1]:
            s1 = size[p1] if parent[p1] == i1 else n - size[i1]
            want = n - s1 - 1
            # (path so far, its side, common interior size or 0 while none)
            stack = [((i1, p1), s1, 0)] if want > 0 and s1 - want >= 2 else []
            while stack:
                path, s, common = stack.pop()
                u, v = path[-2:]
                for w in adjacency[v]:
                    if w == u:
                        continue
                    s_w = size[w] if parent[w] == v else n - size[v]
                    interior = s - s_w
                    if s_w < want or interior < 2 or common not in (0, interior):
                        continue
                    if s_w == want:
                        hits.append((w, path + (w,)))
                    else:
                        stack.append((path + (w,), s_w, interior))
        hits.sort()
        for hit in hits:
            yield (i1, *hit)


def _op1_code(adj, path: tuple[int, ...]) -> CanonicalCode:
    """Canonical code of `apply_op1` along `path`, from adjacency lists
    `adj`, never a Tree, by three `_relocated` moves: i1's other branches
    onto p1, the leaf i1 onto the last interior vertex (unless that is p1),
    then i2's branch onto i1."""
    i1, p1, last, i2 = path[0], path[1], path[-2], path[-1]
    for u in adj[i1]:
        if u != p1:
            adj = _relocated(adj, u, i1, p1)
    if last != p1:
        adj = _relocated(adj, i1, p1, last)
    return _code_from_adjacency(_relocated(adj, i2, last, i1))


def _branch_code(adj, p: int, v: int, memo: dict) -> bytes:
    """Rooted code of v's side of the edge p-v, rooted at v, from adjacency
    lists `adj`, memoised per directed edge (p, v) in `memo`."""
    code = memo.get((p, v))
    if code is None:
        kids = sorted([_branch_code(adj, v, u, memo) for u in adj[v] if u != p])
        code = memo[p, v] = b"(" + b"".join(kids) + b")"
    return code


def _is_mirror(adj, path: tuple[int, ...], memo: dict) -> bool:
    """True when i1 = v0 of `path` = v0..vk has degree 2, the branch S at its
    other neighbour, rooted there, codes as i2's side rooted at i2, and for
    1 <= j < k - j the components at vj and v(k-j), rooted there without
    the path edges, code alike. Along the path the source reads S, i1, C1,
    ..., C(k-1), Ck, and its op1 result S, C1, ..., C(k-1), i1, Ck, which
    is the source reversed, so skipping it loses nothing; a candidate the
    test misses is still coded.
    """
    i1, p1, k = path[0], path[1], len(path) - 1
    if len(adj[i1]) != 2:
        return False
    u = adj[i1][0] + adj[i1][1] - p1
    if _branch_code(adj, i1, u, memo) != _branch_code(adj, path[-2], path[-1], memo):
        return False

    def component(j: int) -> list:
        v, off = path[j], (path[j - 1], path[j + 1])
        return sorted([_branch_code(adj, v, w, memo) for w in adj[v] if w not in off])

    return all(component(j) == component(k - j) for j in range(1, (k + 1) // 2))


def generate_mates_op1(fam: TreeFamily) -> tuple[MatePair, ...]:
    """All mate pairs reachable by one zero-delta contract-and-subdivide
    from a member of `fam`; the scan reads only the family's entries.

    Pairs are deduplicated by their sorted code pair and returned in
    deterministic order. A source's code, edges and Wiener index come
    from its family entry. Its candidates come from one rooting of
    the entry's adjacency lists (`_zero_delta_candidates`). One whose
    result is its source read backwards (`_is_mirror`, on rooted codes
    memoised per directed edge of the tree) is dropped uncoded; each other
    one is screened by `_op1_code` on relocated adjacency lists: a result
    isomorphic to the source, or a pair already found, is dropped unbuilt.
    Only a new pair is rebuilt with `apply_op1`, from the source's Tree,
    built once for its first new pair. Two checks run on the rebuild: its
    Wiener index, taken by the edge-cut route, must equal the source's
    carried one, and its canonical code the screened one. Either mismatch
    raises TheoremViolationError. A pair keeps the two trees' edge tuples,
    not the Trees, so the result holds no Graph.
    """
    check_type("family", fam, TreeFamily)
    n = fam.n
    found: dict[tuple[bytes, bytes], MatePair] = {}
    for entry in fam.entries:
        code_a, _, w_a, _ = entry
        adj, tree, memo = entry.adjacency(), None, {}
        for i1, i2, path in _zero_delta_candidates(adj):
            if _is_mirror(adj, path, memo):
                continue
            code_b = _op1_code(adj, path)
            key = (min(code_a, code_b), max(code_a, code_b))
            if code_b == code_a or key in found:
                continue
            tree = tree or tree_from_edges(n, entry.edges)
            mate = apply_op1(tree, i1, i2)
            if wiener_edge_cut_route(mate) != w_a:
                raise TheoremViolationError(
                    "zero-delta candidate changed the Wiener index"
                )
            if canonical_code(mate) != code_b:
                raise TheoremViolationError(
                    f"op1 screen and rebuild disagree on candidate {i1}->{i2}"
                )
            edges = (tree.edges, mate.edges) if code_a < code_b else (mate.edges, tree.edges)
            found[key] = MatePair(n, *key, *edges, w_a)
    return tuple(found[key] for key in sorted(found))


class CoverWitness(NamedTuple):
    """A single branch relocation mapping `upper` onto `lower`.

    upper = host + branch at i1, lower = host + branch at i2 (up to
    isomorphism), with equal diameters and wiener_lower < wiener_upper.
    """

    lower: CanonicalCode
    upper: CanonicalCode
    host_vertices: frozenset[int]
    branch_vertices: frozenset[int]
    attachment: int
    i1: int
    i2: int
    wiener_lower: int
    wiener_upper: int


def covers(lower: Tree, upper: Tree) -> CoverWitness | None:
    """Witness that `upper` covers `lower`, or None.

    Each relocation of `upper` with the right Wiener delta is coded on
    edited adjacency lists (`_relocated`), never a Tree, and compared with
    `lower`'s code. Only the witness found is rebuilt with `apply_op2`; a
    rebuild whose code differs from the screened one raises
    TheoremViolationError. `upper` is coded only once a witness is found.
    Either argument may be a plain Graph, which is validated as a tree.
    """
    lower, upper = tree_from_graph(lower), tree_from_graph(upper)
    if lower.n != upper.n:
        raise InputError("cover comparison needs equal orders")
    w_lower = wiener_edge_cut_route(lower)
    w_upper = wiener_edge_cut_route(upper)
    if w_lower >= w_upper or lower.diameter != upper.diameter:
        return None
    target = canonical_code(lower)
    for i1, b_root, i2, delta in _relocations(upper.adjacency):
        if w_upper - delta != w_lower:
            continue
        if _code_from_adjacency(_relocated(upper.adjacency, b_root, i1, i2)) == target:
            if canonical_code(apply_op2(upper, b_root, i1, i2)) != target:
                raise TheoremViolationError(
                    f"cover screen and rebuild disagree on relocation {i1}->{i2}"
                )
            branch = decompose_path(upper, i1, b_root).components[1]
            return CoverWitness(
                lower=target,
                upper=canonical_code(upper),
                host_vertices=frozenset(range(upper.n)) - branch,
                branch_vertices=branch,
                attachment=b_root,
                i1=i1,
                i2=i2,
                wiener_lower=w_lower,
                wiener_upper=w_upper,
            )
    return None


def _has_increasing_move(entry, d: int) -> bool:
    """True when some branch relocation of the entry's tree raises the
    Wiener index while keeping the diameter at d (i.e. the tree is covered
    by something).

    Each source i1 is rooted once (`_source`), and for an i1 with a
    Wiener-increasing move `_relocation_diameters` reads every move's new
    diameter off that rooting, never a sweep or a Tree; the move found is
    rebuilt with `apply_op2`, on a Tree built for it, as an independent
    check of the screen.
    """
    adj = entry.adjacency()
    for i1 in range(len(adj)):
        rooting, moves = _source(adj, i1)
        diameter = None
        for b_root, i2, delta in moves:
            if delta >= 0:
                continue
            diameter = diameter or _relocation_diameters(adj, i1, *rooting)
            if diameter(b_root, i2) == d:
                if apply_op2(tree_from_edges(len(adj), entry.edges), b_root, i1, i2).diameter != d:
                    raise TheoremViolationError(
                        f"diameter screen and rebuild disagree on relocation {i1}->{i2}"
                    )
                return True
    return False


def maximal_elements(fam: TreeFamily) -> TreeFamily:
    """Members of the family with no cover strictly above them.

    Any diameter-preserving relocation result of a member lands back in
    the same (order, diameter) family, so maximality reduces to the
    absence of a Wiener-increasing, diameter-preserving move.
    """
    check_type("family", fam, TreeFamily)
    if fam.diameter is None:
        raise InputError("maximality needs a diameter-filtered family")
    d = fam.diameter
    return fam.where(lambda e: not _has_increasing_move(e, d), d)


def theorem_leaf_filter(fam: TreeFamily) -> TreeFamily:
    """Members whose leaves all sit at distance floor(d/2) from the center,
    which is every leaf having eccentricity d, as the radius is
    d - floor(d/2)."""
    check_type("family", fam, TreeFamily)
    if fam.diameter is None:
        raise InputError("leaf filter needs a diameter-filtered family")

    def leaves_at_d(e) -> bool:
        adj = e.adjacency()
        ecc = tree_eccentricities(adj)
        return all(ecc[v] == fam.diameter for v, nb in enumerate(adj) if len(nb) == 1)

    return fam.where(leaves_at_d, fam.diameter)
