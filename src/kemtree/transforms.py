"""Tree surgeries and the diameter-preserving cover order.

Two operations are implemented, both with closed-form Wiener deltas that
depend only on the component sizes along the endpoint path:

* contract-and-subdivide: contract the first path edge, subdivide the
  last one. Keeps the order fixed; the Wiener delta has a closed form in
  the path component sizes. When the interior components share one size
  t >= 2 and the far end is one vertex smaller than the near end, the
  delta is zero, which is where co-Kemeny mate pairs come from.

* branch relocation: detach a branch B from attachment i1 and rejoin it
  at i2. Delta = |B| * sum_j |C_j| (2j - d) over the i1-i2 path components
  of the host.

A tree covers another when some single branch relocation maps one to the
other with equal diameter and strictly larger Wiener index. Maximal
elements of a fixed-(order, diameter) family are those admitting no
Wiener-increasing, diameter-preserving relocation at all; their leaves
all sit at distance floor(d/2) from the center, which is the executable
filter `theorem_leaf_filter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotABridgeConfigError, PathTooShortError
from .graphs import Edge, Tree, path_from_root, rooted_traversal, tree_from_edges
from .enumeration import (
    CanonicalCode,
    TreeFamily,
    canonical_code,
    enumerate_trees,
)
from .invariants import kemeny_wiener_route, wiener_edge_cut_route


@dataclass(frozen=True)
class PathDecomposition:
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


def _hanging_sets(
    parent: list[int], order: list[int], path: tuple[int, ...]
) -> tuple[frozenset[int], ...]:
    """Vertex set hanging at each path vertex, for an orientation rooted at
    path[0]: a vertex off the path belongs where its parent belongs."""
    index = [-1] * len(parent)
    for j, v in enumerate(path):
        index[v] = j
    groups: list[list[int]] = [[] for _ in path]
    for v in order:
        if index[v] < 0:
            index[v] = index[parent[v]]
        groups[index[v]].append(v)
    return tuple(frozenset(g) for g in groups)


def decompose_path(t: Tree, i1: int, i2: int) -> PathDecomposition:
    """Split the tree along its unique i1-i2 path."""
    if i1 == i2:
        raise ValueError("path endpoints must be distinct")
    parent, order, _ = rooted_traversal(t, i1)
    path = path_from_root(parent, i2)
    comps = _hanging_sets(parent, order, path)
    return PathDecomposition(tree=t, path=path, components=comps)


def op1_delta_formula(pd: PathDecomposition) -> int:
    """Closed-form Wiener change of contract-and-subdivide along `pd`.

    Positive means the operation decreases the Wiener index (the returned
    value is W(before) - W(after)).
    """
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
    path = t.path(i1, i2)
    d = len(path) - 1
    if d < 2:
        raise PathTooShortError("contract-and-subdivide needs path length >= 2")
    l0, l1 = path[0], path[1]
    last_a, last_b = path[d - 1], path[d]
    drop = {frozenset((l0, l1)), frozenset((last_a, last_b))}
    edges: list[Edge] = []
    for u, v in t.edges:
        if frozenset((u, v)) in drop:
            continue
        if u == l0:
            u = l1
        elif v == l0:
            v = l1
        edges.append((u, v))
    edges.append((last_a, l0))
    edges.append((l0, last_b))
    return tree_from_edges(t.n, edges)


def _branch_vertices(t: Tree, anchor: int, b_root: int) -> frozenset[int]:
    """Component of b_root after cutting the edge {anchor, b_root}."""
    parent, order, _ = rooted_traversal(t, anchor)
    return _hanging_sets(parent, order, (anchor, b_root))[1]


def _relocation(t: Tree, b_root: int, i1: int, i2: int):
    """Check a branch relocation; return (subtree sizes rooted at i1, i1-i2 path)."""
    if not t.graph.has_edge(i1, b_root):
        raise ValueError(f"no edge between {i1} and {b_root}")
    if i2 == i1:
        raise ValueError("relocation target must differ from the source")
    parent, _, size = rooted_traversal(t, i1)
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


def op2_delta_formula(t: Tree, b_root: int, i1: int, i2: int) -> int:
    """W(t) - W(relocated): |B| * sum_j |C_j| (2j - d) over host components.

    C_j are the i1-i2 path components of the host (branch excluded); the
    path itself never enters the branch. Rooted at i1, the branch is the
    subtree of b_root and C_j (j >= 1) is the subtree of path vertex j
    minus that of path vertex j + 1.
    """
    size, path = _relocation(t, b_root, i1, i2)
    d = len(path) - 1
    acc = -d * (t.n - size[b_root] - size[path[1]])
    for j in range(1, d + 1):
        below = size[path[j + 1]] if j < d else 0
        acc += (size[path[j]] - below) * (2 * j - d)
    return size[b_root] * acc


@dataclass(frozen=True)
class MatePair:
    """Two non-isomorphic same-order trees with identical Wiener index and
    Kemeny's constant, produced by a zero-delta contract-and-subdivide."""

    order: int
    code_a: CanonicalCode
    code_b: CanonicalCode
    tree_a: Tree
    tree_b: Tree
    wiener: int
    kemeny: Fraction
    endpoints: tuple[int, int]
    interior_size: int
    path_length: int


def _zero_delta_candidates(t: Tree):
    """Ordered endpoint pairs whose path has all interior components of one
    size >= 2 and far endpoint component exactly one vertex smaller than
    the near one. Yields (i1, i2, t_size, d)."""
    n = t.n
    for i1 in range(n):
        parent, _, size = rooted_traversal(t, i1)
        for i2 in range(n):
            v = parent[i2]
            if i2 == i1 or v == i1:
                continue
            cd = size[i2]
            prev_child = i2
            t_size = -1
            d = 1
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
                d += 1
            if not ok or t_size < 2:
                continue
            c0 = n - size[prev_child]
            if cd == c0 - 1:
                yield i1, i2, t_size, d


def generate_mates_op1(
    n_max: int, cap: int = 16, orders: tuple[int, ...] | None = None
) -> tuple[MatePair, ...]:
    """All mate pairs reachable by one zero-delta contract-and-subdivide
    from any tree of order <= n_max (or of the given orders only).

    Pairs are deduplicated by their sorted code pair and returned in
    deterministic order. Every emitted pair is checked for exact Wiener
    equality.
    """
    if orders is None:
        orders = tuple(range(4, n_max + 1))
    found: dict[tuple[bytes, bytes], MatePair] = {}
    for n in orders:
        for tree in enumerate_trees(n, cap).members:
            code_a = canonical_code(tree)
            w_a = wiener_edge_cut_route(tree)
            for i1, i2, t_size, d in _zero_delta_candidates(tree):
                mate = apply_op1(tree, i1, i2)
                code_b = canonical_code(mate)
                if code_b == code_a:
                    continue
                key = (min(code_a, code_b), max(code_a, code_b))
                if key in found:
                    continue
                w_b = wiener_edge_cut_route(mate)
                if w_a != w_b:
                    raise AssertionError(
                        "zero-delta candidate changed the Wiener index"
                    )
                found[key] = MatePair(
                    order=n,
                    code_a=key[0],
                    code_b=key[1],
                    tree_a=tree if code_a == key[0] else mate,
                    tree_b=mate if code_a == key[0] else tree,
                    wiener=w_a,
                    kemeny=kemeny_wiener_route(tree),
                    endpoints=(i1, i2),
                    interior_size=t_size,
                    path_length=d,
                )
    return tuple(found[key] for key in sorted(found))


@dataclass(frozen=True)
class CoverWitness:
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


def _moves(t: Tree):
    """Every (i_from, b_root, branch, host) single-branch detachment of t."""
    for u, v in t.edges:
        for i_from, b_root in ((u, v), (v, u)):
            branch = _branch_vertices(t, i_from, b_root)
            host = frozenset(range(t.n)) - branch
            yield i_from, b_root, branch, host


def covers(lower: Tree, upper: Tree) -> CoverWitness | None:
    """Witness that `upper` covers `lower`, or None.

    Decided by exhausting single-branch relocations of `upper` and testing
    the rebuilt tree against `lower` by canonical code.
    """
    if lower.n != upper.n:
        raise ValueError("cover comparison needs equal orders")
    w_lower = wiener_edge_cut_route(lower)
    w_upper = wiener_edge_cut_route(upper)
    if w_lower >= w_upper or lower.diameter != upper.diameter:
        return None
    target = canonical_code(lower)
    upper_code = canonical_code(upper)
    for i1, b_root, branch, host in _moves(upper):
        for i2 in host:
            if i2 == i1:
                continue
            delta = op2_delta_formula(upper, b_root, i1, i2)
            if w_upper - delta != w_lower:
                continue
            candidate = apply_op2(upper, b_root, i1, i2)
            if canonical_code(candidate) == target:
                return CoverWitness(
                    lower=target,
                    upper=upper_code,
                    host_vertices=host,
                    branch_vertices=branch,
                    attachment=b_root,
                    i1=i1,
                    i2=i2,
                    wiener_lower=w_lower,
                    wiener_upper=w_upper,
                )
    return None


def _has_increasing_move(t: Tree, d: int) -> bool:
    """True when some branch relocation raises the Wiener index while
    keeping the diameter at d (i.e. t is covered by something)."""
    for i_from, b_root, branch, host in _moves(t):
        for i_to in host:
            if i_to == i_from:
                continue
            delta = op2_delta_formula(t, b_root, i_from, i_to)
            if delta >= 0:
                continue
            candidate = apply_op2(t, b_root, i_from, i_to)
            if candidate.diameter == d:
                return True
    return False


def maximal_elements(fam: TreeFamily) -> TreeFamily:
    """Members of the family with no cover strictly above them.

    Any diameter-preserving relocation result of a member lands back in
    the same (order, diameter) family, so maximality reduces to the
    absence of a Wiener-increasing, diameter-preserving move.
    """
    if fam.diameter is None:
        raise ValueError("maximality needs a diameter-filtered family")
    d = fam.diameter
    members = tuple(t for t in fam.members if not _has_increasing_move(t, d))
    return TreeFamily(n=fam.n, diameter=d, members=members)


def theorem_leaf_filter(fam: TreeFamily) -> TreeFamily:
    """Members whose leaves all sit at distance floor(d/2) from the center."""
    if fam.diameter is None:
        raise ValueError("leaf filter needs a diameter-filtered family")
    half = fam.diameter // 2
    members = tuple(
        t
        for t in fam.members
        if all(t.center_distance(v) == half for v in t.leaves)
    )
    return TreeFamily(n=fam.n, diameter=fam.diameter, members=members)
