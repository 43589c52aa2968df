"""Graph and tree types, and the rooted traversal that tree queries share.

Vertices are dense 0-based integer labels, which keeps every matrix and
array operation O(1)-indexable. A Graph is immutable. A Tree is a Graph
validated connected and acyclic at construction; it computes its
eccentricities, radius, diameter and center on first read. The distance
matrix of a tree, as of any connected graph, is `all_pairs_distances(g)`;
its rows come from `_connected_distances`, the check that names a missing pair.
The traversals take adjacency lists, a Graph's or a family entry's
(`TreeEntry.adjacency`), so a scan need not build a Tree to walk one.
A rooted traversal of a graph with a cycle would never end, so a public
tree-only function takes its argument through `tree_from_graph` first.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import DisconnectedError, InputError, NotATreeError, ParseError
from .errors import ResourceLimitError, check_int, check_type

Edge = tuple[int, int]
DistanceMatrix = tuple[tuple[int, ...], ...]

# Most vertices an edge list may declare or label; checked while parsing,
# before a Graph allocates one adjacency list per vertex.
MAX_VERTICES = 1_000_000


def _normalize(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency lists.

    Each edge is a pair of int labels; edges that are not iterable, an edge
    that is not a pair, or a label that is a bool or not an int raise InputError.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        check_int("vertex count", n)
        if n < 1:
            raise InputError("vertex count must be positive")
        seen: set[Edge] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        try:
            edges = iter(edges)
        except TypeError:
            raise InputError(f"edges must be iterable, not {type(edges).__name__}") from None
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a pair of vertex labels") from None
            # one test for int labels: every surgery rebuild runs this loop
            if not type(u) is type(v) is int:
                check_int("vertex label", u)
                check_int("vertex label", v)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            key = _normalize(u, v)
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n: int = n
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nb)) for nb in adj
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adjacency)

    def degree(self, v: int) -> int:
        _check_labels(self, v)
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        _check_labels(self, u, v)
        return v in self.adjacency[u]

    def __eq__(self, other: object) -> bool:
        # Exact types: a Tree never equals a Graph on the same edges.
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _integer(token: str, lineno: int) -> int:
    # int() alone also reads '+1', '1_0' and non-ASCII digits such as '١'.
    # A leading '-' passes here so that the caller names a negative value.
    digits = token[1:] if token[0] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"non-integer token {token!r}", lineno)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a validated Graph.

    Format: one edge per line as two nonnegative integers "u v", with an
    optional first significant line "n <count>" declaring the vertex count.
    Labels and the count are written in ASCII decimal digits only.
    Lines starting with '#' and blank lines are ignored. Without a header,
    the vertex count is inferred as 1 + the largest label seen. A count, or
    a label's need, over MAX_VERTICES raises ResourceLimitError naming the
    line; text that is not a str raises InputError.
    """
    check_type("edge-list text", text, str)
    declared: int | None = None
    header_allowed = True
    pairs: list[Edge] = []
    seen: set[Edge] = set()
    max_label = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header_allowed and tokens[0] == "n":
            header_allowed = False
            if len(tokens) != 2:
                raise ParseError("header must be 'n <count>'", lineno)
            declared = _integer(tokens[1], lineno)
            if declared < 1:
                raise ParseError("vertex count must be positive", lineno)
            if declared > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {lineno}: vertex count {declared} exceeds {MAX_VERTICES}"
                )
            continue
        header_allowed = False
        if len(tokens) != 2:
            raise ParseError(f"expected two labels, got {len(tokens)}", lineno)
        u, v = _integer(tokens[0], lineno), _integer(tokens[1], lineno)
        if u < 0 or v < 0:
            raise ParseError("labels must be nonnegative", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        top = max(u, v)
        if declared is not None and top >= declared:
            raise ParseError(
                f"label {top} exceeds declared vertex count {declared}", lineno
            )
        if top >= MAX_VERTICES:
            raise ResourceLimitError(
                f"line {lineno}: label {top} needs more than {MAX_VERTICES} vertices"
            )
        key = _normalize(u, v)
        if key in seen:
            raise ParseError(f"duplicate edge {key}", lineno)
        seen.add(key)
        pairs.append((u, v))
        max_label = max(max_label, top)
    n = declared if declared is not None else max_label + 1
    if n < 1:
        raise ParseError("input declares no vertices", None)
    return Graph(n, pairs)


def bfs_distances(adjacency: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop distances from `source` over adjacency lists (a Graph's, or an
    edited copy of them); unreachable vertices are -1."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in adjacency[v]:
            if dist[u] < 0:
                dist[u] = dv + 1
                queue.append(u)
    return dist


def _connected_distances(g: Graph, s: int) -> list[int]:
    """Hop distances from `s` in `g`; DisconnectedError(s, v) names the
    first vertex v, in label order, that the BFS from `s` misses."""
    row = bfs_distances(g.adjacency, s)
    if -1 in row:
        raise DisconnectedError(s, row.index(-1))
    return row


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; raises DisconnectedError naming one missing pair."""
    check_type("graph", g, Graph)
    return tuple(tuple(_connected_distances(g, s)) for s in range(g.n))


def double_sweep(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Distances from one end a of a longest path of a tree, and the other
    end b; every vertex is farthest from a or from b."""
    row = bfs_distances(adjacency, 0)
    da = bfs_distances(adjacency, row.index(max(row)))
    return da, da.index(max(da))


def rooted_traversal(
    adjacency: Sequence[Sequence[int]], root: int
) -> tuple[list[int], list[int], list[int]]:
    """Orient a tree, given by adjacency lists, away from `root` with one BFS.

    Returns (parent, order, size): parent[v] is the neighbour of v towards
    the root (-1 at the root), order lists every parent before its
    children, and size[v] is the vertex count of the subtree below v.
    """
    parent = [-1] * len(adjacency)
    order = [root]
    # `order` grows while read; a tree vertex's only visited neighbour is its parent.
    for v in order:
        pv = parent[v]
        for u in adjacency[v]:
            if u != pv:
                parent[u] = v
                order.append(u)
    size = [1] * len(adjacency)
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
    return parent, order, size


def tree_eccentricities(adjacency: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Every vertex's eccentricity in a tree: its distance to the farther
    end of a longest path, found by `double_sweep`."""
    da, b = double_sweep(adjacency)
    return tuple(map(max, da, bfs_distances(adjacency, b)))


def path_from_root(parent: Sequence[int], v: int) -> tuple[int, ...]:
    """Vertices from the root of `parent` down to v, both included."""
    out = [v]
    while parent[out[-1]] >= 0:
        out.append(parent[out[-1]])
    out.reverse()
    return tuple(out)


class Tree(Graph):
    """A Graph validated connected and acyclic.

    Construction runs Graph's validation, then one BFS. `eccentricities`,
    `radius`, `diameter` and `center` are computed on first read, from a
    `double_sweep` plus one BFS, and kept in their slots. The distance
    matrix is `all_pairs_distances(t)`, as for any Graph.
    """

    __slots__ = ("eccentricities", "radius", "diameter", "center")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        super().__init__(n, edges)
        if self.m >= n:
            raise NotATreeError("cyclic")
        if -1 in bfs_distances(self.adjacency, 0):
            raise NotATreeError("disconnected")

    def __getattr__(self, name: str):
        # Runs only while a slot is empty.
        if name not in Tree.__slots__:
            raise AttributeError(name)
        ecc = tree_eccentricities(self.adjacency)
        self.eccentricities: tuple[int, ...] = ecc
        self.radius: int = min(ecc)
        self.diameter: int = max(ecc)
        self.center: frozenset[int] = frozenset(
            v for v, e in enumerate(ecc) if e == self.radius
        )
        return getattr(self, name)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.degree(v) == 1)

    def center_distance(self, v: int) -> int:
        """Distance from the center set to v, which is ecc(v) - radius in a tree."""
        _check_labels(self, v)
        return self.eccentricities[v] - self.radius

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """The unique u-v path as a vertex sequence, endpoints included."""
        _check_labels(self, u, v)
        return path_from_root(rooted_traversal(self.adjacency, u)[0], v)

    def rooted(self, root: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """BFS orientation from `root`: (parent per vertex, visit order)."""
        _check_labels(self, root)
        parent, order, _ = rooted_traversal(self.adjacency, root)
        return tuple(parent), tuple(order)

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, diameter={self.diameter})"


def tree_from_graph(g: Graph) -> Tree:
    """`g` itself if it is a Tree, else `g` validated as a tree: a
    tree-only query calls this first, so a cyclic or disconnected graph
    raises NotATreeError instead of reaching a rooted traversal, and an
    argument that is not a Graph raises InputError."""
    if isinstance(g, Tree):
        return g
    check_type("graph", g, Graph)
    return Tree(g.n, g.edges)


def _check_labels(g: Graph, *labels: int) -> None:
    """InputError unless `g` is a Graph and each label an int vertex of it."""
    check_type("graph", g, Graph)
    for v in labels:
        check_int("vertex label", v)
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} outside vertex range 0..{g.n - 1}")


def tree_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Tree:
    return Tree(n, edges)


def leaf_center_distances(t: Tree) -> tuple[tuple[int, int], ...]:
    """(leaf, distance to center set) for every degree-1 vertex; needs n >= 2."""
    t = tree_from_graph(t)
    if t.n < 2:
        raise InputError("leaf distances need at least two vertices")
    return tuple((v, t.center_distance(v)) for v in t.leaves)
