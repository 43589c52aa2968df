"""Shared builders and independent oracles for the test suite.

Every oracle here is deliberately implemented by a different method than
the library routine it checks (brute-force enumeration, cofactor
expansion, Floyd-Warshall, naive decoding), so test agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import kemtree as kt
from kemtree.enumeration import _code_from_adjacency

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_graph(name: str) -> kt.Graph:
    return kt.parse_edge_list((FIXTURES / f"{name}.txt").read_text())


def load_tree(name: str) -> kt.Tree:
    return kt.tree_from_graph(load_graph(name))


def path_graph(n: int) -> kt.Graph:
    return kt.Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> kt.Graph:
    return kt.Graph(n, [(0, i) for i in range(1, n)])


def cycle_graph(n: int) -> kt.Graph:
    return kt.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> kt.Graph:
    return kt.Graph(n, itertools.combinations(range(n), 2))


def petersen_graph() -> kt.Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return kt.Graph(10, edges)


def floyd_warshall(g: kt.Graph) -> list[list[int]]:
    big = g.n + 1
    dist = [[0 if i == j else big for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        dk = dist[k]
        for i in range(g.n):
            dik = dist[i][k]
            if dik >= big:
                continue
            di = dist[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def _component_of(adj, start: int, blocked: set[frozenset[int]]) -> frozenset[int]:
    """Vertices reachable from `start` without crossing a blocked edge."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen and frozenset((v, u)) not in blocked:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


def _wiener_and_diameter_fw(n: int, edges) -> tuple[int, int]:
    dist = floyd_warshall(kt.Graph(n, edges))
    return sum(map(sum, dist)) // 2, max(map(max, dist))


def members(fam: kt.TreeFamily) -> tuple[kt.Tree, ...]:
    """Every member of the family as a Tree, built from its entry's edges."""
    return tuple(kt.tree_from_edges(fam.n, e.edges) for e in fam.entries)


def maximal_members_brute(fam: kt.TreeFamily) -> list[kt.Tree]:
    """Members with no Wiener-increasing, diameter-keeping branch relocation.

    Every relocation is rebuilt as an edge list, and W and the diameter are
    read off a Floyd-Warshall matrix.
    """
    kept = []
    for t in members(fam):
        w, _ = _wiener_and_diameter_fw(t.n, t.edges)
        covered = False
        for u, v in t.edges:
            rest = [e for e in t.edges if e != (u, v)]
            for i1, b_root in ((u, v), (v, u)):
                branch = _component_of(t.adjacency, b_root, {frozenset((u, v))})
                for i2 in range(t.n):
                    if i2 == i1 or i2 in branch:
                        continue
                    w2, d2 = _wiener_and_diameter_fw(t.n, rest + [(i2, b_root)])
                    covered = covered or (w2 > w and d2 == fam.diameter)
        if not covered:
            kept.append(t)
    return kept


def det_cofactor(matrix) -> int:
    """Laplace expansion along the first available row, memoized on the
    set of remaining columns. Independent of Bareiss elimination."""
    k = len(matrix)
    if k == 0:
        return 1
    full = (1 << k) - 1
    memo: dict[int, int] = {}

    def rec(colmask: int) -> int:
        if colmask == 0:
            return 1
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        row = k - bin(colmask).count("1")
        total = 0
        sign = 1
        for col in range(k):
            if colmask & (1 << col):
                entry = matrix[row][col]
                if entry:
                    total += sign * entry * rec(colmask & ~(1 << col))
                sign = -sign
        memo[colmask] = total
        return total

    return rec(full)


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.groups = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.groups -= 1
        return True


def spanning_tree_count_brute(g: kt.Graph) -> int:
    """Count spanning trees by checking every (n-1)-edge subset."""
    count = 0
    for sub in itertools.combinations(g.edges, g.n - 1):
        uf = UnionFind(g.n)
        if all(uf.union(u, v) for u, v in sub):
            count += 1
    return count


def two_forest_count_brute(g: kt.Graph, i: int, j: int) -> int:
    """Count (n-2)-edge acyclic subsets whose two components separate i, j."""
    count = 0
    for sub in itertools.combinations(g.edges, g.n - 2):
        uf = UnionFind(g.n)
        if all(uf.union(u, v) for u, v in sub) and uf.find(i) != uf.find(j):
            count += 1
    return count


def kemeny_forest_determinants(g: kt.Graph):
    """Kemeny's constant as deg^T F deg / (4 m tau), one Bareiss
    determinant per separating 2-forest count and one for tau."""
    deg = g.degrees
    quad = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            quad += 2 * deg[i] * deg[j] * kt.two_forest_count(g, i, j)
    return Fraction(quad, 4 * g.m * kt.spanning_tree_count(g))


def naive_prufer_decode(seq, n: int) -> set[frozenset[int]]:
    """Reference decode: repeatedly join the smallest inactive leaf."""
    remaining = list(seq)
    active = set(range(n))
    edges: set[frozenset[int]] = set()
    for idx, v in enumerate(remaining):
        rest = set(remaining[idx:])
        leaf = min(u for u in active if u not in rest)
        edges.add(frozenset((leaf, v)))
        active.remove(leaf)
    a, b = sorted(active)
    edges.add(frozenset((a, b)))
    return edges


def naive_prufer_encode(edges, n: int) -> tuple[int, ...]:
    """Reference encode of a labeled tree of order n >= 2: remove the
    smallest leaf n - 2 times, recording its neighbour each time."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seq = []
    for _ in range(n - 2):
        leaf = min(v for v, s in nbrs.items() if len(s) == 1)
        (u,) = nbrs.pop(leaf)
        nbrs[u].remove(leaf)
        seq.append(u)
    return tuple(seq)


def random_tree(rng, n: int) -> kt.Tree:
    """Uniform labeled tree from a random decode sequence."""
    if n == 1:
        return kt.tree_from_edges(1, [])
    if n == 2:
        return kt.tree_from_edges(2, [(0, 1)])
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    edges = [tuple(sorted(e)) for e in naive_prufer_decode(seq, n)]
    return kt.tree_from_edges(n, edges)


def random_connected_graph(rng, n: int, extra_p: float = 0.3) -> kt.Graph:
    """Random spanning tree plus independently sampled extra edges."""
    tree = random_tree(rng, n)
    edges = set(tree.edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return kt.Graph(n, sorted(edges))


def random_graph_with_edges(rng, n: int, m: int) -> kt.Graph:
    """Random spanning tree plus m - (n - 1) distinct extra edges."""
    edges = set(random_tree(rng, n).edges)
    rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    return kt.Graph(n, sorted(edges.union(rng.sample(rest, m - n + 1))))


def relabel_graph(g: kt.Graph, perm) -> kt.Graph:
    return kt.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def brute_force_isomorphic(g1: kt.Graph, g2: kt.Graph) -> bool:
    """All-bijections isomorphism test; intended for n <= 7."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    target = {frozenset(e) for e in g2.edges}
    for perm in itertools.permutations(range(g1.n)):
        if {frozenset((perm[u], perm[v])) for u, v in g1.edges} == target:
            return True
    return False


def omega_by_path_enumeration(t: kt.Tree) -> dict[tuple[int, int], int]:
    """Count, for every edge, the vertex pairs whose unique path uses it."""
    counts = {e: 0 for e in t.edges}
    for u in range(t.n):
        for v in range(u + 1, t.n):
            path = t.path(u, v)
            for k in range(len(path) - 1):
                a, b = path[k], path[k + 1]
                counts[(min(a, b), max(a, b))] += 1
    return counts


@functools.cache
def layer_by_full_recode(n: int):
    """Trees of order n as (code, sorted edges) pairs in code order, grown
    by attaching a leaf at every vertex of every order n-1 tree and coding
    each result anew with `_code_from_adjacency`; the first edge list
    found per code is kept. The generator this replaced, kept as the
    oracle for `_layer`."""
    if n == 1:
        return ((b"()", ()),)
    found = {}
    for _, edges in layer_by_full_recode(n - 1):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        adj[n - 1] = [0]
        for v in range(n - 1):
            adj[v].append(n - 1)
            adj[n - 1][0] = v
            code = _code_from_adjacency(adj)
            if code not in found:
                found[code] = tuple(sorted(edges + ((v, n - 1),)))
            adj[v].pop()
    return tuple(sorted(found.items()))


def rooted_code(adj, root: int) -> bytes:
    """Rooted-tree code of the tree given by adjacency lists, rooted at
    `root`: two vertices get equal codes exactly when an automorphism maps
    one to the other."""

    def code(v: int, parent: int) -> bytes:
        parts = sorted(code(u, v) for u in adj[v] if u != parent)
        return b"(" + b"".join(parts) + b")"

    return code(root, -1)


def _balanced_words(code: bytes) -> list[bytes]:
    """Split a concatenation of balanced parenthesis words into its words."""
    words, depth, start = [], 0, 0
    for i, ch in enumerate(code):
        depth += 1 if ch == ord("(") else -1
        if depth == 0:
            words.append(code[start : i + 1])
            start = i + 1
    return words


@functools.cache
def _rooted_aut(code: bytes) -> int:
    """Automorphisms of a rooted tree fixing the root, from its code: over
    each group of mult equal child codes, mult! * aut(child)**mult."""
    total = 1
    for child, mult in Counter(_balanced_words(code[1:-1])).items():
        total *= math.factorial(mult) * _rooted_aut(child) ** mult
    return total


def automorphism_count(code: bytes) -> int:
    """|Aut(T)| read off T's canonical code alone: the center's rooted count,
    or for a bicentral tree the product of the halves' counts, doubled when
    the halves are equal."""
    halves = _balanced_words(code)
    if len(halves) == 1:
        return _rooted_aut(code)
    a, b = halves
    return _rooted_aut(a) * _rooted_aut(b) * (2 if a == b else 1)


def degree_multiset(n: int, attach: bytes) -> tuple[int, ...]:
    """Vertex degrees, largest first, of the tree of order n in which
    vertex k hangs from attach[k-1]."""
    degree = [1] * n
    degree[0] = 0
    for a in attach:
        degree[a] += 1
    return tuple(sorted(degree, reverse=True))


def labelings(n: int, entries) -> tuple[int, int, Counter]:
    """The labelings n!/|Aut T| of a family's trees of order n, read from
    its entries (code, attach, W, diameter) and summed: in all, weighted by
    each carried W, and per degree multiset read from the attachment bytes."""
    total = wiener = 0
    by_degrees: Counter = Counter()
    for code, attach, w, _ in entries:
        count = math.factorial(n) // automorphism_count(code)
        total += count
        wiener += count * w
        by_degrees[degree_multiset(n, attach)] += count
    return total, wiener, by_degrees


def labeled_wiener_sum(n: int) -> Fraction:
    """The sum of W over the labeled trees of order n: two given vertices
    are k edges apart in (n-2)!/(n-k-1)! (k+1) n^(n-k-2) of them (Meir and
    Moon, J. Combin. Theory 8, 1970), and there are C(n, 2) pairs."""
    f = math.factorial
    return math.comb(n, 2) * sum(
        k * Fraction(f(n - 2), f(n - k - 1)) * (k + 1) * Fraction(n) ** (n - k - 2)
        for k in range(1, n)
    )


def labeled_trees_by_degrees(n: int) -> dict[tuple[int, ...], int]:
    """For each degree multiset of a tree of order n, largest first, the
    labeled trees with it. By Pruefer's bijection, vertex i has degree d_i
    in (n-2)!/prod_i (d_i - 1)! labeled trees, and a multiset with c_j
    vertices of degree j falls on n!/prod_j c_j! vertex orders (Moon,
    Counting Labelled Trees, 1970). The excesses d_i - 1 run over the
    partitions of n - 2."""
    if n == 1:
        return {(0,): 1}
    f = math.factorial

    def partitions(total: int, largest: int):
        if total == 0:
            yield ()
        for first in range(min(total, largest), 0, -1):
            for rest in partitions(total - first, first):
                yield (first, *rest)

    counts = {}
    for excess in partitions(n - 2, n - 2):
        degrees = tuple(e + 1 for e in excess) + (1,) * (n - len(excess))
        orders = f(n) // math.prod(f(c) for c in Counter(degrees).values())
        counts[degrees] = orders * f(n - 2) // math.prod(f(e) for e in excess)
    return counts


def rooted_tree_counts(N: int) -> list[int]:
    """r(0..N), the number of rooted trees of each order (OEIS A000081), by
    the Euler-transform recurrence
    r(n+1) = (1/n) sum_{k=1..n} (sum_{d | k} d r(d)) r(n-k+1)."""
    r = [0, 1] + [0] * (N - 1)
    for n in range(1, N):
        total = 0
        for k in range(1, n + 1):
            divisor_sum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += divisor_sum * r[n - k + 1]
        r[n + 1] = total // n
    return r[: N + 1]


def free_tree_counts(N: int) -> list[int]:
    """t(0..N), the number of free trees of each order n >= 1 (t(0) = 0), by
    Otter's (1948) dissimilarity count
    t(n) = r(n) - (sum_{i=1..n-1} r(i) r(n-i) - [n even] r(n/2)) / 2."""
    r = rooted_tree_counts(N)
    t = [0] * (N + 1)
    for n in range(1, N + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, n))
        if n % 2 == 0:
            pairs -= r[n // 2]
        t[n] = r[n] - pairs // 2
    return t
