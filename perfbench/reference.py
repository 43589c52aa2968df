"""Exact reference values for the benchmark's correctness gate.

Nothing here imports kemtree: each value is computed by a route that
shares no code with the one under test.

* Cyclic graphs: Kemeny's constant in its effective-resistance form,
  K = sum_{i<j} d_i d_j r_ij / (2m), with r_ij read off the inverse of the
  Laplacian grounded at vertex 0, inverted by Gauss-Jordan over Fraction.
* Trees: Wiener index and Kemeny's constant from edge split sizes.
* Wiener index of any connected graph: breadth-first search from each vertex.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

Edge = tuple[int, int]


def _degrees(n: int, edges: list[Edge]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def kemeny_resistance(n: int, edges: list[Edge]) -> Fraction:
    """Kemeny's constant of a connected graph, sum d_i d_j r_ij / (2m)."""
    deg = _degrees(n, edges)
    k = n - 1
    # Laplacian with vertex 0 grounded: row/column i-1 stands for vertex i.
    a = [[Fraction(0)] * k for _ in range(k)]
    for i in range(1, n):
        a[i - 1][i - 1] = Fraction(deg[i])
    for u, v in edges:
        if u and v:
            a[u - 1][v - 1] -= 1
            a[v - 1][u - 1] -= 1
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    # The grounded Laplacian of a connected graph is positive definite, so
    # every pivot is nonzero without row exchanges.
    for c in range(k):
        pivot = a[c][c]
        row_a, row_i = a[c], inv[c]
        for j in range(k):
            row_a[j] /= pivot
            row_i[j] /= pivot
        for r in range(k):
            f = a[r][c]
            if r == c or not f:
                continue
            ra, ri = a[r], inv[r]
            for j in range(k):
                ra[j] -= f * row_a[j]
                ri[j] -= f * row_i[j]

    def g(i: int, j: int) -> Fraction:
        return inv[i - 1][j - 1] if i and j else Fraction(0)

    total = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            total += deg[i] * deg[j] * (g(i, i) + g(j, j) - 2 * g(i, j))
    return total / (2 * len(edges))


def wiener_bfs(n: int, edges: list[Edge]) -> int:
    """Sum of hop distances over unordered vertex pairs of a connected graph."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if min(dist) < 0:
            raise ValueError("graph is disconnected")
        total += sum(dist)
    return total // 2


def split_sizes(n: int, edges: list[Edge]) -> dict[Edge, int]:
    """For each tree edge (u < v), the vertex count on one side of it."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    if len(order) != n or len(edges) != n - 1:
        raise ValueError("not a tree")
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return {(min(v, parent[v]), max(v, parent[v])): size[v] for v in order[1:]}


def wiener_tree(n: int, edges: list[Edge]) -> int:
    return sum(s * (n - s) for s in split_sizes(n, edges).values())


def kemeny_tree(n: int, edges: list[Edge]) -> Fraction:
    """Sum over edges of (2 s - 1)(2 (n - s) - 1) / (2 (n - 1))."""
    acc = sum((2 * s - 1) * (2 * (n - s) - 1) for s in split_sizes(n, edges).values())
    return Fraction(acc, 2 * (n - 1))


def exact_str(value: Fraction | int) -> str:
    """The CLI's exact rendering: "p/q", or a plain integer."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
