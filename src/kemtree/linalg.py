"""Exact integer determinants powering spanning-tree and 2-forest counts.

Everything here is integer arithmetic on Python ints; no value is ever
rounded. Rational results appear only downstream (invariants module).
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph

BigIntMatrix = list[list[int]]


def laplacian(g: Graph) -> BigIntMatrix:
    """L = diag(degrees) - adjacency, as a dense integer matrix."""
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for v in range(n):
        mat[v][v] = g.degree(v)
        for u in g.adjacency[v]:
            mat[v][u] = -1
    return mat


def delete_rows_cols(m: BigIntMatrix, drop: set[int]) -> BigIntMatrix:
    keep = [i for i in range(len(m)) if i not in drop]
    return [[m[i][j] for j in keep] for i in keep]


def det_exact(m: BigIntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate entry stays an integer: the division by the previous
    pivot is always exact, and entries are bounded by minors of the input
    rather than blowing up exponentially as in naive elimination over Q.
    The 0x0 matrix has determinant 1 by convention.
    """
    k = len(m)
    if k == 0:
        return 1
    a = [row[:] for row in m]
    if any(len(row) != k for row in a):
        raise InputError("matrix must be square")
    sign = 1
    prev = 1
    for col in range(k - 1):
        if a[col][col] == 0:
            pivot_row = next((r for r in range(col + 1, k) if a[r][col] != 0), None)
            if pivot_row is None:
                return 0
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        for r in range(col + 1, k):
            arc = a[r][col]
            row_r = a[r]
            row_c = a[col]
            for c in range(col + 1, k):
                row_r[c] = (row_r[c] * pivot - arc * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot
    return sign * a[k - 1][k - 1]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, via the determinant of a Laplacian minor.

    Deleting row/column 0 is an arbitrary-but-fixed choice; the result is
    label-independent. Disconnected graphs yield 0.
    """
    return det_exact(delete_rows_cols(laplacian(g), {0}))


def two_forest_count(g: Graph, i: int, j: int) -> int:
    """Number of spanning 2-forests separating vertices i and j.

    Computed as the determinant of the Laplacian with rows and columns
    {i, j} deleted; symmetric in (i, j). The caller is responsible for
    passing a connected graph.
    """
    if i == j:
        raise InputError("two-forest count needs two distinct vertices")
    return det_exact(delete_rows_cols(laplacian(g), {i, j}))
