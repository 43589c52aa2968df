"""Exact integer determinants and adjugates of Laplacian minors.

`adjugate_det` gives the determinant and the adjugate of a matrix in one
fraction-free Gauss-Jordan pass; the forest route reads Kemeny's constant
off the adjugate of the grounded Laplacian. `det_exact` (Bareiss
elimination) powers `spanning_tree_count` and `two_forest_count`, which
count spanning trees and separating 2-forests one minor at a time.

Everything here is integer arithmetic on Python ints; no value is ever
rounded, and a matrix entry that is not an int (a float, a bool, a str)
raises InputError before any step. Rational results appear only
downstream (invariants module).
"""

from __future__ import annotations

from .errors import InputError, check_type
from .graphs import Graph, _check_labels

BigIntMatrix = list[list[int]]


def laplacian(g: Graph) -> BigIntMatrix:
    """L = diag(degrees) - adjacency, as a dense integer matrix."""
    check_type("graph", g, Graph)
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for v in range(n):
        mat[v][v] = len(g.adjacency[v])
        for u in g.adjacency[v]:
            mat[v][u] = -1
    return mat


def delete_rows_cols(m: BigIntMatrix, drop: set[int]) -> BigIntMatrix:
    keep = [i for i in range(len(m)) if i not in drop]
    return [[m[i][j] for j in keep] for i in keep]


def _int_rows(m) -> BigIntMatrix:
    """`m` copied as a list of row lists. InputError unless `m` is a square
    sequence of rows of ints, checked before any elimination step, so no
    float, bool or str entry is ever divided or rounded."""
    try:
        a = [list(row) for row in m]
    except TypeError:
        raise InputError("matrix must be a sequence of rows") from None
    if any(len(row) != len(a) for row in a):
        raise InputError("matrix must be square")
    for row in a:
        for x in row:
            if type(x) is not int:
                raise InputError(f"matrix entries must be ints, not {type(x).__name__}")
    return a


def det_exact(m: BigIntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate entry stays an integer: the division by the previous
    pivot is always exact, and entries are bounded by minors of the input
    rather than blowing up exponentially as in naive elimination over Q.
    The 0x0 matrix has determinant 1 by convention. A matrix that is not
    square, or has an entry that is not an int, raises InputError.
    """
    a = _int_rows(m)
    k = len(a)
    if k == 0:
        return 1
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


def adjugate_det(m: BigIntMatrix) -> tuple[int, BigIntMatrix]:
    """Determinant and adjugate of a square integer matrix, (det, adj).

    One fraction-free Gauss-Jordan pass (Bareiss 1968) over [m | I]: at
    step c every other row becomes (p * row - f * pivot_row) // prev, with p
    the pivot and prev the one before it, and each division is exact. The
    left block ends as det * I and the right block as adj = det * m^-1.
    There is no pivoting, so a zero pivot (a singular leading principal
    minor) raises InputError; the grounded Laplacian of a connected graph is
    positive definite and never has one. The 0x0 matrix gives (1, []). A
    matrix that is not square, or has an entry that is not an int, raises
    InputError.
    """
    a = _int_rows(m)
    k = len(a)
    for i, row in enumerate(a):
        row += [int(i == j) for j in range(k)]
    prev = 1
    for c in range(k):
        pivot_row = a[c]
        p = pivot_row[c]
        if p == 0:
            raise InputError(f"zero pivot at step {c}: a leading minor is singular")
        # Row c is zero left of column c and right of column k + c, so only
        # columns c+1 .. k+c mix. Outside them, and column c, which is
        # cleared, a row's one nonzero entry is its own diagonal: in the left
        # block for rows above c, in the right block for rows below. It is
        # scaled by p / prev.
        lo, hi = c + 1, k + c + 1
        live = pivot_row[lo:hi]
        for r, row in enumerate(a):
            if r == c:
                continue
            f = row[c]
            row[lo:hi] = [(p * x - f * y) // prev for x, y in zip(row[lo:hi], live)]
            row[c] = 0
            d = r if r < c else k + r
            row[d] = row[d] * p // prev
        prev = p
    return prev, [row[k:] for row in a]  # the last pivot is the determinant


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
    passing a connected graph. A label that is not an int vertex of `g`
    raises InputError.
    """
    _check_labels(g, i, j)
    if i == j:
        raise InputError("two-forest count needs two distinct vertices")
    return det_exact(delete_rows_cols(laplacian(g), {i, j}))
