"""Kemeny's constant of a connected graph without an n x n matrix.

Kemeny's constant comes from the resistance form (Klein and Randic, J. Math.
Chem. 12, 1993). Ground vertex 0, let M = L0^-1 for the grounded Laplacian
L0, and let D0 and d0 hold the degrees of the other vertices. Then
K = tr(D0 M) - d0^T M d0 / (2m), and one symmetric elimination of
L0 + eps D0 over dual numbers a + b eps gives both terms: tr(D0 M), the
derivative of log det(L0 + eps D0) at eps = 0, is the sum of b / a over the
pivots, and d0^T M d0 is the sum of y_k^2 / a_k, with y the forward solve of
d0 through the same elimination. The pivots are taken in minimum-degree
order on the current fill graph, ties to the lower label, so every run takes
the same order; the value does not depend on it.

The elimination runs modulo one Mersenne prime P = 2^e - 1 above
4 m^2 prod_{v >= 1} d_v. By Hadamard's inequality every principal minor of
L0 is a positive integer at most prod_{v >= 1} d_v, so every pivot, a ratio
of two such minors, is invertible mod P. With tau = det L0 and A = adj L0,
K = N / D with D = 2m tau in (0, 2m prod d_v] and
N = 2m sum_i d_i A_ii - d0^T A d0 in (0, 4 m^2 prod d_v], so the residues of
N and D are N and D themselves, the forest route's own numerator and
denominator.

Each limit is checked before the work it bounds and raises
ResourceLimitError: a modulus of more bits than the largest tabled Mersenne
exponent, and elimination work above MAX_ELIMINATION_WORK. The elimination
work, the sum of the squared pivot row sizes times the words of the
modulus, is counted by a minimum-degree pass over the pattern alone, whose
order the numeric pass then follows.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import InputError, ResourceLimitError, check_type
from .graphs import Graph, _connected_distances

# Exponents e of Mersenne primes 2^e - 1 (OEIS A000043); the tests prove those
# up to 4423 prime by Lucas-Lehmer.
MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
)
# Most elimination work: the sum over pivots of (fill degree + 1)^2, times
# the 64-bit words of the modulus. One unit took 0.16-0.52 microseconds for
# moduli up to 2^3217 - 1 (grids, random graphs, complete graphs, cycles) and
# 0.8-1.5 microseconds up to 2^19937 - 1 on the same machine, so the bound is
# 0.6-6 s. The 20 x 20 grid needs 1.09 * 10^6 (0.22 s), a random graph with
# n = 300 and m = 600 1.36 * 10^6 (0.28 s); the 30 x 30 grid (7.3 * 10^6) is
# refused.
MAX_ELIMINATION_WORK = 4_000_000


def _exponent(g: Graph) -> int:
    """The least tabled exponent e with 2^e - 1 > 4 m^2 prod_{v >= 1} d_v."""
    top = MERSENNE_EXPONENTS[-1]
    bound = 4 * g.m * g.m
    for d in g.degrees[1:]:
        bound *= d
        if bound.bit_length() > top:
            raise ResourceLimitError(
                f"the sparse route's modulus needs more than {top} bits, "
                f"the largest tabled Mersenne exponent"
            )
    return next(e for e in MERSENNE_EXPONENTS if (1 << e) - 1 > bound)


def _elimination_order(g: Graph, e: int) -> list[int]:
    """Vertices 1..n-1 in minimum-degree order on the fill graph of the
    grounded Laplacian's pattern, ties to the lower label. ResourceLimitError
    once the elimination work, the sum of the squared pivot row sizes (the
    pivot's fill neighbours and itself) times the 64-bit words of 2^e - 1,
    exceeds MAX_ELIMINATION_WORK."""
    words = e // 64 + 1
    fill = [set(nbrs) for nbrs in g.adjacency]
    for v in fill[0]:
        fill[v].discard(0)
    heap = [(len(fill[v]), v) for v in range(1, g.n)]
    heapq.heapify(heap)
    done = [False] * g.n
    order: list[int] = []
    work = 0
    while heap:
        size, k = heapq.heappop(heap)
        row = fill[k]
        if done[k] or size != len(row):  # a stale entry
            continue
        done[k] = True
        order.append(k)
        work += (size + 1) ** 2 * words
        if work > MAX_ELIMINATION_WORK:
            raise ResourceLimitError(
                f"elimination work exceeds the sparse-route limit {MAX_ELIMINATION_WORK}"
            )
        for i in row:
            s = fill[i]
            s.discard(k)
            s |= row
            s.discard(i)
            heapq.heappush(heap, (len(s), i))
    return order


def _eliminate(g: Graph, order: list[int], e: int) -> Fraction:
    """K from the elimination of L0 + eps D0 over dual numbers modulo
    p = 2^e - 1, in `order`. Entries are pairs (real, eps); rows are dicts
    over the other vertices, each off-diagonal entry held in both rows. As
    2^e = 1 mod p, x = (x >> e) 2^e + (x & p) folds to (x & p) + (x >> e).
    In the pair update, the inner loop, two folds keep every entry in
    [-8, 2^e + 9) in linear time, where % would divide."""
    p = (1 << e) - 1
    deg = g.degrees
    rows = [{u: (-1, 0) for u in nbrs if u} for nbrs in g.adjacency]
    for v, row in enumerate(rows):
        row[v] = (deg[v], deg[v])
    y = list(deg)
    tau, t, q = 1, 0, 0
    for k in order:
        row = rows[k]
        a, b = row.pop(k)
        inv = pow(a, -1, p)
        yk = y[k]
        tau = tau * a % p
        t = (t + b * inv) % p
        q = (q + yk * yk % p * inv) % p
        # l_i = A_ik / A_kk in dual arithmetic: (x + xb eps) / (a + b eps)
        ls = []
        for i, (x, xb) in row.items():
            lx = x * inv % p
            ls.append((i, x, xb, lx, (xb - lx * b) * inv % p))
            y[i] = (y[i] - lx * yk) % p
        # A_ij -= l_i A_kj, once per unordered pair {i, j}, i = j included
        for s, (i, _, _, lx, lb) in enumerate(ls):
            ri = rows[i]
            del ri[k]
            for j, x, xb, _, _ in ls[s:]:
                old, oldb = ri.get(j, (0, 0))
                u = old - lx * x
                u = (u & p) + (u >> e)
                v = oldb - lx * xb - lb * x
                v = (v & p) + (v >> e)
                ri[j] = rows[j][i] = (u & p) + (u >> e), (v & p) + (v >> e)
    two_m = 2 * g.m
    return Fraction(tau * (two_m * t - q) % p, two_m * tau % p)


def kemeny_sparse_route(g: Graph) -> Fraction:
    """Kemeny's constant of a connected graph by the modular sparse
    elimination; ResourceLimitError, before any numeric step, when the
    modulus or the elimination work is above its limit."""
    check_type("graph", g, Graph)
    if g.n < 2:
        raise InputError("Kemeny's constant needs at least two vertices")
    _connected_distances(g, 0)
    e = _exponent(g)
    return _eliminate(g, _elimination_order(g, e), e)

