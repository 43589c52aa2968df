"""Wiener index, Gutman index, edge split weights, and Kemeny's constant.

Kemeny's constant is available through four independent routes:

* sparse route (any connected graph, `auto` on a cyclic one):
  `sparse.kemeny_sparse_route`, one minimum-degree elimination of the
  grounded Laplacian over dual numbers modulo a Mersenne prime; its limits
  are in `sparse`;
* forest route (any connected graph): (2m sum_i d_i A_ii - d^T A d) /
  (2m tau), where A is the adjugate and tau the determinant of the
  Laplacian grounded at vertex 0, both from one fraction-free pass
  (`linalg.adjugate_det`) in O(n^3) big-integer steps. It contracts the
  resistance form sum_{i<j} d_i d_j (A_ii + A_jj - 2 A_ij) / (2m tau),
  since sum_j d_j = 2m. The route refuses graphs above MAX_DENSE_VERTICES
  vertices;
* Wiener relation (trees only): `kemeny_from_wiener`, from W and n;
* edge-cut route (trees only): sum over edges of
  (2 n1 - 1)(2 n2 - 1) / (2 (n - 1)), with n1 = s and n2 = n - s for the
  subtree sizes s of a rooting at vertex 0, one per edge but the root.

W and the Gutman index do not depend on the route. On a tree they come from
the edge-cut sum W = sum s (n - s) over the same sizes; on a cyclic graph
from one BFS per source, in O(n (n + m)) time and O(n) memory. On the
sparse route that BFS work is checked against MAX_DISTANCE_WORK before any
other step, raising ResourceLimitError; on the forest route
MAX_DENSE_VERTICES bounds it.

All values are exact: integers or Fractions, never floats. Only the
functions that read a matrix (the forest route, `wiener_distance_route` and
`gutman_index`) import `linalg`, and only the sparse route imports
`sparse`, so the invariants of a tree load neither. Connectivity is
checked by `graphs._connected_distances`.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Mapping, NamedTuple

from .errors import InputError, ResourceLimitError
from .errors import RouteRequiresTreeError, check_int, check_type
from .graphs import DistanceMatrix, Edge, Graph, Tree, bfs_distances
from .graphs import _connected_distances, rooted_traversal, tree_from_graph

# Most vertices of a graph that gets an n x n matrix: the grounded Laplacian
# and its adjugate on the forest route. On a random connected graph with
# m = 1.1n, `invariants --route forest` took 0.4 s at n = 100, 6.7 s at 300
# and 39 s at 500 (peak RSS 38 MB), one fresh process each on a 2-core Xeon
# under Python 3.11; n = 1000 did not finish in 490 s. Entries grow with the
# edge count, so a denser graph costs more: n = 500 with m = 3n took 498 s
# (72 MB).
MAX_DENSE_VERTICES = 500
# Most BFS work n (n + m) for W and the Gutman index on the sparse route. The
# sums took 0.17 s at 2 * 10^6 (the 1,000-vertex cycle), 0.76 s at 8 * 10^6
# and 1.49 s at 1.8 * 10^7 (the 3,000-vertex cycle), about 95 ns a unit at
# most, in one process on a 2-core Xeon under Python 3.11.
MAX_DISTANCE_WORK = 20_000_000


class KemenyRoute(Enum):
    FOREST = "forest"
    WIENER = "wiener"
    EDGE_CUT = "edgecut"
    SPARSE = "sparse"


class WeightedEdgeMap(NamedTuple):
    """Per-edge split weights n1(e) * n2(e) of a tree, plus their total.

    The weight of an edge counts the unordered vertex pairs whose unique
    path crosses it, so the total is the Wiener index.
    """

    weights: Mapping[Edge, int]
    total: int

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights.values()))


def omega_weights(t: Tree) -> WeightedEdgeMap:
    """Split weight n1(e) * n2(e) for every edge of the tree, from the subtree
    sizes of a rooting at vertex 0; NotATreeError unless `t` is a tree."""
    parent, _, size = rooted_traversal(tree_from_graph(t).adjacency, 0)
    n = len(size)
    weights = {
        (min(v, p), max(v, p)): size[v] * (n - size[v])
        for v, p in enumerate(parent)
        if p >= 0
    }
    return WeightedEdgeMap(weights=weights, total=sum(weights.values()))


def wiener_distance_route(d: DistanceMatrix) -> int:
    """Half the grand sum of the distance matrix; InputError unless `d` is
    a square matrix of ints."""
    from .linalg import _int_rows

    check_type("distance matrix", d, Sequence)
    return sum(map(sum, _int_rows(d))) // 2


def wiener_edge_cut_route(t: Tree) -> int:
    """Wiener index, the sum of s (n - s) over the subtree sizes s of a
    rooting at vertex 0 (the root's term is 0); trees only."""
    size = rooted_traversal(tree_from_graph(t).adjacency, 0)[2]
    n = len(size)
    return sum(s * (n - s) for s in size)


def gutman_index(g: Graph, d: DistanceMatrix) -> int:
    """Half the degree-weighted grand sum of the distance matrix of `g`;
    InputError unless `d` is a square matrix of ints of order g.n."""
    from .linalg import _int_rows

    check_type("graph", g, Graph)
    rows = _int_rows(d)
    if len(rows) != g.n:
        raise InputError(f"distance matrix of order {len(rows)} for a graph of order {g.n}")
    deg = g.degrees
    total = 0
    for i in range(g.n):
        row = rows[i]
        di = deg[i]
        total += di * sum(row[j] * deg[j] for j in range(g.n))
    return total // 2


def _require_distance_work(g: Graph) -> None:
    work = g.n * (g.n + g.m)
    if work > MAX_DISTANCE_WORK:
        raise ResourceLimitError(
            f"distance work n(n + m) = {work} exceeds the sparse-route limit {MAX_DISTANCE_WORK}"
        )


def _distance_sums(g: Graph) -> tuple[int, int]:
    """W and the Gutman index of a connected graph from one BFS per source."""
    deg = g.degrees
    total = weighted = 0
    for s in range(g.n):
        dist = bfs_distances(g.adjacency, s)
        total += sum(dist)
        weighted += deg[s] * sum(map(mul, deg, dist))
    return total // 2, weighted // 2


def kemeny_forest_route(g: Graph) -> Fraction:
    """Kemeny's constant of the random walk on any connected graph.

    Evaluates the resistance form sum_{i<j} d_i d_j r_ij / (2m) (Klein and
    Randic 1993). With L0 the Laplacian grounded at vertex 0, tau = det L0
    and A = tau * L0^-1 come from one `adjugate_det` pass, and tau * r_ij =
    A_ii + A_jj - 2 A_ij with A zero in row and column 0. As sum_j d_j = 2m,
    the pair sum contracts to K = (2m sum_i d_i A_ii - d^T A d) / (2m tau).
    The older formula deg^T F deg / (4 m tau), one determinant per entry of
    the 2-forest matrix F, is kept in the tests as an oracle. Above
    MAX_DENSE_VERTICES vertices it raises ResourceLimitError first.
    """
    from .linalg import adjugate_det, delete_rows_cols, laplacian

    check_type("graph", g, Graph)
    if g.n < 2:
        raise InputError("Kemeny's constant needs at least two vertices")
    _connected_distances(g, 0)
    if g.n > MAX_DENSE_VERTICES:
        raise ResourceLimitError(
            f"{g.n} vertices exceed the dense-route limit {MAX_DENSE_VERTICES}"
        )
    tau, adj = adjugate_det(delete_rows_cols(laplacian(g), {0}))
    deg = g.degrees[1:]
    diag = sum(d * row[i] for i, (d, row) in enumerate(zip(deg, adj)))
    form = sum(d * sum(map(mul, deg, row)) for d, row in zip(deg, adj))
    return Fraction(2 * g.m * diag - form, 2 * g.m * tau)


def kemeny_from_wiener(n: int, w: int) -> Fraction:
    """Kemeny's constant 2 w / (n - 1) - n + 1/2 of a tree of order n and
    Wiener index w; at fixed n it rises strictly with w."""
    check_int("order", n)
    check_int("Wiener index", w)
    if n < 2:
        raise InputError("Kemeny's constant needs at least two vertices")
    return Fraction(2 * w, n - 1) - n + Fraction(1, 2)


def kemeny_wiener_route(t: Tree) -> Fraction:
    """Kemeny's constant of a tree from its Wiener index."""
    check_type("graph", t, Graph)
    return kemeny_from_wiener(t.n, wiener_edge_cut_route(t))


def kemeny_edge_cut_route(t: Tree) -> Fraction:
    """Kemeny's constant of a tree from its edge split sizes."""
    check_type("graph", t, Graph)
    n = t.n
    if n < 2:
        raise InputError("Kemeny's constant needs at least two vertices")
    size = rooted_traversal(tree_from_graph(t).adjacency, 0)[2]
    acc = sum((2 * s - 1) * (2 * (n - s) - 1) for s in size[1:])
    return Fraction(acc, 2 * (n - 1))


class InvariantReport(NamedTuple):
    n: int
    m: int
    wiener: int
    gutman: int
    kemeny: Fraction
    route: KemenyRoute


def compute_invariants(g: Graph, route: KemenyRoute | str = "auto") -> InvariantReport:
    """Full invariant report for a connected graph.

    `route` picks only how Kemeny's constant is computed; "auto" uses the
    edge-cut route on trees and the sparse route otherwise. Tree-only
    routes on graphs with cycles raise RouteRequiresTreeError before any
    value is computed. W and the Gutman index do not depend on the route:
    on a tree W is the edge-cut sum and Gut = 4W - (n-1)(2n-1), and on a
    cyclic graph both come from one BFS per source, after K. On a cyclic
    graph the sparse route checks the BFS work before any of its own
    limits, and the forest route raises ResourceLimitError above
    MAX_DENSE_VERTICES. A `Tree` is used as it is; a plain Graph with
    m = n - 1 is validated as a tree here. A route that is not auto or a
    KemenyRoute value raises InputError.
    """
    check_type("graph", g, Graph)
    _connected_distances(g, 0)
    tree = tree_from_graph(g) if g.m == g.n - 1 else None
    if route == "auto":
        route = KemenyRoute.EDGE_CUT if tree is not None else KemenyRoute.SPARSE
    try:
        chosen = KemenyRoute(route)
    except ValueError:
        names = ", ".join(["auto", *(r.value for r in KemenyRoute)])
        raise InputError(f"unknown route {route!r}; the routes are {names}") from None
    if tree is None and chosen in (KemenyRoute.WIENER, KemenyRoute.EDGE_CUT):
        raise RouteRequiresTreeError(f"route {chosen.value!r} is defined only on trees")
    if tree is not None:
        wiener = wiener_edge_cut_route(tree)
        gutman = 4 * wiener - (g.n - 1) * (2 * g.n - 1)
    elif chosen is KemenyRoute.SPARSE:  # every limit before any BFS or numeric step
        _require_distance_work(g)
    if chosen is KemenyRoute.FOREST:
        kappa = kemeny_forest_route(g)
    elif chosen is KemenyRoute.WIENER:
        kappa = kemeny_from_wiener(g.n, wiener)
    elif chosen is KemenyRoute.EDGE_CUT:
        kappa = kemeny_edge_cut_route(tree)
    else:
        from .sparse import kemeny_sparse_route

        kappa = kemeny_sparse_route(g)
    if tree is None:
        wiener, gutman = _distance_sums(g)
    return InvariantReport(
        n=g.n,
        m=g.m,
        wiener=wiener,
        gutman=gutman,
        kemeny=kappa,
        route=chosen,
    )


def _exact(value: Fraction | int) -> Fraction:
    """`value` as a Fraction; InputError unless it is an int (not a bool)
    or a Fraction, so a float is never printed as if it were exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(
            f"exact value must be an int or a Fraction, not {type(value).__name__}"
        )
    return Fraction(value)


def _digits(k: int) -> str:
    """str(k), or ResourceLimitError where Python refuses that many digits."""
    try:
        return str(k)
    except ValueError:  # only str(int)'s digit limit raises it
        raise ResourceLimitError(
            f"an integer of {k.bit_length()} bits exceeds Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer formatting"
        ) from None


def format_exact(value: Fraction | int, places: int = 4) -> str:
    """Fixed-point decimal rendering of an exact value, round-half-even.

    Display only; the exact value is never stored rounded. A value that is
    not an int or a Fraction, or `places` that is not an int >= 0, raises
    InputError. Python prints no int of more than
    `sys.get_int_max_str_digits()` digits (0 means no limit), so `places`
    above that limit raises ResourceLimitError before 10**places is built,
    as does an integer part too long to print.
    """
    f = _exact(value)
    check_int("places", places)
    if places < 0:
        raise InputError(f"places must be nonnegative, not {places}")
    limit = sys.get_int_max_str_digits()
    if limit and places > limit:
        raise ResourceLimitError(
            f"{places} places exceed Python's limit of {limit} digits for integer formatting"
        )
    sign = "-" if f < 0 else ""
    num, den = abs(f.numerator), f.denominator
    scale = 10**places
    q, r = divmod(num * scale, den)
    double = 2 * r
    if double > den or (double == den and q % 2 == 1):
        q += 1
    if places == 0:
        return f"{sign}{_digits(q)}"
    whole, frac = divmod(q, scale)
    return f"{sign}{_digits(whole)}.{_digits(frac).zfill(places)}"


def format_rational(value: Fraction | int) -> str:
    """Exact "p/q" rendering (plain integer when the denominator is 1). A
    value that is not an int or a Fraction raises InputError, and a
    numerator or denominator of more digits than Python prints
    (`sys.get_int_max_str_digits()`) raises ResourceLimitError."""
    f = _exact(value)
    if f.denominator == 1:
        return _digits(f.numerator)
    return f"{_digits(f.numerator)}/{_digits(f.denominator)}"
