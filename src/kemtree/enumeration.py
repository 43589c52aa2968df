"""Exhaustive generation of non-isomorphic trees and canonical codes.

The canonical code is the classic rooted-tree encoding (nested balanced
parentheses with children sorted) rooted at the center. Trees with two
centers are encoded as the two half codes across the central edge,
concatenated in whichever order compares smaller. Two trees get equal
codes exactly when they are isomorphic, and the code is a pure function
of structure, so persisted censuses stay byte-stable across runs.

Generation grows order k+1 representatives from order k by attaching a
new leaf to each order-k tree and deduplicating by code; the first tree
found with a code is its representative. Every canonical code comes from
one center rooting (`_center_rooting`), which takes a tree already rooted
somewhere and re-roots only the path from that root to the center. An
order-k tree's attachment bytes root it at vertex 0, so the generator feeds
them in directly, and its rooting at the center gives every subtree code
and every vertex's sorted list of child codes; an attachment then re-codes
only the path from its vertex up to the center, one child code per step
(each vertex swaps its child's old code for the new one in its sorted list
and re-sorts), moving the center across one edge when the new leaf
deepens the tree. `canonical_code` feeds it a BFS rooting from
`graphs.rooted_traversal`, and the decode oracle its shapes' parent
lists. Leaves go only
on the lowest-labelled vertex of each automorphism orbit, since the rest
of an orbit repeats that vertex's code, so the representatives are those
of attaching at every vertex. The same rooting gives every vertex's total
distance, so each new tree's Wiener index and diameter follow from its
parent's. The generator is the one place a family member's code, Wiener
index and diameter are computed: a TreeFamily is one TreeEntry per member,
which `where` filters. An entry holds its tree as bytes attach[k-1] = a_k,
the vertex a_k < k that vertex k joined; other modules read its `edges` or
`adjacency()`. A census record is `census_line(code, edges)`, which reads
each edge's text from a table built once for trees up to MAX_ORDER_HARD;
an entry's record is `entry_line(entry)`, the same line read from its
attachment bytes, with no edge tuples built.
Only `canonical_code`, `TreeFamily.members` and `parse_census_line` read or
build a Tree. They and `_code_from_adjacency` import `graphs` where they
run, so the generator, census lines and the decode oracle load no `graphs`.

`prufer_oracle_count` checks the generator's counts independently by
decoding, in the calling process, only the code sequences that
`_oracle_codes` shows reach every tree. It codes each decoded tree as it
goes as a rooted shape at the leaf n - 1 (`_decode_shape`). Those shapes
are the planted trees, one per rooted tree of order n - 1, and each gets
its canonical code once, from the parent list of its expansion. The count
is the number of distinct codes; each order is decoded once per process.
"""

from __future__ import annotations

import bisect
import itertools
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import InputError, KemtreeError, ParseError, ResourceLimitError
from .errors import check_int, check_type

if TYPE_CHECKING:
    from .graphs import Edge, Tree

MAX_ORDER_DEFAULT = 16
# Highest order enumerate_trees builds, whatever the cap. Layers 1..18 hold
# 205,004 entries, peak at 74 MB and take 3.3-4.3 s in a fresh process;
# `--cap 18 enum 18`, which writes its rows as it makes them, peaks at 74 MB
# in 5.2-6.2 s. With this constant raised to 19, `--cap 19 enum 19` took
# 10.8-11.0 s and 164 MB (2-core Xeon, Python 3.11). The ceiling stays at 18
# until order 19 is certified as orders 17 and 18 are.
MAX_ORDER_HARD = 18
# Order 10 decodes 1 + 8^6 sequences in 0.63-0.66 s (median 0.64 s), order 9
# in 0.037-0.039 s (5 fresh processes each, 2-core Xeon, Python 3.11); order
# 11 would decode 1 + 9^7, 18 times as many.
PRUFER_ORACLE_MAX = 10
# Bytes the subtree codes of a center rooting may hold at once, 2 * (n +
# D(center)), checked before any is joined: a star of 10^6 vertices needs
# 4 * 10^6, a path of 20,000 vertices 2 * 10^8.
MAX_CODE_BYTES = 40_000_000

CanonicalCode = bytes


_LEAF_CODE = b"()"
# A new leaf's b"()" sorts after every other child code, so a vertex it
# hangs from ends its new code in b"())": a leaf's code becomes b"(())".
_GROWN_LEAF_CODE = b"(())"
_GROWN_TAIL = b"())"
# Each list of child codes opens and closes with these, which sort first
# and last, so joining the list spells the code.
_OPEN, _CLOSE = b"(", b")"


def _code_from_rooting(parent, order) -> bytes:
    """Canonical code of a tree from a rooting of it, as `_center_rooting`
    takes one: the center's rooted code, or the smaller concatenation of
    the two halves."""
    parent, order, code, _, _ = _center_rooting(parent, order)
    c = order[0]
    if parent[c] < 0:
        return code[c]
    half_a, half_b = code[c], code[parent[c]]
    return min(half_a + half_b, half_b + half_a)


def _code_from_adjacency(adj) -> bytes:
    """Canonical code from adjacency lists of a tree (not re-validated),
    rooted at vertex 0 by `graphs.rooted_traversal`."""
    from .graphs import rooted_traversal

    parent, order, _ = rooted_traversal(adj, 0)
    return _code_from_rooting(parent, order)


def canonical_code(t: Tree) -> CanonicalCode:
    """Order-invariant byte string identifying the tree up to isomorphism.
    A Graph that is not a tree raises NotATreeError, and a tree whose
    subtree codes would take more than MAX_CODE_BYTES ResourceLimitError,
    before any code is joined."""
    from .graphs import tree_from_graph

    return _code_from_adjacency(tree_from_graph(t).adjacency)


class TreeEntry(NamedTuple):
    """One tree as the generator made it: vertex k hangs from attach[k-1] < k."""

    code: CanonicalCode
    attach: bytes
    wiener: int
    diameter: int

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The sorted edge list, each (u, v) with u < v, as Tree.edges."""
        return tuple(sorted(zip(self.attach, range(1, len(self.attach) + 1))))

    def adjacency(self) -> list[list[int]]:
        """New adjacency lists, never a Tree: row v is v's parent, then its
        children in label order, so it ascends, as in Tree.adjacency."""
        adj: list[list[int]] = [[] for _ in range(len(self.attach) + 1)]
        for k, a in enumerate(self.attach, 1):
            adj[k].append(a)
            adj[a].append(k)
        return adj


class TreeFamily:
    """Trees of one order (optionally one diameter), canonical-code ascending.

    entries[i] carries the code, attachment sequence, Wiener index and
    diameter of the i-th member, and codes[i] is its code; reading them, or
    filtering them with `where`, builds no Tree.
    """

    __slots__ = ("n", "diameter", "entries", "codes")

    def __init__(
        self, n: int, diameter: int | None, entries: tuple[TreeEntry, ...]
    ) -> None:
        self.n = n
        self.diameter = diameter
        self.entries = entries
        self.codes: tuple[CanonicalCode, ...] = tuple(e.code for e in entries)

    @property
    def members(self) -> tuple[Tree, ...]:
        """Each member as a new Tree; only the benchmark's tests read it."""
        from .graphs import tree_from_edges

        return tuple(tree_from_edges(self.n, e.edges) for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def where(self, keep: Callable[[TreeEntry], bool], diameter: int | None) -> TreeFamily:
        """The entries `keep` accepts, as a family of `diameter`: None, or an
        int >= 0 that every kept entry has. `keep` must be callable."""
        if not callable(keep):
            raise InputError(f"filter must be callable, not {type(keep).__name__}")
        kept = tuple(filter(keep, self.entries))
        if diameter is not None:
            check_int("diameter", diameter)
            if diameter < 0:
                raise InputError(f"diameter must be >= 0, not {diameter}")
            if any(e.diameter != diameter for e in kept):
                raise InputError(f"a kept entry's diameter is not {diameter}")
        return TreeFamily(self.n, diameter, kept)


def _center_rooting(parent, order):
    """Re-root a tree at its center, given a rooting of it: `parent[v]` is
    v's parent (-1 at the root) and `order` lists every vertex after its
    parent, the root first. `parent` is not changed.

    One bottom-up pass over ints gives every subtree's size and height, a
    deepest vertex below each vertex, and the diameter d: the most that the
    two deepest branches below a vertex add up to, over all vertices. A
    deepest vertex u below the root ends a longest path P. Where P meets
    the root's path to u, P's other end is no deeper than u, so the middle
    of P, the center, lies on the root's path to u, d // 2 steps above u;
    when d is odd, the other center is the one d // 2 + 1 steps above u.
    Only the path from the root to the center is re-rooted. The codes take
    2 * (n + D(center)) bytes, twice the sum of the sizes from the center,
    which is checked against MAX_CODE_BYTES before one bottom-up pass joins
    them.

    Returns (parent, order, code, kids, size) of the center rooting: `order`
    lists the center(s) first and every vertex after its parent, `kids[v]`
    is b"(", the sorted codes of v's children, then b")" (the brackets sort
    first and last), `code[v] = b"".join(kids[v])` is the rooted code of
    v's subtree, and `size[v]` its vertex count. Across a central edge each
    center is the other's parent, so the two centers open `order`, their
    codes are the halves, and neither is in the other's `kids`; sizes are
    those of the rooting at order[0], whose size is the whole tree's.
    """
    m = len(parent)
    size, height, far = [1] * m, [0] * m, list(range(m))
    diameter = 0
    for v in order[:0:-1]:
        p = parent[v]
        size[p] += size[v]
        h = height[v] + 1
        hp = height[p]
        if h + hp > diameter:
            diameter = h + hp
        if h > hp:
            height[p] = h
            far[p] = far[v]
    u = far[order[0]]
    for _ in range(diameter // 2):
        u = parent[u]
    second, center = (u, parent[u]) if diameter % 2 else (-1, u)
    head = [center] if second < 0 else [center, second]
    parent = list(parent)
    # turn the path from the root down to the center around: each vertex on
    # it becomes the child of the one it was the parent of, and its subtree
    # becomes all of the tree outside that one's old subtree
    path = []
    below, below_size, v = center, size[center], parent[center]
    while v >= 0:
        path.append(v)
        up = parent[v]
        parent[v] = below
        size[v], below_size = m - below_size, size[v]
        below, v = v, up
    parent[center], size[center] = second, m
    total = 2 * sum(size)
    if total > MAX_CODE_BYTES:
        raise ResourceLimitError(
            f"the canonical code of a tree of order {m} holds {total} bytes of"
            f" subtree codes, over {MAX_CODE_BYTES}"
        )
    skip = {*head, *path}
    order = head + path + [v for v in order if v not in skip]
    join = b"".join
    kids = [[_OPEN, _CLOSE] for _ in range(m)]
    code = [_LEAF_CODE] * m
    for v in order[: len(head) - 1 : -1]:  # children first, the head(s) left out
        if size[v] > 1:
            parts = kids[v]
            parts.sort()
            code[v] = c = join(parts)
        else:
            c = _LEAF_CODE
        kids[parent[v]].append(c)
    for v in head:
        kids[v].sort()
        code[v] = join(kids[v])
    return parent, order, code, kids, size


def _leaf_attachments(attach: bytes) -> list[tuple[int, bytes, int, bool]]:
    """(v, code, dist, deepens) for the lowest-labelled vertex v of each
    automorphism orbit of a tree T of order m >= 2 given by its attachment
    bytes (vertex k hangs from attach[k-1] < k), v ascending: `code` is the
    canonical code of T with a new leaf at v, `dist` is D_T(v), v's total
    distance in T, and `deepens` tells whether the leaf lengthens T's
    diameter, which it does by one exactly when v is at the greatest depth
    from the center. Then W(T + leaf) = W(T) + dist + m.

    The bytes root T at vertex 0 with each vertex after its parent, which
    is the rooting `_center_rooting` takes. A vertex's orbit label is its
    parent's label plus its own subtree code, so two vertices share a label
    exactly when an automorphism maps one to the other, and attachments
    within one orbit give the same code. Each attachment re-codes only the
    path from v up to its center, one child code per step. The new leaf's
    code b"()" sorts after every other child code, so v's new code is its
    old one with b"()" before the closing bracket, b"(())" for a leaf. Each
    vertex above copies its bracketed child list from `_center_rooting`,
    swaps the old code of the child towards v for the new one, re-sorts and
    joins. A code is one bracketed word, so of two distinct codes neither
    is a prefix of the other, and a + b < b + a exactly when a < b: two
    halves are joined once, the smaller first.
    """
    m = len(attach) + 1
    parent, order, code, kids, size = _center_rooting([-1, *attach], range(m))
    bicentral = parent[order[0]] >= 0
    # Rooted at order[0], D(root) is the sum of all depths, which is the sum
    # of all other subtree sizes, and a step down to x brings x's subtree one
    # closer: D(x) = D(parent) + m - 2 size(x). Across a central edge the
    # second center is order[0]'s child, though both have depth 0.
    depth, label, dist = [0] * m, code[:], [sum(size) - m] * m
    if bicentral:
        dist[order[1]] += m - 2 * size[order[1]]
    for v in order[1 + bicentral :]:
        p = parent[v]
        depth[v] = depth[p] + 1
        dist[v] = dist[p] + m - 2 * size[v]
        label[v] = label[p] + code[v]
    height = max(depth)
    join, bisect_left = b"".join, bisect.bisect_left
    seen = set()
    found = []
    for a in range(m):
        if label[a] in seen:
            continue
        seen.add(label[a])
        v, parts = a, None
        new = _GROWN_LEAF_CODE if size[a] == 1 else code[a][:-1] + _GROWN_TAIL
        while depth[v]:
            below, v = v, parent[v]
            parts = kids[v][:]
            parts[bisect_left(parts, code[below])] = new
            parts.sort()
            grown, new = new, join(parts)
        # v is the center on a's side and `new` its new code; unless a is v,
        # `parts` is v's new bracketed child list and `grown` the new code of
        # its child towards a
        if depth[a] < height:
            if bicentral:
                other = code[parent[v]]
                new = new + other if new < other else other + new
            found.append((a, new, dist[a], False))
        elif bicentral:
            # a deepens its half: v becomes the only center
            if parts is None:  # a is a center, so m == 2
                parts = [*kids[a], _LEAF_CODE]
            parts.append(code[parent[v]])
            parts.sort()
            found.append((a, join(parts), dist[a], True))
        else:
            # a deepens one branch: the central edge becomes v-below
            parts.remove(grown)
            rest = join(parts)
            found.append((a, rest + grown if rest < grown else grown + rest, dist[a], True))
    return found


# order -> TreeEntry per tree, sorted by code; grown lazily and kept for reuse
_layers: dict[int, tuple[TreeEntry, ...]] = {}


def _layer(n: int) -> tuple[TreeEntry, ...]:
    cached = _layers.get(n)
    if cached is not None:
        return cached
    if n <= 2:
        entry = TreeEntry(b"()", b"", 0, 0) if n == 1 else TreeEntry(b"()()", b"\0", 1, 1)
        entries: tuple[TreeEntry, ...] = (entry,)
    else:
        m = n - 1
        found: dict[bytes, TreeEntry] = {}
        for entry in _layer(m):
            attach, base, diameter = entry.attach, entry.wiener + m, entry.diameter
            for v, code, dist, deepens in _leaf_attachments(attach):
                if code not in found:
                    found[code] = TreeEntry(
                        code,
                        attach + bytes((v,)),
                        base + dist,
                        diameter + 1 if deepens else diameter,
                    )
        entries = tuple(found[code] for code in sorted(found))
    _layers[n] = entries
    return entries


def enumerate_trees(n: int, cap: int = MAX_ORDER_DEFAULT) -> TreeFamily:
    """All non-isomorphic trees of order n, one representative per class."""
    check_int("order", n)
    check_int("cap", cap)
    if n < 1:
        raise InputError("order must be positive")
    if n > cap:
        raise ResourceLimitError(f"order {n} exceeds enumeration cap {cap}")
    if n > MAX_ORDER_HARD:
        raise ResourceLimitError(f"order {n} exceeds hard ceiling {MAX_ORDER_HARD}")
    return TreeFamily(n, None, _layer(n))


def family(n: int, d: int, cap: int = MAX_ORDER_DEFAULT) -> TreeFamily:
    """Trees of order n with diameter exactly d (d = 0 only for n = 1)."""
    check_int("order", n)
    if n < 1:
        raise InputError("order must be positive")
    check_int("diameter", d)
    low = min(1, n - 1)
    if not low <= d <= n - 1:
        raise InputError(f"diameter {d} out of range {low}..{n - 1}")
    return enumerate_trees(n, cap).where(lambda e: e.diameter == d, d)


def _decode_shape(seq: tuple[int, ...], n: int, ids: dict[int, int]) -> int:
    """Rooted shape of the labeled tree with the given code sequence,
    rooted at n - 1: the integer key of the root's child multiset.

    A vertex's key is the sum of n**i over the ids i of its children's
    shapes. A vertex has fewer than n children, so each base-n digit of
    its key is the count of children with that id, and equal keys mean
    equal child multisets. The decode removes each vertex after all of
    its children and joins it to its parent, so each removal interns the
    vertex's key as the next unused id (AHU 1974) and adds that id's
    place value to the parent's key. `ids` maps each interned key to
    n**id; equal shapes mean isomorphic rooted trees when one `ids` is
    shared by every call.
    """
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    kids = [0] * n
    ptr = leaf = deg.index(1)
    for v in seq:
        k = kids[leaf]
        place = ids.get(k)
        if place is None:
            place = ids[k] = n ** len(ids)
        kids[v] += place
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr = leaf = deg.index(1, ptr + 1)
    k = kids[leaf]
    place = ids.get(k)
    if place is None:
        place = ids[k] = n ** len(ids)
    return kids[n - 1] + place


def _shape_adjacency(shape: int, n: int, table: tuple[int, ...]) -> list[list[int]]:
    """Adjacency lists of a rooted shape of order n, root at vertex 0,
    where table[i] is the key interned as id i: digit i of a key in base
    n counts the children whose shape is table[i]."""
    adj: list[list[int]] = [[]]
    stack = [(0, shape)]
    while stack:
        v, key = stack.pop()
        i = 0
        while key:
            key, count = divmod(key, n)
            for _ in range(count):
                u = len(adj)
                adj.append([v])
                adj[v].append(u)
                stack.append((u, table[i]))
            i += 1
    return adj


# order -> the codes of `_oracle_codes`; each order is decoded once
_decoded: dict[int, frozenset[CanonicalCode]] = {}


def _oracle_codes(n: int) -> frozenset[CanonicalCode]:
    """The distinct canonical codes of the trees of order n >= 3, decoded
    on the first call for each order and kept, from the star's code
    sequence (0,) * (n - 2) and, for n >= 4, the (n-2)^(n-4) sequences
    (0, *w, 2) with w any n - 4 symbols from 0, 2, 3, ..., n - 2.

    These reach every tree. A tree of order n >= 4 that is not a star has
    a longest path of length at least 3. Label that path's ends 1 and
    n - 1, and their neighbours 0 and 2: these are distinct, and neither
    is a leaf. A vertex appears one time fewer than its degree, so 1 and
    n - 1 appear in no sequence, while 0 and 2 do. The decode removes the
    smallest leaf, which is 1, so the first symbol is 0; n - 1 is never
    removed, so the last two vertices left are n - 1 and its neighbour,
    and the last symbol is 2. The sequences are decoded with one `ids`,
    so each distinct shape is expanded and coded once."""
    cached = _decoded.get(n)
    if cached is not None:
        return cached
    ids: dict[int, int] = {}
    star = (0,) * (n - 2)
    symbols = (0, *range(2, n - 1))
    rest = itertools.product((0,), *[symbols] * (n - 4), (2,)) if n > 3 else ()
    shapes = {_decode_shape(seq, n, ids) for seq in itertools.chain((star,), rest)}
    table = tuple(ids)
    # an expansion numbers each vertex after its parent and lists its parent
    # first, so its parent list roots it at vertex 0 in the order range(n)
    parents = ([-1] + [nbrs[0] for nbrs in _shape_adjacency(s, n, table)[1:]] for s in shapes)
    codes = frozenset(_code_from_rooting(parent, range(n)) for parent in parents)
    _decoded[n] = codes
    return codes


def prufer_oracle_count(n: int) -> int:
    """Distinct canonical codes over the labeled trees of order n.

    Decodes, in the calling process, the 1 + (n-2)^(n-4) code sequences
    that `_oracle_codes` shows reach every tree, not all n^(n-2), coding
    each tree as a rooted shape as it goes. Independent of the growth
    generator; capped because the sequence space is exponential. Each
    order's codes are kept for the process.
    """
    check_int("order", n)
    if n < 1:
        raise InputError("order must be positive")
    if n > PRUFER_ORACLE_MAX:
        raise ResourceLimitError(
            f"order {n} exceeds oracle cap {PRUFER_ORACLE_MAX}"
        )
    if n <= 2:
        return 1
    return len(_oracle_codes(n))


# "u-v" for every edge (u, v), u < v, of a tree of order <= MAX_ORDER_HARD
_EDGE_TEXT = {(u, v): f"{u}-{v}" for v in range(MAX_ORDER_HARD) for u in range(v)}
# The same texts keyed by u << _SHIFT | v, an int that sorts as (u, v) does.
_SHIFT = MAX_ORDER_HARD.bit_length()
_PACKED_TEXT = {u << _SHIFT | v: text for (u, v), text in _EDGE_TEXT.items()}


def entry_line(entry: TreeEntry) -> str:
    """The census line of a family entry, `census_line(entry.code,
    entry.edges)`, read from its attachment bytes: its edges are the
    (a_k, k), which sort as their packed ints a_k << _SHIFT | k do."""
    packed = sorted([a << _SHIFT | k for k, a in enumerate(entry.attach, 1)])
    return " ".join([entry.code.hex(), *map(_PACKED_TEXT.__getitem__, packed)])


def census_line(code: CanonicalCode, edges: tuple[Edge, ...]) -> str:
    """One census record: `code` in hex, then a tree's sorted edge list
    (a TreeEntry's `edges`, or `Tree.edges`).

    `code` is the tree's canonical code as its TreeFamily carries it;
    nothing here recomputes or checks it. For `code, t =
    parse_census_line(line)`, `census_line(code, t.edges) == line`. Each
    edge's text is read from a table of the edges of trees up to
    MAX_ORDER_HARD; an edge outside it, of a larger Tree, is formatted.
    InputError unless `code` is bytes and `edges` an iterable of pairs.
    """
    check_type("canonical code", code, bytes)
    try:
        edges = tuple(edges)  # read once: the fallback below reads it again
        try:
            text = " ".join(map(_EDGE_TEXT.__getitem__, edges))
        except KeyError:
            text = " ".join(f"{u}-{v}" for u, v in edges)
    except (TypeError, ValueError) as exc:
        raise InputError(f"census edges must be vertex pairs: {exc}") from None
    return f"{code.hex()} {text}".rstrip()


def parse_census_line(line: str) -> tuple[CanonicalCode, Tree]:
    """Inverse of `census_line`; ParseError unless the hex code is the
    canonical code of the tree the edges build, InputError unless `line`
    is a str."""
    from .graphs import tree_from_edges

    check_type("census line", line, str)
    tokens = line.split()
    try:
        code = bytes.fromhex(tokens[0])
        edges = [tuple(map(int, tok.split("-"))) for tok in tokens[1:]]
        tree = tree_from_edges(len(code) // 2, edges)
    except (IndexError, ValueError, KemtreeError) as exc:
        raise ParseError(f"bad census line {line!r}: {exc}") from None
    if canonical_code(tree) != code:
        raise ParseError(f"census code does not match the edges of {line!r}")
    return code, tree
