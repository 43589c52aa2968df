"""Exhaustive generation of non-isomorphic trees and canonical codes.

The canonical code is the classic rooted-tree encoding (nested balanced
parentheses with children sorted) rooted at the center. Trees with two
centers are encoded as the two half codes across the central edge,
concatenated in whichever order compares smaller. Two trees get equal
codes exactly when they are isomorphic, and the code is a pure function
of structure, so persisted censuses stay byte-stable across runs.

Generation grows order k+1 representatives from order k by attaching a
new leaf at every vertex and deduplicating by code. Simple, provably
complete, and adequate at the default order cap. The generator is the one
place a family member's code is computed: every TreeFamily carries the
codes with its members, and a census record is `census_line(code, tree)`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import InputError, KemtreeError, ParseError, ResourceLimitError
from .graphs import Edge, Tree, tree_from_edges

MAX_ORDER_DEFAULT = 16
PRUFER_ORACLE_MAX = 9

CanonicalCode = bytes


_LEAF_CODE = b"()"


def _code_from_adjacency(adj) -> bytes:
    """Canonical code from adjacency lists of a tree (not re-validated)."""
    n = len(adj)
    if n == 1:
        return _LEAF_CODE
    join = b"".join
    deg = [len(nbrs) for nbrs in adj]
    removed = [False] * n
    codes = [_LEAF_CODE] * n
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        for v in layer:
            removed[v] = True
            parts = [codes[u] for u in adj[v] if removed[u]]
            if parts:
                parts.sort()
                codes[v] = b"(" + join(parts) + b")"
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(n) if not removed[v]]

    def finish(v: int) -> bytes:
        parts = sorted(codes[u] for u in adj[v] if removed[u])
        return b"(" + join(parts) + b")"

    if len(centers) == 1:
        return finish(centers[0])
    a, b = centers
    half_a, half_b = finish(a), finish(b)
    return min(half_a + half_b, half_b + half_a)


def canonical_code(t: Tree) -> CanonicalCode:
    """Order-invariant byte string identifying the tree up to isomorphism."""
    return _code_from_adjacency(t.adjacency)


@dataclass(frozen=True)
class TreeFamily:
    """Trees of one order (optionally one diameter), canonical-code ascending.

    codes[i] is the canonical code of members[i], carried from the generator
    that made it; iterating a family yields (code, tree) pairs.
    """

    n: int
    diameter: int | None
    members: tuple[Tree, ...]
    codes: tuple[CanonicalCode, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[CanonicalCode, Tree]]:
        return zip(self.codes, self.members)

    def where(self, keep: Callable[[Tree], bool], diameter: int | None) -> TreeFamily:
        """The members `keep` accepts, with their codes, as a family of `diameter`."""
        kept = [(code, t) for code, t in self if keep(t)]
        members, codes = tuple(t for _, t in kept), tuple(c for c, _ in kept)
        return TreeFamily(self.n, diameter, members, codes)


# order -> ((code, edges), ...) sorted by code; grown lazily and kept for reuse
_layers: dict[int, tuple[tuple[bytes, tuple[Edge, ...]], ...]] = {}


def _layer(n: int) -> tuple[tuple[bytes, tuple[Edge, ...]], ...]:
    cached = _layers.get(n)
    if cached is not None:
        return cached
    if n == 1:
        entries = ((b"()", ()),)
    else:
        found: dict[bytes, tuple[Edge, ...]] = {}
        for _, edges in _layer(n - 1):
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            adj[n - 1] = [0]
            for v in range(n - 1):
                adj[v].append(n - 1)
                adj[n - 1][0] = v
                code = _code_from_adjacency(adj)
                if code not in found:
                    found[code] = edges + ((v, n - 1),)
                adj[v].pop()
        entries = tuple(sorted(found.items()))
    _layers[n] = entries
    return entries


def enumerate_trees(n: int, cap: int = MAX_ORDER_DEFAULT) -> TreeFamily:
    """All non-isomorphic trees of order n, one representative per class."""
    if n < 1:
        raise InputError("order must be positive")
    if n > cap:
        raise ResourceLimitError(f"order {n} exceeds enumeration cap {cap}")
    layer = _layer(n)
    members = tuple(tree_from_edges(n, edges) for _, edges in layer)
    return TreeFamily(n, None, members, tuple(code for code, _ in layer))


def family(n: int, d: int, cap: int = MAX_ORDER_DEFAULT) -> TreeFamily:
    """Trees of order n with diameter exactly d (d = 0 only for n = 1)."""
    if n < 1:
        raise InputError("order must be positive")
    low = min(1, n - 1)
    if not low <= d <= n - 1:
        raise InputError(f"diameter {d} out of range {low}..{n - 1}")
    return enumerate_trees(n, cap).where(lambda t: t.diameter == d, d)


def _prufer_decode(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Adjacency lists of the labeled tree with the given code sequence."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        adj[leaf].append(v)
        adj[v].append(leaf)
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    return adj


_prufer_counts: dict[int, int] = {}


def prufer_oracle_count(n: int) -> int:
    """Distinct canonical codes over all n^(n-2) labeled-tree sequences.

    Independent of the growth generator; capped because the sequence space
    is exponential.
    """
    if n < 1:
        raise InputError("order must be positive")
    if n > PRUFER_ORACLE_MAX:
        raise ResourceLimitError(
            f"order {n} exceeds oracle cap {PRUFER_ORACLE_MAX}"
        )
    cached = _prufer_counts.get(n)
    if cached is not None:
        return cached
    if n <= 2:
        count = 1
    else:
        seen: set[bytes] = set()
        decode = _prufer_decode
        code = _code_from_adjacency
        for seq in itertools.product(range(n), repeat=n - 2):
            seen.add(code(decode(seq, n)))
        count = len(seen)
    _prufer_counts[n] = count
    return count


def census_line(code: CanonicalCode, t: Tree) -> str:
    """One census record: `code` in hex, then the edge list of `t`.

    `code` is t's canonical code as its TreeFamily carries it; nothing here
    recomputes or checks it. `census_line(*parse_census_line(line)) == line`.
    """
    edges = " ".join(f"{u}-{v}" for u, v in t.edges)
    return f"{code.hex()} {edges}".rstrip()


def parse_census_line(line: str) -> tuple[CanonicalCode, Tree]:
    """Inverse of `census_line`; ParseError unless the hex code is the
    canonical code of the tree the edges build."""
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
