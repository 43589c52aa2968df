"""The benchmark's workloads: the jobs of one pass and how each output is checked.

A job is one fresh interpreter, `python <cmd>`, as a user would start it.
Fixed-order jobs are whole families fixed by their order, so their stdout
is checked against a sha256 digest frozen from the seed code. Only
`graph_kemeny` depends on the seed: it writes random graphs into the run's
work directory and checks the printed values against `reference`.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# Returns None when the stdout is right, else why it is wrong.
Check = Callable[[bytes], str | None]


@dataclass(frozen=True)
class Job:
    label: str
    cmd: tuple[str, ...]  # arguments after the interpreter
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Job]]  # (seed, work dir) -> jobs of one pass


def digest_check(expected: str) -> Check:
    def check(out: bytes) -> str | None:
        got = hashlib.sha256(out).hexdigest()
        return None if got == expected else f"stdout sha256 {got} != {expected}"

    return check


def cli_job(args: str, digest: str) -> Job:
    return Job(f"kemtree {args}", ("-m", "kemtree.cli", *args.split()), digest_check(digest))


# sha256 of each job's stdout, taken from the seed code. The orders are one
# below the largest the census and surgery jobs reach in a few seconds, so a
# run holds several whole passes.
FAMILY_SCAN = (
    ("enum 15", "e636184f12ae7ab0006a4f40260308ae3fc930219eea786fef353c6163cc3444"),
    (
        "extremal 14 --objective max --metric kemeny",
        "d9c93ea30714908c9cffebb38acdaa335e8a127f9e537d33c0feca8102fcf4d6",
    ),
    ("mates 13 --mode census", "1fd37ef10a71e4d51335a84a9d630d150c01fa74ea29f59ecde41d48633108ce"),
)
SURGERY = (
    ("mates 14 --mode op1", "467e80da54703ab68f96767927caa5cb67df2ff71880410dd2e3956de0a6cab5"),
    ("maximal 13 6 --check-theorem", "13c65a7bda9c93dc0ea3dc7e44abc3e3d49f7aa4d210501ed5c4fa29f43c40be"),
)

ORACLE_ORDER = 8
ORACLE_COUNT = 23  # non-isomorphic trees of order 8
ORACLE_CODE = (
    "import sys\n"
    "from kemtree import prufer_oracle_count\n"
    "print(prufer_oracle_count(int(sys.argv[1])))\n"
)

# (n, m) of the cyclic graphs: m from 1.25n to 2n, so the auto route is
# the forest route with its n(n-1)/2 determinants. Its cost grows steeply
# with n; these orders keep a pass short enough for several in one run.
CYCLIC_SIZES = ((32, 40), (34, 51), (36, 63), (38, 76))
TREE_ORDERS = (400, 800, 1200)
OMEGA_ORDER = 400


def _fixed(jobs) -> Callable[[int, Path], list[Job]]:
    return lambda seed, work: [cli_job(args, digest) for args, digest in jobs]


def _decode_oracle(seed: int, work: Path) -> list[Job]:
    expected = f"{ORACLE_COUNT}\n".encode()

    def check(out: bytes) -> str | None:
        return None if out == expected else f"stdout {out[:40]!r} != {expected!r}"

    cmd = ("-c", ORACLE_CODE, str(ORACLE_ORDER))
    return [Job(f"prufer_oracle_count({ORACLE_ORDER})", cmd, check)]


def random_connected(rng: random.Random, n: int, m: int) -> list[reference.Edge]:
    """A random spanning tree plus random chords up to m edges, relabelled."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in sorted(edges)]
    rng.shuffle(out)
    return out


def random_tree(rng: random.Random, n: int) -> list[reference.Edge]:
    """A uniform random labelled tree, decoded from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    rng.shuffle(edges)
    return edges


def _rows(out: bytes) -> dict[str, str]:
    """Table-mode rows of the CLI: name, then the exact value."""
    rows = {}
    for line in out.decode().splitlines():
        parts = line.split()
        if len(parts) >= 2:
            rows[parts[0]] = parts[1]
    return rows


def values_check(expected: dict[str, str], omega_rows: int = 0) -> Check:
    def check(out: bytes) -> str | None:
        rows = _rows(out)
        for name, value in expected.items():
            if rows.get(name) != value:
                return f"{name} = {rows.get(name)!r}, expected {value!r}"
        got = sum(name.startswith("omega[") for name in rows)
        if got != omega_rows:
            return f"{got} omega rows, expected {omega_rows}"
        return None

    return check


def _write_graph(path: Path, n: int, edges) -> None:
    path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def _graph_kemeny(seed: int, work: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, m in CYCLIC_SIZES:
        edges = random_connected(rng, n, m)
        path = work / f"cyclic_{n}_{m}.txt"
        _write_graph(path, n, edges)
        expected = {
            "wiener": str(reference.wiener_bfs(n, edges)),
            "kemeny": reference.exact_str(reference.kemeny_resistance(n, edges)),
        }
        cmd = ("-m", "kemtree.cli", "invariants", str(path))
        jobs.append(Job(f"kemtree invariants <cyclic n={n} m={m}>", cmd, values_check(expected)))
    for n in TREE_ORDERS:
        edges = random_tree(rng, n)
        path = work / f"tree_{n}.txt"
        _write_graph(path, n, edges)
        expected = {
            "wiener": str(reference.wiener_tree(n, edges)),
            "kemeny": reference.exact_str(reference.kemeny_tree(n, edges)),
        }
        cmd = ("-m", "kemtree.cli", "invariants", str(path))
        jobs.append(Job(f"kemtree invariants <tree n={n}>", cmd, values_check(expected)))
        if n == OMEGA_ORDER:
            splits = reference.split_sizes(n, edges)
            omega = {f"omega[{u}-{v}]": str(s * (n - s)) for (u, v), s in splits.items()}
            check = values_check({**expected, **omega}, n - 1)
            jobs.append(Job(f"kemtree invariants <tree n={n}> --omega", (*cmd, "--omega"), check))
    return jobs


# The reasons match the workload list of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "family_scan",
            "enum 15, extremal 14, mates 13 census: the census path every user hits "
            "(enumeration, Tree builds, edge-cut invariants, emit, thread pool)",
            _fixed(FAMILY_SCAN),
        ),
        Workload(
            "surgery",
            "mates 14 op1 and maximal 13 6: the paper's surgeries and cover-maximality "
            "scan, each rebuilding a Tree per candidate",
            _fixed(SURGERY),
        ),
        Workload(
            "graph_kemeny",
            "seeded random cyclic graphs (forest route, exact determinants) and large "
            "random trees: few big inputs instead of many tiny ones",
            _graph_kemeny,
        ),
        Workload(
            "decode_oracle",
            "prufer_oracle_count(8): the decode-sequence oracle that dominates the test "
            "suite; no CLI job reaches it",
            _decode_oracle,
        ),
    )
}
