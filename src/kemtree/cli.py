"""Command-line surface: invariants, enumeration, extremal search, mate
census, maximality reports, and census export.

Exact values are always printed as "p/q"; the decimal column is a
formatting of the exact value at emit time. Output on stdout is
deterministic for fixed inputs and flags. Each command returns its JSON
inputs, its header rows, the width of the widest name among its other rows
and an iterator over those rows. Every check that can end a run with an
error runs before the command returns; the iterator only formats. `main`
writes the rows as the iterator makes them, EMIT_BATCH_ROWS at a time in
every format, each batch joined into one string, so a run holds one batch
of rows, never its whole output, and its memory follows its family. Under
`python -u` or PYTHONUNBUFFERED stdout is write-through, so a write per
row was a system call per row (61,001 for `mates 13 --mode census`). JSON
is written by hand, a batch of row objects at a time, as exactly the bytes
`json.dumps` makes of the whole object. The wall-clock timing runs from the
command's start to its last row, so it includes the writes; it goes to
stderr as `# runtime_ms N` after table or CSV rows, and into the
`runtime_ms` JSON field, the object's last key.

At fixed order, Kemeny's constant K rises strictly with the Wiener index W
(`kemeny_from_wiener`), so equal W is the same as equal K: census mates are
the equal-W pairs, extremal ranks by W, and K is taken and formatted once
per W printed. Families carry each member's code, attachment sequence, W
and diameter from the generator, so `enum`, `extremal` and census `mates`
build no Tree: census lines format the carried code and attachment bytes
(`enumeration.entry_line`). The op1
mate scan and `maximal` read the same entries as adjacency lists and build
a Tree only for a move they report, its source and its checking rebuild;
only an op1 surgery result is coded afresh, and an op1 pair keeps the two
trees' edge tuples, not the Trees. Census `mates` counts its
pairs before it makes one and exits 3 above MAX_CENSUS_PAIRS, which admits
order 16 and refuses order 17.

A launch imports only what its subcommand runs. At module level this module
imports `argparse`, `errors` and modules that the interpreter loads at
start-up; each command imports the rest where it runs. `invariants` loads
`graphs`, `invariants` and `fractions`, `sparse` for a cyclic graph or
`--route sparse`, and `linalg` only for `--route forest`. `enum` loads only
`enumeration`: census lines need no Graph and no Fraction. `extremal` and census `mates` load
`enumeration` and `invariants` (with `graphs` and `fractions`), and op1
`mates` and `maximal` add `transforms`. A `--cap` loads `enumeration` for
its ceiling, MAX_ORDER_HARD. `json` loads only for JSON output, and
`hashlib` only for `invariants --json`, the one output that prints the
input's digest. CSV rows are written without the `csv` module.

A diameter runs from 1 to n - 1, or is 0 for the one-vertex tree
(`enum 1 --d 0`). `invariants --omega` checks that the graph is a tree
before any invariant is computed, so a non-tree exits 2 at once.

Exit codes: 0 ok, 1 usage, 2 parse/validation (also a path holding a NUL
byte, and a label or count not in ASCII decimal digits), 3 resource limit
(--cap, MAX_CENSUS_PAIRS, graphs.MAX_VERTICES, the sparse route's limits,
and invariants.MAX_DENSE_VERTICES for `--route forest`), 4 theorem
violation.
`--places` runs from 0 to MAX_PLACES and `--cap` from 1 to MAX_ORDER_HARD;
a value outside is a usage error. A reader that closes stdout early
(`kemtree enum 12 | head -1`) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

from .errors import InputError, KemtreeError, ParseError, ResourceLimitError
from .errors import TheoremViolationError

# Python refuses to print an int of more than 4300 digits, and the decimal
# column scales by 10**places, so display precision is capped well below.
MAX_PLACES = 1000
# Most pairs census `mates` prints. Its rows leave as they are made, so its
# memory follows the family and this bounds only output size and time. Order
# 16 has 1,014,096 pairs: in a fresh process 380 MB of table output in
# 3.4-5.6 s, 474 MB of JSON in 8.7 s and 366 MB of CSV in 12.7 s, each
# peaking at 26-27 MB (2-core Xeon, Python 3.11). Order 17 has 10,654,242
# pairs, about 4.2 GB of table output, and is refused.
MAX_CENSUS_PAIRS = 2_000_000
# Rows per stdout write in every format, so about the most rows a run holds.
# `mates 15 --mode census` peaked at 18.9 MB with 64- and 256-row batches and
# at 22.1 MB with 4,096-row ones; `--json mates 14 --mode census` at 16.7 MB
# with 256-row batches and 20.9 MB with 4,096-row ones.
EMIT_BATCH_ROWS = 256

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_THEOREM = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _exact_cells(value, places: int) -> tuple[str, str | None]:
    """The value and decimal cells of an exact value's row (an int or a
    Fraction; an int's denominator is 1)."""
    from .invariants import format_exact, format_rational

    exact = format_rational(value)
    return exact, (format_exact(value, places) if value.denominator != 1 else None)


def _row(name: str, value) -> tuple[str, str, None]:
    return name, str(value), None


def _exact_row(name: str, value, places: int) -> tuple[str, str, str | None]:
    return (name, *_exact_cells(value, places))


def _census_rows(name: str, entries):
    """A `name[i]` row holding each entry's census line."""
    from .enumeration import entry_line

    return ((f"{name}[{i}]", entry_line(e), None) for i, e in enumerate(entries))


def _index_width(name: str, count: int, suffix: str = "") -> int:
    """The length of the last of `count` names `name[i]suffix`, 0 for none."""
    return len(f"{name}[{count - 1}]{suffix}") if count else 0


def cmd_invariants(args):
    from pathlib import Path

    from .graphs import parse_edge_list, tree_from_graph
    from .invariants import compute_invariants, omega_weights

    try:
        data = Path(args.path).read_bytes()
    except ValueError as exc:  # a NUL byte in the path
        raise InputError(f"bad path {args.path!r}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("input is not UTF-8", line) from None
    g = parse_edge_list(text)
    t = tree_from_graph(g) if args.omega else None
    inv = compute_invariants(g if t is None else t, args.route)
    inputs = None
    if args.json:  # the only output that prints the inputs and their hash
        import hashlib

        inputs = {
            "path": str(args.path),
            "sha256": hashlib.sha256(data).hexdigest(),
            "n": g.n,
            "m": g.m,
            "edges": [list(e) for e in g.edges],
        }
    rows = [
        _row("n", inv.n),
        _row("m", inv.m),
        _row("route", inv.route.value),
        _exact_row("wiener", inv.wiener, args.places),
        _exact_row("gutman", inv.gutman, args.places),
        _exact_row("kemeny", inv.kemeny, args.places),
    ]
    if t is not None:
        weights = sorted(omega_weights(t).weights.items())
        rows += (_row(f"omega[{u}-{v}]", w) for (u, v), w in weights)
    return inputs, rows, 0, ()  # a few rows, all written as the header


def _family(args, d: int | None):
    """The trees of order `args.n`, of diameter `d` unless it is None, under
    `--cap` or else MAX_ORDER_DEFAULT."""
    from .enumeration import MAX_ORDER_DEFAULT, enumerate_trees, family

    cap = MAX_ORDER_DEFAULT if args.cap is None else args.cap
    if d is None:
        return enumerate_trees(args.n, cap=cap)
    return family(args.n, d, cap=cap)


def cmd_extremal(args):
    from .invariants import kemeny_from_wiener

    fam = _family(args, args.d)
    if not fam.entries:
        raise InputError(f"no tree of order {args.n} has diameter {args.d}")
    values = [e.wiener for e in fam.entries]
    best = min(values) if args.objective == "min" else max(values)
    attaining = [e for e in fam.entries if e.wiener == best]
    if args.metric == "kemeny":
        best = kemeny_from_wiener(args.n, best)
    inputs = {"n": args.n, "d": args.d, "objective": args.objective, "metric": args.metric}
    head = [
        _row("family_size", len(fam)),
        _exact_row(f"{args.metric}_{args.objective}", best, args.places),
        _row("attaining_count", len(attaining)),
    ]
    return inputs, head, _index_width("tree", len(attaining)), _census_rows("tree", attaining)


def _pair_rows(n: int, places: int, pairs):
    """The four rows of each (W, line a, line b) pair; at one order, equal W
    is equal K, so a W's two cells are formatted the first time it comes."""
    from .invariants import kemeny_from_wiener

    cells: dict[int, tuple] = {}  # W -> (wiener cells, kemeny cells)
    for idx, (w, line_a, line_b) in enumerate(pairs):
        if w not in cells:
            kappa = kemeny_from_wiener(n, w)
            cells[w] = (_exact_cells(w, places), _exact_cells(kappa, places))
        w_cells, kappa_cells = cells[w]
        name = f"pair[{idx}]"
        yield (name + ".wiener", *w_cells)
        yield (name + ".kemeny", *kappa_cells)
        yield (name + ".a", line_a, None)
        yield (name + ".b", line_b, None)


def cmd_mates(args):
    from .enumeration import census_line, entry_line

    fam = _family(args, None)
    # Both modes make (W, line a, line b) per pair.
    if args.mode == "op1":
        from .transforms import generate_mates_op1

        mates = generate_mates_op1(fam)
        count = len(mates)
        pairs = (
            (
                p.wiener,
                census_line(p.code_a, p.edges_a),
                census_line(p.code_b, p.edges_b),
            )
            for p in mates
        )
    else:
        buckets: dict[int, list[str]] = {}
        for e in fam.entries:
            buckets.setdefault(e.wiener, []).append(entry_line(e))
        count = sum(len(b) * (len(b) - 1) // 2 for b in buckets.values())
        if count > MAX_CENSUS_PAIRS:
            raise ResourceLimitError(f"{count} census pairs exceed the limit {MAX_CENSUS_PAIRS}")
        pairs = (
            (w, line_a, line_b)
            for w, lines in sorted(buckets.items())
            for line_a, line_b in itertools.combinations(lines, 2)
        )
    return (
        {"n": args.n, "mode": args.mode},
        [_row("pair_count", count)],
        _index_width("pair", count, ".wiener"),
        _pair_rows(args.n, args.places, pairs),
    )


def cmd_maximal(args):
    from .enumeration import entry_line
    from .invariants import kemeny_from_wiener
    from .transforms import maximal_elements, theorem_leaf_filter

    fam = _family(args, args.d)
    survivors = theorem_leaf_filter(fam)
    maximal = maximal_elements(fam)
    if args.check_theorem:
        survivor_codes = set(survivors.codes)
        for e in maximal.entries:
            if e.code not in survivor_codes:
                raise TheoremViolationError(
                    f"maximal tree escaped the leaf filter: {entry_line(e)}"
                )
    # The maximal rows are made here, so that their K, which fails below two
    # vertices, is taken before any output; the filter rows are made as written.
    rows = []
    for idx, e in enumerate(maximal.entries):
        kappa = kemeny_from_wiener(args.n, e.wiener)
        rows += (
            _row(f"maximal[{idx}].edges", entry_line(e)),
            _exact_row(f"maximal[{idx}].wiener", e.wiener, args.places),
            _exact_row(f"maximal[{idx}].kemeny", kappa, args.places),
        )
    if maximal.entries:
        best = max(maximal.entries, key=lambda e: e.wiener)  # the first of equals
        rows.append(_row("argmax_kemeny", entry_line(best)))
        if args.check_theorem:
            rows.append(_row("theorem_check", "ok"))
    head = [
        _row("family_size", len(fam)),
        _row("filter_size", len(survivors)),
        _row("maximal_size", len(maximal)),
    ]
    width = max([_index_width("filter", len(survivors)), *(len(name) for name, _, _ in rows)])
    rest = itertools.chain(_census_rows("filter", survivors.entries), rows)
    return {"n": args.n, "d": args.d}, head, width, rest


def cmd_enum(args):
    fam = _family(args, args.d)
    inputs, head = {"n": args.n, "d": args.d}, [_row("count", len(fam))]
    return inputs, head, _index_width("tree", len(fam)), _census_rows("tree", fam.entries)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kemtree", description=__doc__)
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit one JSON object")
    fmt.add_argument("--csv", action="store_true", help="emit CSV rows")
    parser.add_argument(
        "--places", type=int, default=4, help="decimal places for display"
    )
    parser.add_argument("--cap", type=int, help="enumeration order cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Wiener, Gutman, Kemeny of one graph")
    p.add_argument("path")
    p.add_argument(
        "--route",
        choices=["auto", "sparse", "forest", "wiener", "edgecut"],
        default="auto",
        help="auto: edgecut on a tree, sparse otherwise",
    )
    p.add_argument("--omega", action="store_true", help="include edge weights")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("extremal", help="extremal trees of one order")
    p.add_argument("n", type=int)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--objective", choices=["min", "max"], required=True)
    p.add_argument("--metric", choices=["wiener", "kemeny"], required=True)
    p.set_defaults(fn=cmd_extremal)

    p = sub.add_parser("mates", help="equal-Kemeny tree pairs of one order")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=["census", "op1"], default="census")
    p.set_defaults(fn=cmd_mates)

    p = sub.add_parser("maximal", help="cover-maximal trees of (order, diameter)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--check-theorem", action="store_true")
    p.set_defaults(fn=cmd_maximal)

    p = sub.add_parser("enum", help="census export of one order")
    p.add_argument("n", type=int)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(fn=cmd_enum)

    return parser


def _batches(rows):
    """The rows of an iterable in lists of EMIT_BATCH_ROWS, each written as
    one string."""
    rows = iter(rows)
    while batch := list(itertools.islice(rows, EMIT_BATCH_ROWS)):
        yield batch


def _emit(args, inputs: dict | None, head: list, width: int, rest, start: float) -> None:
    """Write `head`, then `rest`, a batch at a time, then the milliseconds
    since `start`. `width` is the widest name in `rest`."""
    write = sys.stdout.write
    batches = _batches(itertools.chain(head, rest))
    if args.json:
        from json import dumps

        # Exactly the bytes of json.dumps({"command": ..., "inputs": ...,
        # "rows": [...], "runtime_ms": ...}), the rows dumped a batch at a time.
        write(f'{{"command": {dumps(args.command)}, "inputs": {dumps(inputs)}, "rows": [')
        sep = ""
        for batch in batches:
            objects = [
                {"name": name, "value": value}
                if decimal is None
                else {"name": name, "value": value, "decimal": decimal}
                for name, value, decimal in batch
            ]
            write(sep + dumps(objects)[1:-1])
            sep = ", "
    elif args.csv:
        # The bytes csv.writer makes: no name or value printed here can hold a
        # comma, a quote, CR or LF (names are fixed or indexed; values are ints,
        # p/q, decimals, census lines, route names or ok; no path is printed),
        # so no field needs quoting. A row that could hold one needs csv back.
        write("name,value,decimal\r\n")
        for batch in batches:
            lines = [f"{name},{value},{decimal or ''}\r\n" for name, value, decimal in batch]
            write("".join(lines))
    else:
        width = max([width, *(len(name) for name, _, _ in head)])
        for batch in batches:
            lines = [
                f"{name.ljust(width)}  {value}\n"
                if decimal is None
                else f"{name.ljust(width)}  {value}  ({decimal})\n"
                for name, value, decimal in batch
            ]
            write("".join(lines))
    runtime_ms = int((time.perf_counter() - start) * 1000)
    if args.json:
        write(f'], "runtime_ms": {runtime_ms}}}\n')
    else:
        sys.stderr.write(f"# runtime_ms {runtime_ms}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 <= args.places <= MAX_PLACES:
            parser.error(
                f"argument --places: must be in 0..{MAX_PLACES}, got {args.places}"
            )
        if args.cap is not None:  # unset: the enumerating commands use MAX_ORDER_DEFAULT
            from .enumeration import MAX_ORDER_HARD

            if args.cap < 1:
                parser.error(f"argument --cap: must be at least 1, got {args.cap}")
            if args.cap > MAX_ORDER_HARD:
                parser.error(
                    f"argument --cap: must be at most {MAX_ORDER_HARD}, got {args.cap}"
                )
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        inputs, head, width, rest = args.fn(args)
    except (KemtreeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, ResourceLimitError):
            return EXIT_RESOURCE
        return EXIT_THEOREM if isinstance(exc, TheoremViolationError) else EXIT_INPUT
    try:
        _emit(args, inputs, head, width, rest, start)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device so the flush at interpreter exit
        # cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
