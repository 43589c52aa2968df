import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import kemtree as kt
from kemtree import cli, enumeration, invariants, transforms
from kemtree.cli import main

import helpers

FIXTURES = helpers.FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_by_name(payload):
    return {row["name"]: row for row in payload["rows"]}


def test_invariants_unicycle(capsys):
    code, out, err = run(
        capsys, "--json", "invariants", str(FIXTURES / "unicycle_balanced.txt")
    )
    assert code == 0
    payload = json.loads(out)
    rows = rows_by_name(payload)
    assert rows["kemeny"]["value"] == "65/12"
    assert rows["kemeny"]["decimal"] == "5.4167"
    assert rows["wiener"]["value"] == "27"
    assert rows["route"]["value"] == "sparse"
    code, out, err = run(
        capsys, "--json", "invariants", str(FIXTURES / "unicycle_balanced.txt"), "--route", "forest"
    )
    assert code == 0
    rows = rows_by_name(json.loads(out))
    assert rows["route"]["value"] == "forest"
    assert rows["kemeny"]["value"] == "65/12"


def test_invariants_omega_table(capsys):
    code, out, err = run(
        capsys,
        "--json",
        "invariants",
        str(FIXTURES / "double_star_2_2.txt"),
        "--omega",
    )
    assert code == 0
    rows = rows_by_name(json.loads(out))
    assert rows["omega[0-1]"]["value"] == "9"
    pendant_edges = ["0-2", "0-3", "1-4", "1-5"]
    for e in pendant_edges:
        assert rows[f"omega[{e}]"]["value"] == "5"


def test_invariants_k2(capsys, tmp_path):
    f = tmp_path / "k2.txt"
    f.write_text("0 1\n")
    code, out, err = run(capsys, "--json", "invariants", str(f))
    rows = rows_by_name(json.loads(out))
    assert rows["wiener"]["value"] == "1"
    assert rows["kemeny"]["value"] == "1/2"


def test_invariants_wiener_route_requires_tree(capsys):
    code, out, err = run(
        capsys,
        "invariants",
        str(FIXTURES / "unicycle_balanced.txt"),
        "--route",
        "wiener",
    )
    assert code == 2
    assert "tree" in err


def test_invariants_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 1\n0 1\n")
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 2
    assert "line 2" in err


def test_invariants_negative_label_exits_2(capsys, tmp_path):
    f = tmp_path / "negative.txt"
    f.write_text("0 1\n-1 2\n")
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 2
    assert out == "" and err == "error: line 2: labels must be nonnegative\n"


def test_invariants_routes_print_one_kemeny(capsys):
    path = str(FIXTURES / "spider_2_5.txt")
    values = set()
    for route in ("auto", "forest", "wiener", "edgecut"):
        code, out, err = run(capsys, "--json", "invariants", path, "--route", route)
        assert code == 0
        rows = rows_by_name(json.loads(out))
        assert rows["route"]["value"] == ("edgecut" if route == "auto" else route)
        values.add(rows["kemeny"]["value"])
    tree = helpers.load_tree("spider_2_5")
    assert values == {kt.format_rational(kt.kemeny_forest_route(tree))}


@pytest.mark.parametrize(
    "text, line",
    [("0 1\n1 1000000000\n", 2), ("n 1000000000\n0 1\n", 1)],
)
def test_invariants_vertex_ceiling_exits_3(capsys, tmp_path, text, line):
    f = tmp_path / "big.txt"
    f.write_text(text)
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 3
    assert out == "" and err.startswith(f"error: line {line}: ")


def test_invariants_dense_limit_exits_3(capsys, tmp_path):
    limit = invariants.MAX_DENSE_VERTICES
    n = limit + 1
    f = tmp_path / "cycle.txt"
    f.write_text("".join(f"{v} {(v + 1) % n}\n" for v in range(n)))
    code, out, err = run(capsys, "invariants", str(f), "--route", "forest")
    assert code == 3
    assert out == "" and err == f"error: {n} vertices exceed the dense-route limit {limit}\n"


def test_invariants_non_utf8_exits_2(capsys, tmp_path):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"0 1\n1 2 # caf\xe9\n")
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 2
    assert err == "error: line 2: input is not UTF-8\n"


def test_invariants_nul_path_exits_2(capsys):
    code, out, err = run(capsys, "invariants", "a\x00b")
    assert code == 2
    assert out == ""
    assert err == "error: bad path 'a\\x00b': embedded null byte\n"


def test_invariants_non_ascii_digit_label_exits_2(capsys, tmp_path):
    f = tmp_path / "digits.txt"
    f.write_text("0 1\n1 \u0662\n", encoding="utf-8")
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: non-integer token '\u0662'\n"


def test_omega_rejects_a_non_tree_before_computing(capsys, monkeypatch):
    def forbidden(g):
        raise AssertionError("the forest route ran before the tree check")

    monkeypatch.setattr(invariants, "kemeny_forest_route", forbidden)
    path = str(FIXTURES / "unicycle_balanced.txt")
    for route in ("auto", "forest", "wiener", "edgecut"):
        code, out, err = run(capsys, "invariants", path, "--omega", "--route", route)
        assert code == 2
        assert out == ""
        assert err == "error: graph is not a tree (cyclic)\n"


def test_omega_builds_the_tree_once(capsys, monkeypatch):
    calls = []
    real = kt.Tree.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(kt.Tree, "__init__", counting)
    code, out, err = run(capsys, "invariants", str(FIXTURES / "spider_2_5.txt"), "--omega")
    assert code == 0
    assert "omega[" in out
    assert calls == [10]


def _count_tree_builds(monkeypatch) -> list:
    built = []
    real = kt.Tree.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(kt.Tree, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "12"],
        ["enum", "12", "--d", "5"],
        ["extremal", "12", "--objective", "max", "--metric", "kemeny"],
        ["extremal", "12", "--d", "4", "--objective", "min", "--metric", "wiener"],
        ["mates", "12", "--mode", "census"],
    ],
    ids="-".join,
)
def test_census_commands_build_no_tree(capsys, monkeypatch, argv):
    built = _count_tree_builds(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert built == []


def test_maximal_builds_trees_only_for_the_diameter_family(capsys, monkeypatch):
    # for each non-maximal member of family(12, 5), one Tree of the member
    # and the one rebuild that checks its rejecting move; nothing else
    fam = kt.family(12, 5)
    maximal = len(kt.maximal_elements(fam))
    built = _count_tree_builds(monkeypatch)
    code, out, err = run(capsys, "maximal", "12", "5", "--check-theorem")
    assert code == 0
    assert len(built) == 2 * (len(fam) - maximal)


def test_op1_mates_build_trees_only_for_sources_and_rebuilds(capsys, monkeypatch):
    # one Tree per source that yields a new pair, plus the rebuild per pair
    sources = set()
    real = transforms.apply_op1

    def recording(t, i1, i2):
        sources.add(t.edges)
        return real(t, i1, i2)

    monkeypatch.setattr(transforms, "apply_op1", recording)
    built = _count_tree_builds(monkeypatch)
    code, out, err = run(capsys, "--json", "mates", "12", "--mode", "op1")
    assert code == 0
    pairs = int(json.loads(out)["rows"][0]["value"])
    assert 0 < len(sources) < pairs < len(kt.enumerate_trees(12))
    assert len(built) == len(sources) + pairs


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(entry):
        raise ValueError("internal bug")

    monkeypatch.setattr(enumeration, "entry_line", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["enum", "4"])


def test_missing_file_exit_code(capsys, tmp_path):
    code, out, err = run(capsys, "invariants", str(tmp_path / "nope.txt"))
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "extremal", "9", "--objective", "min")
    assert code == 1


def test_extremal_min_kemeny_is_star(capsys):
    code, out, err = run(
        capsys, "--json", "extremal", "9", "--objective", "min", "--metric", "kemeny"
    )
    assert code == 0
    rows = rows_by_name(json.loads(out))
    assert rows["attaining_count"]["value"] == "1"
    star_code = kt.canonical_code(kt.tree_from_graph(helpers.star_graph(9)))
    assert rows["tree[0]"]["value"].split()[0] == star_code.hex()
    # the single-vertex tree has no edges, so its row ends at the code
    code, out, err = run(
        capsys, "extremal", "1", "--objective", "min", "--metric", "wiener"
    )
    assert code == 0
    assert out.endswith("  2829\n")


def test_extremal_max_wiener_is_path(capsys):
    code, out, err = run(
        capsys, "--json", "extremal", "9", "--objective", "max", "--metric", "wiener"
    )
    rows = rows_by_name(json.loads(out))
    assert rows["attaining_count"]["value"] == "1"
    path_code = kt.canonical_code(kt.tree_from_graph(helpers.path_graph(9)))
    assert rows["tree[0]"]["value"].split()[0] == path_code.hex()
    assert rows["wiener_max"]["value"] == str(9 * 80 // 6)


def test_extremal_10_4_max_kemeny(capsys):
    code, out, err = run(
        capsys,
        "--json",
        "extremal",
        "10",
        "--d",
        "4",
        "--objective",
        "max",
        "--metric",
        "kemeny",
    )
    rows = rows_by_name(json.loads(out))
    assert rows["attaining_count"]["value"] == "1"
    best = kt.canonical_code(helpers.load_tree("spider_2_2_2"))
    assert rows["tree[0]"]["value"].split()[0] == best.hex()
    assert rows["kemeny_max"]["value"] == "33/2"


def test_mates_census_n4_empty(capsys):
    code, out, err = run(capsys, "--json", "mates", "4")
    rows = rows_by_name(json.loads(out))
    assert rows["pair_count"]["value"] == "0"


def test_mates_census_refuses_more_pairs_than_the_limit(capsys, monkeypatch):
    fam = kt.enumerate_trees(9)
    classes = Counter(e.wiener for e in fam.entries)
    pairs = sum(c * (c - 1) // 2 for c in classes.values())
    monkeypatch.setattr(cli, "MAX_CENSUS_PAIRS", pairs)
    code, out, err = run(capsys, "--json", "mates", "9")
    assert code == 0
    assert rows_by_name(json.loads(out))["pair_count"]["value"] == str(pairs)
    monkeypatch.setattr(cli, "MAX_CENSUS_PAIRS", pairs - 1)
    code, out, err = run(capsys, "mates", "9")
    assert (code, out) == (3, "")
    assert err == f"error: {pairs} census pairs exceed the limit {pairs - 1}\n"


def test_mates_census_limit_admits_order_16_and_refuses_order_17():
    classes = Counter(e.wiener for e in kt.enumerate_trees(16).entries)
    order_16 = sum(c * (c - 1) // 2 for c in classes.values())
    assert order_16 == 1_014_096 <= cli.MAX_CENSUS_PAIRS
    # The equal-W pairs of the 48,629 trees of order 17, counted from
    # enumerate_trees(17, cap=17) as above; that layer takes seconds to build.
    order_17 = 10_654_242
    assert order_17 > cli.MAX_CENSUS_PAIRS


def _pair_code_sets(rows):
    by_name = {r["name"]: r["value"] for r in rows}
    count = int(by_name["pair_count"])
    return {
        frozenset(
            (
                by_name[f"pair[{i}].a"].split()[0],
                by_name[f"pair[{i}].b"].split()[0],
            )
        )
        for i in range(count)
    }


def test_mates_census_and_op1_n7(capsys):
    code, out, err = run(capsys, "--json", "mates", "7", "--mode", "census")
    census_pairs = _pair_code_sets(json.loads(out)["rows"])
    assert len(census_pairs) == 2  # ties at Wiener 46 and 48
    code, out, err = run(capsys, "--json", "mates", "7", "--mode", "op1")
    op1_pairs = _pair_code_sets(json.loads(out)["rows"])
    assert len(op1_pairs) == 1
    assert op1_pairs <= census_pairs


@pytest.mark.parametrize("mode, pairs, wieners", [("op1", 147, 59), ("census", 1843, 90)])
def test_mates_formats_each_wiener_index_once(capsys, monkeypatch, mode, pairs, wieners):
    calls = []
    real = cli._exact_cells

    def counting(value, places):
        calls.append(value)
        return real(value, places)

    monkeypatch.setattr(cli, "_exact_cells", counting)
    code, out, err = run(capsys, "--json", "mates", "12", "--mode", mode)
    assert code == 0
    rows = rows_by_name(json.loads(out))
    assert rows["pair_count"]["value"] == str(pairs)
    # one W cell and one K cell per distinct W among the pairs
    assert len(calls) == 2 * wieners
    printed = {rows[f"pair[{i}].wiener"]["value"] for i in range(pairs)}
    assert len(printed) == wieners


def test_maximal_10_4_report(capsys):
    code, out, err = run(
        capsys, "--json", "maximal", "10", "4", "--check-theorem"
    )
    assert code == 0
    rows = rows_by_name(json.loads(out))
    assert rows["filter_size"]["value"] == "7"
    assert rows["maximal_size"]["value"] == "3"
    assert rows["theorem_check"]["value"] == "ok"
    best = kt.canonical_code(helpers.load_tree("spider_2_2_2"))
    assert rows["argmax_kemeny"]["value"].split()[0] == best.hex()
    wieners = {rows[f"maximal[{i}].wiener"]["value"] for i in range(3)}
    assert wieners == {"112", "117", "114"}


def test_maximal_rebuild_disagreeing_with_the_sweep_exits_4(capsys, monkeypatch):
    # a rebuild of another diameter: only the maximality scan's check sees it
    def wrong_diameter(t, b_root, i1, i2):
        return kt.tree_from_graph(helpers.path_graph(t.n))

    monkeypatch.setattr(transforms, "apply_op2", wrong_diameter)
    code, out, err = run(capsys, "maximal", "8", "4")
    assert (code, out) == (4, "")
    assert "diameter screen and rebuild disagree" in err and "Traceback" not in err


def test_maximal_tree_escaping_the_leaf_filter_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        transforms, "theorem_leaf_filter", lambda fam: fam.where(lambda e: False, fam.diameter)
    )
    code, out, err = run(capsys, "maximal", "8", "4")
    assert code == 0
    code, out, err = run(capsys, "maximal", "8", "4", "--check-theorem")
    assert (code, out) == (4, "")
    assert err.startswith("error: maximal tree escaped the leaf filter: ")


def test_maximal_11_4_theorem_check_passes(capsys):
    code, out, err = run(capsys, "--json", "maximal", "11", "4", "--check-theorem")
    assert code == 0
    rows = rows_by_name(json.loads(out))
    assert rows["theorem_check"]["value"] == "ok"
    assert int(rows["maximal_size"]["value"]) <= int(rows["filter_size"]["value"])


def test_enum_census(capsys):
    code, out, err = run(capsys, "--json", "enum", "6")
    rows = rows_by_name(json.loads(out))
    assert rows["count"]["value"] == "6"
    for i in range(6):
        code_bytes, parsed = kt.parse_census_line(rows[f"tree[{i}]"]["value"])
        assert parsed.n == 6
        assert kt.canonical_code(parsed) == code_bytes


def test_enum_with_diameter_filter(capsys):
    code, out, err = run(capsys, "--json", "enum", "7", "--d", "6")
    rows = rows_by_name(json.loads(out))
    assert rows["count"]["value"] == "1"
    _, parsed = kt.parse_census_line(rows["tree[0]"]["value"])
    assert parsed.diameter == 6


def test_diameter_zero_is_the_one_vertex_family(capsys):
    code, out, err = run(capsys, "enum", "1", "--d", "0")
    assert code == 0
    assert (code, out) == run(capsys, "enum", "1")[:2]
    code, out, err = run(capsys, "maximal", "1", "0")
    assert code == 2
    assert out == ""
    assert err == "error: Kemeny's constant needs at least two vertices\n"


def test_order_is_checked_before_diameter(capsys):
    argv = ["extremal", "0", "--d", "5", "--objective", "min", "--metric", "wiener"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: order must be positive\n"


# Every subcommand that prints census lines, and the rows that hold them.
CENSUS_ARGV = [
    ["enum", "8"],
    ["enum", "7", "--d", "4"],
    ["enum", "1"],
    ["extremal", "9", "--objective", "min", "--metric", "kemeny"],
    ["extremal", "10", "--d", "4", "--objective", "max", "--metric", "wiener"],
    ["mates", "9", "--mode", "census"],
    ["mates", "9", "--mode", "op1"],
    ["maximal", "10", "4", "--check-theorem"],
]
CENSUS_ROW = re.compile(
    r"tree\[\d+\]|pair\[\d+\]\.[ab]|filter\[\d+\]|maximal\[\d+\]\.edges|argmax_kemeny"
)


@pytest.mark.parametrize("argv", CENSUS_ARGV, ids="-".join)
def test_printed_census_lines_round_trip(capsys, argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    lines = [r["value"] for r in rows if CENSUS_ROW.fullmatch(r["name"])]
    assert lines
    for line in lines:
        # parse_census_line rejects a code that is not the edges' own
        code, tree = kt.parse_census_line(line)
        assert kt.census_line(code, tree.edges) == line


def _count_calls(monkeypatch, name):
    """Record each call of kemtree's `name` through every module binding it."""
    calls = []
    original = getattr(kt, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        in_kemtree = module_name.split(".")[0] == "kemtree"
        if in_kemtree and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", CENSUS_ARGV, ids="-".join)
def test_only_op1_surgery_results_are_coded(capsys, monkeypatch, argv):
    codes = _count_calls(monkeypatch, "canonical_code")
    surgeries = _count_calls(monkeypatch, "apply_op1")
    assert run(capsys, *argv)[0] == 0
    assert len(codes) == len(surgeries)
    assert (len(surgeries) > 0) == ("op1" in argv)


def test_enum_over_cap_exit_code(capsys):
    code, out, err = run(capsys, "enum", "20")
    assert code == 3


def test_json_round_trip_recompute(capsys):
    code, out, err = run(
        capsys, "--json", "invariants", str(FIXTURES / "double_star_1_3.txt")
    )
    payload = json.loads(out)
    g = kt.Graph(payload["inputs"]["n"], payload["inputs"]["edges"])
    rows = rows_by_name(payload)
    d = kt.all_pairs_distances(g)
    assert kt.wiener_distance_route(d) == int(rows["wiener"]["value"])
    kappa = kt.kemeny_forest_route(g)
    assert kappa == Fraction(rows["kemeny"]["value"])
    assert payload["inputs"]["sha256"] == __import__("hashlib").sha256(
        (FIXTURES / "double_star_1_3.txt").read_bytes()
    ).hexdigest()


def test_output_deterministic_across_runs(capsys):
    args = ["--json", "maximal", "9", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("runtime_ms")
    p2.pop("runtime_ms")
    assert p1 == p2
    targs = ["maximal", "9", "4"]
    _, tout1, _ = run(capsys, *targs)
    _, tout2, _ = run(capsys, *targs)
    assert tout1 == tout2


# sha256 of CSV and JSON stdout with runtime_ms zeroed: frozen bytes, like
# the table digests in test_wiener_relation.GOLDEN.
EMIT_GOLDEN = {
    "--csv mates 10 --mode census": (
        "cfd5569c9242a9f536848a4b56ae36f3f7825aa9cfaea6ea014ec4744ddcfa04"
    ),
    "--json mates 10 --mode census": (
        "8b4f71adb494092eb874d89582a9ed8f0677425b43ec0f9ae6766b4f46e5d2f8"
    ),
    "--csv mates 10 --mode op1": (
        "1806ae3c16559fb1100815dc1742dac017757cd58865943d841a5cb81a797a50"
    ),
    "--json maximal 10 4 --check-theorem": (
        "cab00b80f4e74c2a0565af24c7ed25c541a666f8cd9e0c5e21e2583084f8b49c"
    ),
    "--csv invariants fixtures/spider_2_5.txt --omega": (
        "e54cc22227f25b28cd3e6a5ce27478e6d2431861fb731d792e773a441872c0f4"
    ),
    "--json invariants fixtures/unicycle_balanced.txt": (
        "1c59285a653d3e2ae71e9e339eec7929fadb6074d4d85cad14b5a2a5fa06c870"
    ),
}


@pytest.mark.parametrize("args", sorted(EMIT_GOLDEN))
def test_csv_and_json_stdout_digests_are_frozen(capsys, monkeypatch, args):
    monkeypatch.chdir(FIXTURES.parent)  # JSON prints the path as given
    code, out, err = run(capsys, *args.split())
    assert code == 0
    out = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_GOLDEN[args]


def test_table_and_csv_formats(capsys):
    code, out, err = run(capsys, "invariants", str(FIXTURES / "double_star_1_3.txt"))
    assert code == 0
    assert "kemeny" in out and "57/10" in out and "(5.7000)" in out
    assert "runtime_ms" in err
    code, out, err = run(
        capsys, "--csv", "invariants", str(FIXTURES / "double_star_1_3.txt")
    )
    lines = out.strip().splitlines()
    assert lines[0] == "name,value,decimal"
    assert any(line.startswith("kemeny,57/10,5.7000") for line in lines)


def test_csv_writes_its_runtime_to_stderr_after_the_rows(capsys):
    code, out, err = run(capsys, "--csv", "enum", "4")
    assert code == 0
    assert out.splitlines()[:2] == ["name,value,decimal", "count,2,"]
    assert re.fullmatch(r"# runtime_ms \d+\n", err)


def _rows_written_one_at_a_time(argv):
    """Table and CSV stdout of `argv`, each row formatted and written alone."""
    args = cli._build_parser().parse_args(argv)
    _, head, _, rest = args.fn(args)
    rows = [*head, *rest]
    width = max(len(name) for name, _, _ in rows)
    table = io.StringIO()
    for name, value, decimal in rows:
        line = f"{name:<{width}}  {value}"
        if decimal is not None:
            line += f"  ({decimal})"
        table.write(line + "\n")
    csv_out = io.StringIO()
    writer = csv.writer(csv_out)
    writer.writerow(["name", "value", "decimal"])
    for row in rows:
        writer.writerow(row)
    return rows, table.getvalue(), csv_out.getvalue()


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps what it is given and counts the writes."""

    def __init__(self):
        self.writes = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


CENSUS_11 = ["mates", "11", "--mode", "census"]


def test_table_and_csv_rows_in_batches_equal_rows_written_one_at_a_time(capsys):
    rows, table, csv_text = _rows_written_one_at_a_time(CENSUS_11)
    assert len(rows) == 2797  # 11 batches, the last one partial
    code, out, _ = run(capsys, *CENSUS_11)
    assert code == 0 and out == table
    code, out, _ = run(capsys, "--csv", *CENSUS_11)
    assert code == 0 and out == csv_text


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "8"],
        ["extremal", "9", "--objective", "max", "--metric", "kemeny"],
        ["mates", "9", "--mode", "op1"],
        ["maximal", "10", "4", "--check-theorem"],
        ["invariants", "fixtures/spider_2_5.txt", "--omega"],
    ],
    ids=" ".join,
)
def test_every_command_writes_the_rows_it_would_write_one_at_a_time(
    monkeypatch, capsys, argv
):
    monkeypatch.chdir(FIXTURES.parent)
    rows, table, csv_text = _rows_written_one_at_a_time(argv)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == table
    code, out, _ = run(capsys, "--csv", *argv)
    assert code == 0 and out == csv_text


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["table", "csv"])
def test_write_through_stdout_gets_one_write_per_batch(monkeypatch, capsys, fmt):
    # Under PYTHONUNBUFFERED stdout is write-through: each write is a system call.
    rows, table, csv_text = _rows_written_one_at_a_time(CENSUS_11)
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-8", write_through=True))
    assert main([*fmt, *CENSUS_11]) == 0
    assert raw.writes <= math.ceil(len(rows) / cli.EMIT_BATCH_ROWS) + 2
    assert raw.data.decode() == (csv_text if fmt else table)


@pytest.mark.parametrize("fmt", [[], ["--csv"], ["--json"]], ids=["table", "csv", "json"])
def test_emit_holds_at_most_a_batch_of_rows(monkeypatch, fmt):
    # Each row pulled from the command, less the rows already on stdout, is
    # a row the writer holds.
    written = []  # rows per write; CSV's first write also holds its header line
    held = []
    real = cli.cmd_mates

    class Stdout(io.StringIO):
        def write(self, text):
            written.append(text.count('{"name": ') if fmt == ["--json"] else text.count("\n"))
            return super().write(text)

    def pulling(args):
        inputs, head, width, rest = real(args)

        def rows():
            header_lines = 1 if fmt == ["--csv"] else 0
            for pulled, row in enumerate(rest, len(head) + 1):
                held.append(pulled - max(0, sum(written) - header_lines))
                yield row

        return inputs, head, width, rows()

    monkeypatch.setattr(cli, "cmd_mates", pulling)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main([*fmt, *CENSUS_11]) == 0
    assert len(held) == 2796  # every row but pair_count
    assert max(held) <= cli.EMIT_BATCH_ROWS + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mates", "9"],
        ["enum", "8"],
        ["maximal", "10", "5"],
        ["invariants", "fixtures/unicycle_balanced.txt"],
    ],
    ids=" ".join,
)
def test_json_is_written_as_json_dumps_writes_it(capsys, monkeypatch, argv):
    monkeypatch.chdir(FIXTURES.parent)
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert json.dumps(json.loads(out)) + "\n" == out


def test_threads_flag_is_usage_error(capsys):
    base = ["extremal", "8", "--objective", "max", "--metric", "kemeny"]
    for argv in (["--threads", "4", *base], ["--threads=1", *base]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


def test_places_flag(capsys):
    code, out, err = run(
        capsys,
        "--json",
        "--places",
        "6",
        "invariants",
        str(FIXTURES / "unicycle_balanced.txt"),
    )
    rows = rows_by_name(json.loads(out))
    assert rows["kemeny"]["decimal"] == "5.416667"


def test_negative_places_is_usage_error(capsys):
    code, out, err = run(capsys, "--places", "-1", "enum", "6")
    assert code == 1
    assert out == ""
    assert "--places" in err


def test_cap_above_the_hard_ceiling_is_a_usage_error(capsys, monkeypatch):
    def forbidden(n):
        raise AssertionError("_layer called")

    monkeypatch.setattr(enumeration, "_layer", forbidden)
    top = enumeration.MAX_ORDER_HARD
    code, out, err = run(capsys, "--cap", str(top + 1), "enum", "5")
    assert code == 1
    assert out == ""
    assert err == f"error: argument --cap: must be at most {top}, got {top + 1}\n"
    code, out, err = run(capsys, "--cap", str(top), "enum", str(top + 1))
    assert (code, out) == (3, "")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_1_is_a_usage_error(capsys, monkeypatch, cap):
    def forbidden(n):
        raise AssertionError("_layer called")

    monkeypatch.setattr(enumeration, "_layer", forbidden)
    code, out, err = run(capsys, "--cap", cap, "enum", "3")
    assert (code, out) == (1, "")
    assert err == f"error: argument --cap: must be at least 1, got {cap}\n"


def test_places_ceiling(capsys):
    path = str(FIXTURES / "unicycle_balanced.txt")
    top = cli.MAX_PLACES
    code, out, err = run(capsys, "--json", "--places", str(top), "invariants", path)
    assert code == 0
    decimal = rows_by_name(json.loads(out))["kemeny"]["decimal"]
    assert decimal == "5.41" + "6" * (top - 3) + "7"  # 65/12, rounded
    code, out, err = run(capsys, "--places", str(top + 1), "invariants", path)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --places: must be in 0..{top}, got {top + 1}\n"


def test_json_and_csv_together_is_usage_error(capsys):
    code, out, err = run(capsys, "--json", "--csv", "enum", "4")
    assert code == 1
    assert out == ""


def test_closed_stdout_pipe_exits_quietly():
    # enum 13 prints about 150 kB, more than a pipe buffer holds, so the
    # command is still writing when the reader goes away; CSV rows go
    # straight to stdout, so that writer fails mid-stream too.
    src = str(Path(kt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for fmt, header in [((), b"count"), (("--csv",), b"name,value,decimal")]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "kemtree.cli", *fmt, "enum", "13"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().startswith(header)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert b"Traceback" not in err
        assert proc.returncode == 0


def test_internal_check_failure_exits_4_without_traceback(capsys, monkeypatch):
    # a surgery that silently changes W must be caught by the mate check
    def wrong_surgery(t, i1, i2):
        return kt.tree_from_graph(helpers.path_graph(t.n))

    monkeypatch.setattr(transforms, "apply_op1", wrong_surgery)
    code, out, err = run(capsys, "mates", "7", "--mode", "op1")
    assert code == 4
    assert "changed the Wiener index" in err and "Traceback" not in err


def test_op1_screen_and_rebuild_disagreement_exits_4_without_traceback(
    capsys, monkeypatch
):
    # a surgery that keeps W but not the shape: only the code check sees it
    monkeypatch.setattr(transforms, "apply_op1", lambda t, i1, i2: t)
    code, out, err = run(capsys, "mates", "7", "--mode", "op1")
    assert code == 4
    assert "op1 screen and rebuild disagree" in err and "Traceback" not in err
