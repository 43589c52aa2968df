"""The Kemeny–Wiener relation and the CLI shortcuts that rest on it.

Census mode pairs trees by equal W and extremal ranks by W; both are
checked here against the forest route, which never looks at W.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import kemtree as kt
from kemtree import enumeration, invariants
from kemtree.cli import main
from kemtree.errors import InputError

import helpers


def _rows(capsys, *argv):
    assert main(["--json", *argv]) == 0
    return {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["rows"]}


def test_kemeny_from_wiener_small_cases():
    assert kt.kemeny_from_wiener(2, 1) == Fraction(1, 2)
    assert kt.kemeny_from_wiener(3, 4) == Fraction(3, 2)
    for n in range(2, 12):
        star = kt.tree_from_graph(helpers.star_graph(n))
        assert kt.kemeny_from_wiener(n, (n - 1) ** 2) == n - Fraction(3, 2)
        assert kt.kemeny_wiener_route(star) == kt.kemeny_edge_cut_route(star)
        ks = [kt.kemeny_from_wiener(n, w) for w in range(n * n)]
        assert ks == sorted(set(ks))  # strictly increasing in W
    with pytest.raises(InputError, match="two vertices"):
        kt.kemeny_from_wiener(1, 0)
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("n", range(4, 10))
def test_census_pairs_are_the_equal_forest_route_pairs(capsys, n):
    rows = _rows(capsys, "mates", str(n), "--mode", "census")
    got = [
        (
            rows[f"pair[{i}].a"].split()[0],
            rows[f"pair[{i}].b"].split()[0],
            Fraction(rows[f"pair[{i}].kemeny"]),
        )
        for i in range(int(rows["pair_count"]))
    ]
    trees = helpers.members(kt.enumerate_trees(n))
    scored = [
        (kt.canonical_code(t).hex(), kt.kemeny_forest_route(t)) for t in trees
    ]
    want = [
        (code_a, code_b, ka)
        for (code_a, ka), (code_b, kb) in itertools.combinations(scored, 2)
        if ka == kb
    ]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("n", range(3, 10))
def test_extremal_kemeny_matches_a_forest_route_ranking(capsys, n):
    trees = helpers.members(kt.enumerate_trees(n))
    kappa = {t: kt.kemeny_forest_route(t) for t in trees}
    for d in [None, *range(2, n)]:
        members = [t for t in trees if d is None or t.diameter == d]
        for objective, pick in (("min", min), ("max", max)):
            argv = ["extremal", str(n), "--objective", objective, "--metric", "kemeny"]
            rows = _rows(capsys, *argv, *([] if d is None else ["--d", str(d)]))
            best = pick(kappa[t] for t in members)
            assert rows[f"kemeny_{objective}"] == kt.format_rational(best)
            lines = [rows[f"tree[{i}]"] for i in range(int(rows["attaining_count"]))]
            assert lines == [
                kt.census_line(kt.canonical_code(t), t.edges)
                for t in members
                if kappa[t] == best
            ]


def test_extremal_input_errors_exit_2(capsys):
    base = ["--objective", "min", "--metric", "kemeny"]
    assert main(["extremal", "5", "--d", "1", *base]) == 2
    assert capsys.readouterr().err == "error: no tree of order 5 has diameter 1\n"
    assert main(["extremal", "1", *base]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Kemeny's constant needs at least two vertices\n"


def test_census_mode_converts_once_per_tied_wiener_value(capsys, monkeypatch):
    calls = {"entry_line": 0, "kemeny_from_wiener": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    # the CLI imports each where it runs, so each is patched where it is defined
    for module, name in ((enumeration, "entry_line"), (invariants, "kemeny_from_wiener")):
        monkeypatch.setattr(module, name, counted(module, name))
    rows = _rows(capsys, "mates", "10", "--mode", "census")
    wieners = [kt.wiener_edge_cut_route(t) for t in helpers.members(kt.enumerate_trees(10))]
    tied = {w for w in wieners if wieners.count(w) > 1}
    assert int(rows["pair_count"]) > len(tied) > 0
    assert calls == {"entry_line": len(wieners), "kemeny_from_wiener": len(tied)}


def test_census_mode_formats_once_per_tied_wiener_value(capsys, monkeypatch):
    calls = {"format_rational": 0, "format_exact": 0}

    def counted(name):
        original = getattr(invariants, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(invariants, name, counted(name))
    rows = _rows(capsys, "mates", "10", "--mode", "census")
    wieners = [kt.wiener_edge_cut_route(t) for t in helpers.members(kt.enumerate_trees(10))]
    tied = {w for w in wieners if wieners.count(w) > 1}
    assert int(rows["pair_count"]) > len(tied) > 0
    # a W cell and a K cell per tied W; every K of order 10 is a fraction
    assert calls == {"format_rational": 2 * len(tied), "format_exact": len(tied)}


def test_census_mode_without_pairs_takes_no_kemeny(capsys):
    for n in ("1", "2", "3"):
        assert main(["mates", n]) == 0
        assert capsys.readouterr().out == "pair_count  0\n"


# sha256 of the table-mode stdout, frozen from the code that ranked and
# paired trees by Kemeny's constant itself.
GOLDEN = {
    "mates 11 --mode census": (
        "904495f574105cede2eea36b5623e79f1b33438ed54fb8653be5afa615230c56"
    ),
    "mates 11 --mode op1": (
        "4a6b08c318dd954ce645508ea069267ddf78ad8a26c8e2fc1724292549e98fca"
    ),
    "extremal 11 --objective max --metric kemeny": (
        "8a43a6891b34704d50305cf37c1125b7176b5f82aa9ba2bfe3f9521bd75f9638"
    ),
    "extremal 11 --d 4 --objective min --metric kemeny": (
        "4e9dbc770a660bdc7fa1755cb5b351b02b817bf63ebb71562715106818bd19de"
    ),
    "maximal 11 4 --check-theorem": (
        "7d2cb0f0c25233cd61375b6012d719dffbfc782d57da4bcecc90c13f3fd8ddcc"
    ),
    "extremal 1 --objective min --metric wiener": (
        "fc0524f6401b493be3194fb4735e7ec5e00257e32e095f035953e53a4811bfcd"
    ),
    # frozen from the generator that coded every leaf attachment from scratch
    "enum 16": (
        "9abbc522df0ba13b5f78edc49943996b71f09bd4a999511384944aeb9158edfa"
    ),
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_table_stdout_digest_is_frozen(capsys, args):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[args]
