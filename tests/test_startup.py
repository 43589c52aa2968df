"""Start-up cost: which modules a fresh process loads, and the lazy package.

`kemtree/__init__` resolves its exports on first read, and the CLI imports
`fractions`, `json`, `hashlib` and every kemtree module but `errors` only
in the code paths that use them; it writes CSV without the `csv` module. The import-set checks run fresh
interpreters, since this test process has already loaded every module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kemtree as kt

import helpers

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(kt.__file__).resolve().parents[1])
SPIDER = "fixtures/spider_2_5.txt"
SUBMODULES = ("errors", "graphs", "linalg", "sparse", "invariants", "enumeration", "transforms")

# loaded only by the subcommands, outputs and records that need them; the
# decode oracle runs in the calling process, so nothing loads multiprocessing
CLI_FORBIDDEN = {
    "kemtree.transforms", "dataclasses", "inspect", "hashlib", "json", "csv",
    "multiprocessing", "concurrent.futures",
}
ORACLE_FORBIDDEN = {
    "kemtree.graphs", "kemtree.invariants", "kemtree.linalg", "kemtree.sparse",
    "kemtree.transforms", "multiprocessing", "concurrent.futures",
}
# The kemtree library modules a launch loads, beyond the package and the CLI
# module itself, and whether it loads `fractions`: the CLI module imports
# only `errors`, a tree's invariants read no matrix and run no elimination, a
# cyclic graph's read a matrix only on the forest route, the sparse route
# takes its connectivity check from `graphs`, not `invariants`, and the
# generator and the decode oracle build no Graph.
LAUNCHES = {
    "import kemtree.cli": (("-c", "import kemtree.cli"), {"errors"}, False),
    "import kemtree.sparse": (("-c", "import kemtree.sparse"), {"errors", "graphs", "sparse"}, True),
    "invariants on a tree": (
        ("-m", "kemtree.cli", "invariants", SPIDER), {"errors", "graphs", "invariants"}, True
    ),
    "invariants on a cyclic graph": (
        ("-m", "kemtree.cli", "invariants", "fixtures/unicycle_balanced.txt"),
        {"errors", "graphs", "invariants", "sparse"},
        True,
    ),
    "invariants --route forest": (
        ("-m", "kemtree.cli", "invariants", "fixtures/unicycle_balanced.txt", "--route", "forest"),
        {"errors", "graphs", "linalg", "invariants"},
        True,
    ),
    "enum 12": (("-m", "kemtree.cli", "enum", "12"), {"errors", "enumeration"}, False),
    "import the decode oracle": (
        ("-c", "from kemtree import prufer_oracle_count"), {"errors", "enumeration"}, False
    ),
    "run the decode oracle": (
        ("-c", "from kemtree import prufer_oracle_count; print(prufer_oracle_count(8))"),
        {"errors", "enumeration"},
        False,
    ),
}


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _modules_after(code: str) -> set[str]:
    proc = _python("-c", code + "\nimport sys\nprint(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@functools.cache
def _bare_modules() -> frozenset[str]:
    """What the interpreter loads before any kemtree import, site hooks included."""
    return frozenset(_modules_after("pass"))


def _importtime_modules(stderr: str) -> set[str]:
    """Module names in a `python -X importtime` log."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def test_importing_the_cli_loads_no_subcommand_only_module():
    loaded = _modules_after("import kemtree.cli")
    assert "kemtree.cli" in loaded
    assert not {"kemtree.enumeration", "kemtree.invariants"} & loaded
    assert not (loaded - _bare_modules()) & CLI_FORBIDDEN


def test_an_invariants_launch_loads_no_subcommand_only_module():
    proc = _python("-X", "importtime", "-m", "kemtree.cli", "invariants", SPIDER)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["kemeny", "29/2", "(14.5000)"]
    loaded = _importtime_modules(proc.stderr)
    assert {"kemtree.graphs", "kemtree.invariants"} <= loaded
    assert not {"kemtree.enumeration", "kemtree.linalg", "kemtree.sparse"} & loaded
    assert not (loaded - _bare_modules()) & CLI_FORBIDDEN


@pytest.mark.parametrize("launch", LAUNCHES)
def test_a_launch_loads_only_the_library_modules_it_runs(launch):
    argv, modules, loads_fractions = LAUNCHES[launch]
    proc = _python("-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = _importtime_modules(proc.stderr) - _bare_modules()
    library = {name.split(".", 1)[1] for name in loaded if name.startswith("kemtree.")}
    assert library - {"cli"} == modules
    assert ("fractions" in loaded) is loads_fractions
    assert "multiprocessing" not in loaded


def test_importing_the_decode_oracle_loads_only_its_modules():
    loaded = _modules_after("from kemtree import prufer_oracle_count")
    assert "kemtree.enumeration" in loaded
    assert not (loaded - _bare_modules()) & ORACLE_FORBIDDEN


def test_json_invariants_still_prints_the_input_digest():
    proc = _python("-m", "kemtree.cli", "--json", "invariants", SPIDER)
    assert proc.returncode == 0, proc.stderr
    inputs = json.loads(proc.stdout)["inputs"]
    digest = "4226480ad815d6933f8709861b2e9bbd0ea4024c7f70b6ef06f6689d2214e655"
    assert hashlib.sha256((ROOT / SPIDER).read_bytes()).hexdigest() == digest
    assert inputs == {
        "path": SPIDER,
        "sha256": digest,
        "n": 10,
        "m": 9,
        "edges": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6], [2, 7], [2, 8], [2, 9]],
    }


def test_every_export_resolves_and_is_listed():
    assert len(kt.__all__) == len(set(kt.__all__)) == 58
    submodules = [importlib.import_module(f"kemtree.{name}") for name in SUBMODULES]
    listed = dir(kt)
    for name in kt.__all__:
        value = getattr(kt, name)
        assert any(getattr(m, name, None) is value for m in submodules), name
        assert name in listed
    assert kt.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from kemtree import *", namespace)
    assert set(kt.__all__) <= set(namespace)
    assert namespace["Tree"] is importlib.import_module("kemtree.graphs").Tree
    assert namespace["covers"] is importlib.import_module("kemtree.transforms").covers


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kt.no_such_name
    assert not hasattr(kt, "no_such_name")
    with pytest.raises(ImportError):
        exec("from kemtree import no_such_name", {})


def test_traced_entry_points_stay_importable():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TRACED) == 22
    assert tracer.TRACED["graphs.tree_init"] == ("kemtree.graphs", "Tree.__init__")
    for module_name, path in tracer.TRACED.values():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def _assert_frozen(record, **fields):
    assert record._fields == tuple(fields)
    assert record._asdict() == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_invariant_records_keep_their_fields_and_are_frozen():
    t = helpers.load_tree("spider_2_5")
    report = kt.compute_invariants(t)
    _assert_frozen(
        report,
        n=10,
        m=9,
        wiener=108,
        gutman=261,
        kemeny=Fraction(29, 2),
        route=kt.KemenyRoute.EDGE_CUT,
    )
    weights = kt.omega_weights(t)
    _assert_frozen(weights, weights=weights.weights, total=108)
    assert sum(weights.multiset()) == 108


def test_transform_records_keep_their_fields_and_are_frozen():
    t = kt.tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    pd = kt.decompose_path(t, 0, 3)
    _assert_frozen(
        pd,
        tree=t,
        path=(0, 1, 2, 3),
        components=(frozenset({0}), frozenset({1, 4}), frozenset({2}), frozenset({3})),
    )
    assert (pd.d, pd.sizes) == (3, (1, 2, 1, 1))

    pair = kt.generate_mates_op1(kt.enumerate_trees(8))[0]
    _assert_frozen(
        pair,
        order=8,
        code_a=b"((()()()())(()))",
        code_b=b"((()())(())()())",
        edges_a=((0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (2, 4)),
        edges_b=((0, 1), (0, 2), (0, 6), (0, 7), (1, 3), (1, 5), (2, 4)),
        wiener=62,
    )
    assert kt.kemeny_from_wiener(pair.order, pair.wiener) == Fraction(143, 14)
    assert kt.canonical_code(kt.tree_from_edges(pair.order, pair.edges_a)) == pair.code_a
    assert kt.canonical_code(kt.tree_from_edges(pair.order, pair.edges_b)) == pair.code_b

    lower, upper = helpers.load_tree("spider_1_6"), helpers.load_tree("spider_2_5")
    witness = kt.covers(lower, upper)
    _assert_frozen(
        witness,
        lower=kt.canonical_code(lower),
        upper=kt.canonical_code(upper),
        host_vertices=witness.host_vertices,
        branch_vertices=witness.branch_vertices,
        attachment=witness.attachment,
        i1=witness.i1,
        i2=witness.i2,
        wiener_lower=100,
        wiener_upper=108,
    )
