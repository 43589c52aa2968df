"""Tests of the benchmark's own reference code, correctness gate and tracer.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kemtree
import reference
import run
import tracer
from workloads import WORKLOADS, Job, cli_job

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_edge_list(path: Path) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for line in path.read_text().splitlines():
        tokens = line.split("#")[0].split()
        if len(tokens) == 2 and tokens[0] != "n":
            edges.append((int(tokens[0]), int(tokens[1])))
    return 1 + max(max(e) for e in edges), edges


@pytest.mark.parametrize(
    "name, kemeny", [("unicycle_balanced.txt", Fraction(65, 12)), ("unicycle_lopsided.txt", Fraction(73, 12))]
)
def test_resistance_form_on_unicycle_fixtures(name, kemeny):
    n, edges = read_edge_list(FIXTURES / name)
    assert reference.kemeny_resistance(n, edges) == kemeny


@pytest.mark.parametrize("n", range(2, 10))
def test_split_sizes_match_edge_cut_route(n):
    for t in kemtree.enumerate_trees(n).members:
        edges = list(t.edges)
        assert reference.kemeny_tree(n, edges) == kemtree.kemeny_edge_cut_route(t)
        assert reference.wiener_tree(n, edges) == kemtree.wiener_edge_cut_route(t)
        assert reference.wiener_bfs(n, edges) == kemtree.wiener_edge_cut_route(t)


def _unchecked(args: str) -> Job:
    return Job(f"kemtree {args}", ("-m", "kemtree.cli", *args.split()), lambda out: None)


def _stdout(job: Job, work: Path) -> bytes:
    result = run.run_pass([job], work, time.monotonic() + 60, False)
    assert result.errors == []
    return (work / "stdout").read_bytes()


def _printing(label: str, data: bytes, like: Job) -> Job:
    """A job that prints `data` and is checked as `like` is."""
    return Job(label, ("-c", f"import sys; sys.stdout.buffer.write({data!r})"), like.check)


def test_corrupted_stdout_counts_as_failed(tmp_path):
    census = _stdout(_unchecked("enum 6"), tmp_path)
    good_census = cli_job("enum 6", hashlib.sha256(census).hexdigest())
    bad_census = _printing("corrupted census", census.replace(b"0-1", b"0-2", 1), good_census)

    tree_job = next(j for j in WORKLOADS["graph_kemeny"].build(0, tmp_path) if j.label.endswith("n=400>"))
    rows = _stdout(tree_job, tmp_path)
    exact = next(x for x in rows.splitlines() if x.startswith(b"kemeny")).split()[1]
    bad_tree = _printing("corrupted kemeny", rows.replace(exact, exact + b"1"), tree_job)

    result = run.run_pass([good_census, bad_census, tree_job, bad_tree], tmp_path, time.monotonic() + 60, False)
    assert result.attempted == 4
    assert [e.split(":")[0] for e in result.errors] == ["corrupted census", "corrupted kemeny"]


def test_traced_counts_repeat_and_idle_layers_stay_zero(tmp_path):
    jobs = [_unchecked("mates 8 --mode op1"), _unchecked("maximal 9 4 --check-theorem")]
    metrics = []
    for _ in range(2):
        result = run.run_pass(jobs, tmp_path, time.monotonic() + 60, True)
        assert result.errors == []
        metrics.append(tracer.layer_metrics(tracer.merge_summaries(result.summaries)))
    counts = [{k: v for k, v in m.items() if k.endswith((".calls", "_yield"))} for m in metrics]
    assert counts[0] == counts[1]
    m = metrics[0]
    # enumerate_trees and Tree construction reached through transforms'
    # own bindings are traced too.
    assert m["enumeration.enumerate_trees.calls"] == 2
    assert m["graphs.tree_init.calls"] > m["transforms.apply_op1.calls"] > 0
    assert m["cli.calls"] == 2 and m["linalg.calls"] == 0
    assert 0 < m["transforms.mates_yield"] <= 1 and 0 < m["transforms.move_yield"] <= 1


def test_self_time_subtracts_the_union_of_overlapping_children():
    t = tracer.Tracer()
    parent = tracer.Span("cli.main", None)
    parent.start, parent.end = 0, 100
    a, b = tracer.Span("linalg.det_exact", parent), tracer.Span("linalg.det_exact", parent)
    a.start, a.end, b.start, b.end = 10, 40, 30, 60  # two pool threads at once
    t.spans.extend([a, b, parent])
    summary = t.summary()
    assert summary["self_s"]["cli.main"] == pytest.approx(50e-9)
    assert summary["self_s"]["linalg.det_exact"] == pytest.approx(60e-9)
    assert summary["calls"]["linalg.det_exact"] == 2


def test_scaled_pass_brackets_each_job_with_the_calibration_loop(tmp_path):
    jobs = [_unchecked("enum 5"), _unchecked("enum 6")]
    result = run.run_pass(jobs, tmp_path, time.monotonic() + 60, False, scaled=True)
    assert result.errors == [] and len(result.cal_s) == 3
    low, high = min(result.cal_s), max(result.cal_s)
    for raw, scaled in ((result.wall_s, result.wall_norm_s), (result.cpu_s, result.cpu_norm_s)):
        assert raw * run.CAL_REF_S / high <= scaled <= raw * run.CAL_REF_S / low
