"""Run one benchmark job in this process with kemtree's layer entry points traced.

Usage: python3 perfbench/tracer.py SUMMARY.json -m kemtree.cli ARGS...
       python3 perfbench/tracer.py SUMMARY.json -c CODE ARGS...

The job runs as `python <cmd>` would run it, with stdout going to this
process's stdout. Before it starts, each function in TRACED is replaced by
a wrapper that records a span (name, start, end, parent span) per call.
`from .x import y` copies the binding, so the wrapper replaces the original
function object in every kemtree module namespace that holds it.
Spans stay in memory; when the job ends the per-function self times, call
counts and observed result sizes are written to SUMMARY.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

# label -> (module, attribute path); labels are <layer>.<function>.
TRACED = {
    "cli.main": ("kemtree.cli", "main"),
    "enumeration.enumerate_trees": ("kemtree.enumeration", "enumerate_trees"),
    "enumeration.canonical_code": ("kemtree.enumeration", "canonical_code"),
    "enumeration.census_line": ("kemtree.enumeration", "census_line"),
    "enumeration.prufer_oracle_count": ("kemtree.enumeration", "prufer_oracle_count"),
    "graphs.tree_init": ("kemtree.graphs", "Tree.__init__"),
    "graphs.parse_edge_list": ("kemtree.graphs", "parse_edge_list"),
    "graphs.all_pairs_distances": ("kemtree.graphs", "all_pairs_distances"),
    "linalg.det_exact": ("kemtree.linalg", "det_exact"),
    "invariants.compute_invariants": ("kemtree.invariants", "compute_invariants"),
    "invariants.kemeny_forest_route": ("kemtree.invariants", "kemeny_forest_route"),
    "invariants.gutman_index": ("kemtree.invariants", "gutman_index"),
    "invariants.omega_weights": ("kemtree.invariants", "omega_weights"),
    "invariants.wiener_edge_cut_route": ("kemtree.invariants", "wiener_edge_cut_route"),
    "invariants.kemeny_wiener_route": ("kemtree.invariants", "kemeny_wiener_route"),
    "invariants.kemeny_edge_cut_route": ("kemtree.invariants", "kemeny_edge_cut_route"),
    "transforms.generate_mates_op1": ("kemtree.transforms", "generate_mates_op1"),
    "transforms.apply_op1": ("kemtree.transforms", "apply_op1"),
    "transforms.maximal_elements": ("kemtree.transforms", "maximal_elements"),
    "transforms.op2_delta_formula": ("kemtree.transforms", "op2_delta_formula"),
    "transforms.apply_op2": ("kemtree.transforms", "apply_op2"),
    "transforms.theorem_leaf_filter": ("kemtree.transforms", "theorem_leaf_filter"),
}


def _observe(label: str, args, result) -> list[tuple[str, int]]:
    """Result sizes the yield ratios are computed from."""
    if label == "enumeration.enumerate_trees":
        return [(f"family_size.{result.n}", len(result))]
    if label == "transforms.generate_mates_op1":
        return [("mate_pairs", len(result))]
    if label == "transforms.maximal_elements":
        return [("maximal_family", len(args[0])), ("maximal_kept", len(result))]
    return []


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: Span | None) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.observed: list[tuple[str, int]] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn):
        spans, observed = self.spans, self.observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool worker's outermost span belongs to the span that
            # submitted the work on the main thread.
            parent = stack[-1] if stack else (self._main_stack or [None])[-1]
            span = Span(label, parent)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                spans.append(span)
            observed.extend(_observe(label, args, result))
            return result

        return traced

    def install(self) -> None:
        import kemtree.cli  # noqa: F401  (loads every kemtree module)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kemtree"]
        for label, (modname, path) in TRACED.items():
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(modname)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(label, original)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def summary(self) -> dict:
        """Self seconds and calls per label: a span's duration minus the part
        of it that its child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        self_ns: Counter = Counter({label: 0 for label in TRACED})
        calls: Counter = Counter({label: 0 for label in TRACED})
        for span in self.spans:
            covered = 0
            reach = span.start
            for start, end in sorted(children.get(id(span), ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            self_ns[span.name] += span.end - span.start - covered
            calls[span.name] += 1
        observed: dict[str, int] = {}
        for key, value in self.observed:
            merge_observed(observed, {key: value})
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": dict(calls),
            "observed": observed,
        }


def merge_observed(into: dict[str, int], new: dict[str, int]) -> None:
    """Family sizes are per order, so repeats keep one value; other sizes add up."""
    for key, value in new.items():
        if key.startswith("family_size."):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


LAYERS = ("cli", "enumeration", "graphs", "linalg", "invariants", "transforms")
EDGE_CUT = (
    "invariants.omega_weights",
    "invariants.wiener_edge_cut_route",
    "invariants.kemeny_wiener_route",
    "invariants.kemeny_edge_cut_route",
)

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.main.self_s": ("s", "lower", "wall_s, cpu_s on family_scan (format, emit, pool)"),
    "enumeration.enumerate_trees.self_s": ("s", "lower", "wall_s on family_scan, surgery"),
    "enumeration.enumerate_trees.calls": ("count", "lower", "wall_s on family_scan, surgery"),
    "enumeration.canonical_code.self_s": ("s", "lower", "wall_s on family_scan"),
    "enumeration.canonical_code.calls": ("count", "lower", "wall_s on family_scan"),
    "enumeration.census_line.self_s": ("s", "lower", "wall_s on family_scan"),
    "enumeration.dedupe_yield": ("ratio", "higher", "wall_s on family_scan"),
    "enumeration.prufer_oracle_count.self_s": ("s", "lower", "wall_s, cpu_s on decode_oracle"),
    "graphs.tree_init.self_s": ("s", "lower", "wall_s, peak_rss_mb on family_scan, surgery"),
    "graphs.tree_init.calls": ("count", "lower", "wall_s, peak_rss_mb on family_scan, surgery"),
    "graphs.parse_edge_list.self_s": ("s", "lower", "wall_s on graph_kemeny (tree jobs)"),
    "graphs.all_pairs_distances.self_s": ("s", "lower", "wall_s on graph_kemeny (tree jobs)"),
    "linalg.det_exact.self_s": ("s", "lower", "wall_s on graph_kemeny (forest jobs)"),
    "linalg.det_exact.calls": ("count", "lower", "wall_s on graph_kemeny (forest jobs)"),
    "invariants.kemeny_forest_route.self_s": ("s", "lower", "wall_s on graph_kemeny"),
    "invariants.compute_invariants.self_s": ("s", "lower", "wall_s on graph_kemeny"),
    "invariants.gutman_index.self_s": ("s", "lower", "wall_s on graph_kemeny"),
    "invariants.edge_cut.self_s": ("s", "lower", "wall_s on family_scan, surgery"),
    "transforms.generate_mates_op1.self_s": ("s", "lower", "wall_s on surgery"),
    "transforms.apply_op1.self_s": ("s", "lower", "wall_s on surgery"),
    "transforms.apply_op1.calls": ("count", "lower", "wall_s on surgery"),
    "transforms.mates_yield": ("ratio", "higher", "wall_s on surgery"),
    "transforms.maximal_elements.self_s": ("s", "lower", "wall_s on surgery"),
    "transforms.op2_delta_formula.self_s": ("s", "lower", "wall_s on surgery"),
    "transforms.op2_delta_formula.calls": ("count", "lower", "wall_s on surgery"),
    "transforms.apply_op2.self_s": ("s", "lower", "wall_s on surgery"),
    "transforms.apply_op2.calls": ("count", "lower", "wall_s on surgery"),
    "transforms.move_yield": ("ratio", "higher", "wall_s on surgery"),
    "transforms.theorem_leaf_filter.self_s": ("s", "lower", "wall_s on surgery"),
    **{
        f"{layer}.calls": ("count", "lower", "zero on the workloads that leave the layer idle")
        for layer in LAYERS
    },
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s per pass"),
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, all but trace.overhead_s."""
    self_s, calls, seen = summary["self_s"], summary["calls"], summary["observed"]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        label, _, kind = name.rpartition(".")
        if label in TRACED:
            out[name] = summary[kind].get(label, 0)
    out["invariants.edge_cut.self_s"] = sum(self_s.get(label, 0.0) for label in EDGE_CUT)
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(n for label, n in calls.items() if label.startswith(layer + "."))
    # count(n) / ((n-1) count(n-1)) at the top order n enumerated with its
    # predecessor: the share of leaf attachments that give a new tree.
    sizes = {int(k.split(".")[1]): v for k, v in seen.items() if k.startswith("family_size.")}
    top = max((n for n in sizes if n - 1 in sizes), default=None)
    out["enumeration.dedupe_yield"] = _ratio(sizes[top], (top - 1) * sizes[top - 1]) if top else 0.0
    out["transforms.mates_yield"] = _ratio(seen.get("mate_pairs", 0), calls.get("transforms.apply_op1", 0))
    rejected = seen.get("maximal_family", 0) - seen.get("maximal_kept", 0)
    out["transforms.move_yield"] = _ratio(rejected, calls.get("transforms.apply_op2", 0))
    return out


def merge_summaries(summaries: list[dict]) -> dict:
    """One pass's summary: the sum over its jobs."""
    total = {"self_s": {}, "calls": {}, "observed": {}}
    for s in summaries:
        for key in ("self_s", "calls"):
            for label, value in s[key].items():
                total[key][label] = total[key].get(label, 0) + value
        merge_observed(total["observed"], s["observed"])
    return total


def run(cmd: list[str]) -> int:
    """Run `python <cmd>` in this process."""
    if cmd[:2] == ["-m", "kemtree.cli"]:
        import kemtree.cli

        return kemtree.cli.main(cmd[2:])
    if cmd and cmd[0] == "-c":
        sys.argv = ["-c", *cmd[2:]]
        exec(compile(cmd[1], "<string>", "exec"), {"__name__": "__main__"})
        return 0
    raise SystemExit(f"tracer: unsupported command {cmd!r}")


def main(argv: list[str]) -> int:
    out, *cmd = argv
    tracer = Tracer()
    tracer.install()
    try:
        return run(cmd)
    finally:
        sys.stdout.flush()
        with open(out, "w") as f:
            json.dump(tracer.summary(), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
