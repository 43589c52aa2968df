"""kemtree benchmark: closed-loop workloads over the CLI and the decode oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client runs the workload's jobs one at a time, each in a fresh
interpreter (`python -m kemtree.cli ...`, or `python -c` calling a public
library function), and repeats whole passes for about S seconds. Every
output is checked; a wrong exit code, wrong stdout or timeout fails the job.

--trace 0 reports the end-to-end metrics, as medians over passes:
  wall_s       wall seconds of one pass (sum over its jobs)
  cpu_s        user+sys CPU seconds of the pass's job processes (os.wait4)
  wall_norm_s  wall_s at the reference host speed (see below)
  cpu_norm_s   cpu_s at the reference host speed
  peak_rss_mb  largest own max-RSS (MiB) of any job in the pass (os.wait4)
  setup_s      fresh interpreter start until `import kemtree.cli` completes,
               median over repeated launches made between the jobs
On a shared host, other tenants slow every process for minutes at a time,
by up to half, and CPU time slows with wall time. So a fixed pure-Python
calibration loop runs in this process before and after every job, and each
job's times are scaled by CAL_REF_S over the mean of the two loop times:
the seconds the job would take on a host that runs the loop in CAL_REF_S.
The raw wall_s and cpu_s are printed beside the scaled ones.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of `tracer.PER_LAYER`; call counts and yields must repeat exactly
across the traced passes.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Job stdout, generated graphs and trace summaries go to
`.perfbench-work/` under the repository root, which is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tracer
from workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(tracer.__file__).resolve()
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

RUN_LIMIT_S = 170.0  # a run never takes longer than 180 s, whatever its jobs do
JOB_TIMEOUT_S = 120.0
SETUP_LAUNCHES = 11
SETUP_CODE = "import time, kemtree.cli; print(time.monotonic())"
BARE_CODE = "import time; print(time.monotonic())"
CAL_REPS = 500
CAL_REF_S = 0.14  # about the loop's time on an idle 2.1 GHz Xeon core, Python 3.11


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_norm_s: float = 0.0
    cpu_norm_s: float = 0.0
    cal_s: list[float] = field(default_factory=list)  # loop times around the jobs
    rss_mb: float = 0.0
    elapsed_s: float = 0.0  # wall_s plus checking and setup launches
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop of the kind of
    work kemtree does: BFS over random trees in dicts and lists, sorted
    tuples and Fraction sums."""
    rng = random.Random(0)
    total = Fraction(0)
    t0 = time.perf_counter()
    for rep in range(CAL_REPS):
        n = 60
        adj: dict[int, list[int]] = {v: [] for v in range(n)}
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        for s in range(0, n, 4):
            dist = {s: 0}
            queue = [s]
            for x in queue:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            code = tuple(sorted(dist.values()))
            total += Fraction(sum(code), len(code) + rep)
    return time.perf_counter() - t0


def _spawn(argv: list[str], stdout, stderr, timeout: float):
    """Run argv to completion; (exit code, wall s, cpu s, max RSS MiB) from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=ENV, cwd=ROOT)

    def on_alarm(signum, frame):
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no job running
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_pass(
    jobs: list[Job],
    work: Path,
    deadline: float,
    traced: bool,
    between: Callable[[], None] = lambda: None,
    scaled: bool = False,
) -> PassResult:
    """Each job once, in order; `between` runs after each job, outside its
    timing. With `scaled`, the calibration loop runs before the first job
    and after each job, and the scaled times are filled in."""
    result = PassResult(traced)
    t0 = time.perf_counter()
    if scaled:
        result.cal_s.append(calibrate())
    out_path, err_path, summary_path = work / "stdout", work / "stderr", work / "trace.json"
    for job in jobs:
        result.attempted += 1
        timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        if timeout <= 0:
            result.errors.append(f"{job.label}: not started, run time limit reached")
            continue
        argv = [sys.executable, *job.cmd]
        if traced:
            summary_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(summary_path), *job.cmd]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, wall, cpu, rss = _spawn(argv, out, err, timeout)
        result.wall_s += wall
        result.cpu_s += cpu
        result.rss_mb = max(result.rss_mb, rss)
        if scaled:
            result.cal_s.append(calibrate())
            scale = CAL_REF_S / statistics.fmean(result.cal_s[-2:])
            result.wall_norm_s += wall * scale
            result.cpu_norm_s += cpu * scale
        # Checking happens after the job, outside its timed interval.
        error = f"exit code {code}" if code != 0 else job.check(out_path.read_bytes())
        if error is None and traced:
            if summary_path.is_file():
                result.summaries.append(json.loads(summary_path.read_text()))
            else:
                error = "no trace summary"
        if error is not None:
            tail = err_path.read_text(errors="replace")[-400:].strip()
            result.errors.append(f"{job.label}: {error}" + (f" | stderr: {tail}" if tail else ""))
        between()
    result.elapsed_s = time.perf_counter() - t0
    return result


class SetupTimes:
    """Seconds from launching a fresh interpreter until `import kemtree.cli`
    completes, and the same for a bare interpreter, SETUP_LAUNCHES each.

    The launch pairs are taken one at a time between jobs, so that they
    sample the whole run rather than one moment of a shared host."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.setup: list[float] = []
        self.bare: list[float] = []
        self._launch(SETUP_CODE)  # compiles bytecode once, as a first user run would

    def _launch(self, code: str) -> float:
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=ENV,
            cwd=ROOT,
            capture_output=True,
            check=True,
            timeout=max(1.0, self.deadline - t0),
        ).stdout
        return float(out) - t0

    def take(self) -> None:
        if len(self.setup) < SETUP_LAUNCHES:
            self.setup.append(self._launch(SETUP_CODE))
            self.bare.append(self._launch(BARE_CODE))

    def finish(self) -> None:
        while len(self.setup) < SETUP_LAUNCHES:
            self.take()


def measure(
    jobs: list[Job], seconds: float, work: Path, deadline: float, trace: bool, between: Callable[[], None]
) -> list[PassResult]:
    """Whole passes for about `seconds`. Traced runs alternate traced and
    untraced passes, starting traced, and make at least two traced passes."""
    passes: list[PassResult] = []
    min_passes = 3 if trace else 1
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(jobs, work, deadline, traced, between, scaled=not trace))
        if len(passes) < min_passes:
            continue
        nxt = trace and len(passes) % 2 == 0
        same = [p.elapsed_s for p in passes if p.traced == nxt]
        if time.perf_counter() - t0 + statistics.median(same) > seconds:
            return passes


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "no percentile has >=10 samples beyond it"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the repository, when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def report_plain(passes: list[PassResult], setup: list[float], bare: list[float]) -> dict:
    n = len(passes)
    metrics = {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "cpu_s": ([p.cpu_s for p in passes], "s"),
        "wall_norm_s": ([p.wall_norm_s for p in passes], "s"),
        "cpu_norm_s": ([p.cpu_norm_s for p in passes], "s"),
        "peak_rss_mb": ([p.rss_mb for p in passes], "MB"),
    }
    out = {}
    for name, (values, unit) in metrics.items():
        value = statistics.median(values)
        extra = f"  {tail_percentile(values)}" if name.startswith("wall") else ""
        print(f"{name:<12} median {value:.4f} {unit}  (n={n} passes){extra}")
        if name not in ("wall_s", "cpu_s"):  # raw times are context, not gated
            out[name] = {"value": value, "unit": unit}
    cal = [c for p in passes for c in p.cal_s]
    print(
        f"{'calibration':<12} median {statistics.median(cal):.4f} s  (n={len(cal)} loops;"
        f" {CAL_REF_S} s at the reference speed)"
    )
    out["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(
        f"{'setup_s':<12} median {out['setup_s']['value']:.4f} s  (n={len(setup)} launches);"
        f"  bare interpreter median {statistics.median(bare):.4f} s (context, not gated)"
    )
    return out


def report_traced(passes: list[PassResult]) -> tuple[dict, list[str]]:
    traced = [tracer.layer_metrics(tracer.merge_summaries(p.summaries)) for p in passes if p.traced]
    plain = [p.wall_s for p in passes if not p.traced]
    errors = []
    out = {}
    for name, (unit, _, moves) in tracer.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(p.wall_s for p in passes if p.traced) - statistics.median(plain)
        elif name.endswith((".calls", "_yield")):
            values = {m[name] for m in traced}
            if len(values) != 1:
                errors.append(f"{name} differs across traced passes: {sorted(values)}")
            value = traced[0][name]
        else:
            value = statistics.median(m[name] for m in traced)
        out[name] = {"value": value, "unit": unit}
        print(f"{name:<42} {value:>14.6g} {unit:<6} -> {moves}")
    print(f"(n={len(traced)} traced, {len(plain)} untraced passes; counts are counts, not speed-ups)")
    return out, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "kemtree" / "cli.py").is_file():
        print(f"error: kemtree sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        jobs = workload.build(args.seed, work)
        record = {
            "commit": commit(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "jobs": [job.label for job in jobs],
        }
        print("# run " + json.dumps(record))
        if args.trace:
            passes = measure(jobs, args.seconds, work, deadline, True, lambda: None)
        else:
            setup = SetupTimes(deadline)
            passes = measure(jobs, args.seconds, work, deadline, False, setup.take)
            setup.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.attempted for p in passes)
    if args.trace:
        metrics, counter_errors = report_traced(passes)
    else:
        metrics, counter_errors = report_plain(passes, setup.setup, setup.bare), []
    failed_frac = len(errors) / attempted
    print(f"{'failed_frac':<12} {failed_frac:.4f}  ({len(errors)} failed of {attempted} attempted jobs)")
    for error in errors + counter_errors:
        print(f"error: {error}", file=sys.stderr)
    correct = not errors and not counter_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
