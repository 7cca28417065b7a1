#!/usr/bin/env python3
"""specdiff benchmark: drives `specdiff.cli.main` in-process, as its users do.

    python3 perfbench/run.py --workload agree|hunt|triage --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each invocation starts when the
previous one returns.  The workload's invocation list (workloads.py) is a
function of --seed alone and is run as whole passes, repeated while
--seconds allows (at least one).  Timings are medians over passes; every
pass must write byte-identical reports.  After timing, the outputs are
checked (workloads.py) and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where attempted
counts trials and failed counts trials in error.  The line before it
records the environment and details.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (tracer.py) over a smaller instance of the workload and
reports the per-layer metrics.  The benchmark exits 2 without a result if
the checkout has no specdiff sources.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from setup_probe import ROOT, MissingSource, measure_setup, use_checkout_source

SETUP_PROBES = 14  # fresh-process set-up samples, besides this process's own
PROBE = Path(__file__).resolve().with_name("setup_probe.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        use_checkout_source()
        first_setup = measure_setup(trace_parse=bool(args.trace))
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads  # after set-up: it imports specdiff
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    env = environment(args)
    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setups = [first_setup] + [probe_setup(args.trace) for _ in range(SETUP_PROBES)]
        if args.trace:
            result, details = run_traced(args, work, setups)
        else:
            result, details = run_untraced(args, work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["steal_ticks"] = steal_ticks() - env["steal_ticks"]
    print(json.dumps({"environment": env, "details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    """One run of the whole invocation list: its wall time, and per invocation
    the latency, exit code (None if it raised) and report digest."""

    wall_s: float
    seconds: list[float]
    codes: list[int | None]
    hashes: list[str]


def invoke(main, argv) -> tuple[int | None, float]:
    """Run one CLI command with its output captured; rc is None if it raised."""
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    except Exception:  # a raising invocation is an error to count, not a benchmark crash
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, time.perf_counter() - start


def run_pass(invocations, main) -> Pass:
    seconds, codes = [], []
    start = time.perf_counter()
    for inv in invocations:
        rc, elapsed = invoke(main, inv.argv)
        codes.append(rc)
        seconds.append(elapsed)
    wall = time.perf_counter() - start
    return Pass(wall, seconds, codes, [digest(inv.report) for inv in invocations])


def digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def time_left(started: float, seconds: float, last: float) -> bool:
    return time.perf_counter() - started + last <= seconds


def check_all(invocations, passes: list[Pass], main, repeats=()) -> tuple[list, int, int, list[str]]:
    """Check the first pass's outputs; output that differs in a repeat is an error.

    repeats holds (index, exit code, report digest) of single re-run
    invocations.  Returns (checked per invocation, trials attempted,
    trials in error, problems).
    """
    import workloads

    def replay(argv):
        return invoke(main, argv)[0]

    first = passes[0]
    checked = [workloads.check(inv, first.codes[i], replay) for i, inv in enumerate(invocations)]
    problems = [f"{' '.join(inv.argv)}: {p}" for inv, c in zip(invocations, checked) for p in c.problems]
    runs = [(i, p.codes[i], p.hashes[i]) for p in passes for i in range(len(invocations))]
    attempted = failed = 0
    for i, rc, h in runs + list(repeats):
        c = checked[i]
        attempted += c.trials
        if (rc, h) != (first.codes[i], first.hashes[i]):
            problems.append(f"{' '.join(invocations[i].argv)}: output differs between repeats")
            failed += c.trials
        else:
            failed += c.errors
    return checked, attempted, failed, problems


def repeat_fastest(invocations, passes: list[Pass], main) -> list:
    """With a single timed pass, re-run its fastest invocation so determinism is still checked."""
    if len(passes) > 1:
        return []
    i = min(range(len(invocations)), key=lambda k: passes[0].seconds[k])
    rc, _ = invoke(main, invocations[i].argv)
    return [(i, rc, digest(invocations[i].report))]


def run_untraced(args, work: Path, setups: list[dict]):
    import specdiff.cli
    import workloads

    invocations = workloads.build(args.workload, args.seed, work)
    passes: list[Pass] = []
    started = time.perf_counter()
    while not passes or time_left(started, args.seconds, passes[-1].wall_s):
        passes.append(run_pass(invocations, specdiff.cli.main))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    repeats = repeat_fastest(invocations, passes, specdiff.cli.main)
    checked, attempted, failed, problems = check_all(invocations, passes, specdiff.cli.main, repeats)

    trials = sum(c.trials for c in checked)
    wall_s = statistics.median(p.wall_s for p in passes)
    latencies = sorted(statistics.median(p.seconds[i] for p in passes) for i in range(len(invocations)))
    p50, tail, tail_label = verdict_latency(latencies)
    pairings = list(merged_pairings(checked).values())
    sizes = [s for c in checked for s in c.sizes]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (wall_s, "s"),
        "trials_per_s": (trials / wall_s, "trials/s"),
        "verdict_s.p50": (p50, "s"),
        "verdict_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "detect_rate": (
            sum(p.expected for p in pairings) / sum(p.units for p in pairings) if pairings else 0.0,
            "ratio",
        ),
        "ttf_trials.geomean": (
            math.exp(statistics.fmean(math.log(max(p.trials_per_failure(), 1)) for p in pairings))
            if pairings else 0.0,
            "trials",
        ),
        "shrunk_size.mean": (statistics.fmean(sizes) if sizes else 0.0, "nodes"),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "trials_per_pass": trials,
        "invocations": len(invocations),
        "verdict_s.tail": tail_label,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
    }
    return result_line(not problems and failed == 0, attempted, failed, metrics), details


def run_traced(args, work: Path, setups: list[dict]):
    import specdiff.cli
    import tracer as tr
    import workloads

    invocations = workloads.build(args.workload, args.seed, work, size="trace")
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracers: list = []
    started = time.perf_counter()
    while not traced or time_left(started, args.seconds, plain[-1].wall_s + traced[-1].wall_s):
        plain.append(run_pass(invocations, specdiff.cli.main))
        tracers.append(tr.Tracer())
        restore = tr.install(tracers[-1])
        try:
            traced.append(run_pass(invocations, tr.traced_main(tracers[-1])))
        finally:
            restore()

    checked, attempted, failed, problems = check_all(invocations, plain + traced, specdiff.cli.main)
    trials = sum(c.trials for c in checked)
    values = tr.median_metrics(
        [tr.layer_metrics(t, p.wall_s, trials, len(invocations)) for t, p in zip(tracers, traced)]
    )
    values["sigdsl.parse_ns"] = statistics.median(s["parse_ns"] for s in setups)
    values["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
    )
    metrics = {k: (v, tr.unit(k)) for k, v in values.items()}
    details = {
        "pairs_of_passes": len(traced),
        "trials_per_pass": trials,
        "invocations": len(invocations),
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
    }
    return result_line(not problems and failed == 0, attempted, failed, metrics), details


# --------------------------------------------------------------------------
# Aggregation and output


def verdict_latency(latencies: list[float]) -> tuple[float, float, str]:
    """(p50, tail, what tail is) of per-invocation latencies, sorted ascending.

    The tail is the highest sample with ten samples beyond it.  With ten or
    fewer invocations no sample has, so both figures are the mean, which
    is steadier than an order statistic of so few.
    """
    n = len(latencies)
    if n > 10:
        label = f"p{100 * (n - 10) / n:.1f} of {n} invocations (10 beyond)"
        return statistics.median(latencies), latencies[n - 11], label
    mean = statistics.fmean(latencies)
    return mean, mean, f"mean of {n} invocations (too few for 10 beyond)"


def merged_pairings(checked) -> dict:
    import workloads

    merged: dict[str, workloads.Pairing] = {}
    for c in checked:
        for name, p in c.pairings.items():
            merged.setdefault(name, workloads.Pairing()).add(p)
    return merged


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def probe_setup(trace: int) -> dict:
    """Set-up timings from a fresh interpreter."""
    cmd = [sys.executable, str(PROBE)] + (["--trace-parse"] if trace else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Environment record


def environment(args) -> dict:
    try:
        load = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": load,
        "steal_ticks": steal_ticks(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def steal_ticks() -> int:
    """Steal ticks of all CPUs so far (read-only from /proc/stat; 0 where unavailable)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
