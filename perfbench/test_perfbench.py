"""The benchmark's own tests, at small sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import setup_probe

setup_probe.use_checkout_source()

import specdiff.cli  # noqa: E402
import specdiff.harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def pick(workload: str, work: Path, labels: set[str], seed: int = 0) -> list:
    """The invocations of a traced-size workload whose report names are in labels."""
    return [inv for inv in workloads.build(workload, seed, work, size="trace") if inv.report.stem in labels]


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    invocations = (
        pick("agree", tmp_path, {"agree-counter"})
        + pick("hunt", tmp_path, {"hunt-finite_set"})
        + pick("triage", tmp_path, {"triage-bst_map-b1-0", "triage-finite_set-insert_dup-1"})
    )
    assert len(invocations) == 4
    plain = run.run_pass(invocations, specdiff.cli.main)
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        traced = run.run_pass(invocations, tr.traced_main(tracer))
    finally:
        restore()
    assert specdiff.cli.run_differential is specdiff.harness.run_differential  # restored
    assert traced.hashes == plain.hashes and "missing" not in plain.hashes
    assert traced.codes == plain.codes == [0, 0, 1, 1]

    checked, attempted, failed, problems = run.check_all(invocations, [plain, traced], specdiff.cli.main)
    assert (failed, problems) == (0, [])
    trials = sum(c.trials for c in checked)
    assert attempted == 2 * trials
    layers = tr.layer_metrics(tracer, traced.wall_s, trials, len(invocations))
    assert layers["harness.bench_runs"] == 3 * workloads.HUNT_RUNS["trace"]
    assert layers["harness.shrink_candidates_per_failure"] > 0
    assert 0 < layers["symexpr.features_kept_ratio"] < 1
    assert 0 <= layers["trace.unattributed_share"] < 0.05


def test_broken_counterexample_counts_as_error(tmp_path):
    [inv] = pick("triage", tmp_path, {"triage-bst_map-b1-0"})
    first = run.run_pass([inv], specdiff.cli.main)
    lines = inv.report.read_text().splitlines()
    objs = [json.loads(line) for line in lines]
    failed = next(i for i, o in enumerate(objs) if o.get("status") == "failed")
    passing = next(
        o for o in objs if o.get("status") == "passed" and o["property"] == objs[failed]["property"]
    )
    objs[failed]["shrunk"] = passing["representation"]  # a shrunk form that does not re-fail
    inv.report.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n" for o in objs))

    checked, attempted, errors, problems = run.check_all([inv], [first], specdiff.cli.main)
    assert "does not fail" in " ".join(problems)
    assert errors == attempted == workloads.CHECK_TRIALS


def test_short_agree_report_and_wrong_bench_line_count_as_errors(tmp_path):
    agree = pick("agree", tmp_path, {"agree-counter"})
    hunt = pick("hunt", tmp_path, {"hunt-finite_set"})
    passes = [run.run_pass(agree + hunt, specdiff.cli.main)]
    text = agree[0].report.read_text().splitlines(keepends=True)
    agree[0].report.write_text("".join(text[1:]))  # one trial line lost
    bench = [json.loads(line) for line in hunt[0].report.read_text().splitlines()]
    detected = next(o for o in bench if o["trials_to_failure"])  # the run replay re-checks
    detected["trials_to_failure"] -= 1
    hunt[0].report.write_text("".join(json.dumps(o) + "\n" for o in bench))

    checked, attempted, errors, problems = run.check_all(agree + hunt, passes, specdiff.cli.main)
    assert [bool(c.problems) for c in checked] == [True, True]
    assert errors == attempted


def test_output_that_differs_between_repeats_counts_as_error(tmp_path):
    [inv] = pick("agree", tmp_path, {"agree-counter"})
    first = run.run_pass([inv], specdiff.cli.main)
    second = run.Pass(first.wall_s, first.seconds, first.codes, ["0" * 64])
    checked, attempted, errors, problems = run.check_all([inv], [first, second], specdiff.cli.main)
    assert errors == checked[0].trials == attempted // 2
    assert "differs between repeats" in problems[0]


def test_tracer_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    monkeypatch.delattr(specdiff.harness, "depth")
    with pytest.raises(tr.TraceError, match="specdiff.harness.depth"):
        tr.install(tr.Tracer())


def test_verdict_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]
    assert run.verdict_latency(values)[:2] == (20.5, 30.0)
    assert run.verdict_latency([1.0, 2.0, 6.0])[:2] == (3.0, 3.0)


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "agree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
