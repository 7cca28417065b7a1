"""End-to-end acceptance gate.

Each criterion prints one `[acceptance] criterion N (...): PASS|FAIL`
line to the terminal (bypassing capture) and then asserts, so a red
criterion is visible both in the line and in the pytest summary.
Criteria run in numeric order; the last one checks the whole file's
wall-clock budget.
"""

from __future__ import annotations

import io
import re
import time

from specdiff.cli import main as cli_main
from specdiff.generator import GenConfig, Rng, gen_expr, mix_seed, size_schedule
from specdiff.harness import bench_trials_to_failure, run_differential, shrink
from specdiff.interp import interp, outcome_equal
from specdiff.report import (
    BenchLine,
    emit_campaign,
    parse_report,
    round_half_up,
    summarize,
)
from specdiff.sigdsl import BOOL, render_ty, validate_signature
from specdiff.suite import get_implementation, get_suite, list_suites
from specdiff.symexpr import from_text, num_seq, size_of, to_text, type_of

from oracles import exprs_by_depth

_SUITE_START = time.monotonic()

ALL_BUGS = [
    (entry.name, variant) for entry in list_suites() for variant in entry.bug_variants
]


def announce(capsys, number, label, problems):
    status = "PASS" if not problems else f"FAIL ({'; '.join(problems)})"
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({label}): {status}")
    assert not problems, "; ".join(problems)


def fresh_pair(suite_name, variant):
    entry = get_suite(suite_name)
    return (
        entry.signature,
        get_implementation(suite_name, entry.reference),
        get_implementation(suite_name, variant),
    )


def test_criterion_1_well_typedness(capsys):
    problems = []
    started = time.monotonic()
    for entry in list_suites():
        sig = entry.signature
        cfg = GenConfig()
        for ty in validate_signature(sig):
            bad = 0
            for i in range(10_000):
                e = gen_expr(
                    ty, size_schedule(i, cfg), sig, cfg, Rng(mix_seed(0, i))
                )
                if type_of(e, sig) != ty:
                    bad += 1
            if bad:
                problems.append(
                    f"{entry.name}:{render_ty(ty)} had {bad} ill-typed draws"
                )
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    announce(capsys, 1, "well-typedness", problems)


def test_criterion_2_enumeration_oracle(capsys):
    sig = get_suite("finite_set").signature
    universe = {
        to_text(e) for e in exprs_by_depth(sig, BOOL, 3, int_pool=(0, 1, 2))
    }
    cfg = GenConfig()
    escaped = []
    for i in range(10_000):
        e = gen_expr(BOOL, i % 3, sig, cfg, Rng(mix_seed(1, i)))
        if to_text(e) not in universe:
            escaped.append(to_text(e))
    problems = (
        [f"{len(escaped)} samples outside the enumeration, e.g. {escaped[0]}"]
        if escaped
        else []
    )
    announce(capsys, 2, "enumeration-oracle soundness", problems)


def test_criterion_3_cross_equivalence(capsys):
    pairings = [
        ("finite_set", "listset", "listset"),
        ("finite_set", "listset", "bstset"),
        ("counter", "int_counter", "list_counter"),
    ]
    problems = []
    for suite_name, a, b in pairings:
        sig = get_suite(suite_name).signature
        for seed in (0, 1, 2):
            result = run_differential(
                sig,
                get_implementation(suite_name, a),
                get_implementation(suite_name, b),
                trials=10_000,
                cfg=GenConfig(seed=seed),
                collect_records=False,
            )
            if result.failures or result.harness_bugs:
                problems.append(
                    f"{a} vs {b} seed {seed}: {len(result.failures)} failures, "
                    f"{result.harness_bugs} harness bugs"
                )
    announce(capsys, 3, "cross-equivalence of correct implementations", problems)


def test_criterion_4_bug_detection(capsys):
    started = time.monotonic()
    first_failures = {}
    for suite_name, variant in ALL_BUGS:
        sig, ref, bug = fresh_pair(suite_name, variant)
        first_failures[suite_name, variant] = bench_trials_to_failure(
            sig, ref, bug, runs=200, trial_cap=10_000, base_seed=0
        )
    elapsed = time.monotonic() - started

    problems = []
    means = {}
    for (suite_name, variant), firsts in first_failures.items():
        detected = [f for f in firsts if f is not None]
        means[suite_name, variant] = sum(detected) / len(detected) if detected else None
        if len(detected) != 200:
            missed = [i for i, f in enumerate(firsts) if f is None]
            problems.append(
                f"{suite_name}:{variant} detected {len(detected)}/200 "
                f"(missed base seeds {missed})"
            )
    for suite_name, variant in [("bst_map", "b1"), ("bst_map", "b4")]:
        mean = means[suite_name, variant]
        if mean is None or mean >= 500:
            problems.append(f"{suite_name}:{variant} mean {mean} (must be < 500)")
    for (suite_name, variant), mean in means.items():
        if mean is not None and mean >= 5_000:
            problems.append(f"{suite_name}:{variant} mean {mean} (must be < 5000)")
    if elapsed >= 180:
        problems.append(f"took {elapsed:.0f}s (budget 180s)")
    announce(capsys, 4, "bug detection in 200 capped runs", problems)


def test_criterion_5_shrinker_soundness(capsys):
    checked = 0
    barren = []
    problems = []
    for suite_name, variant in ALL_BUGS:
        sig, ref, bug = fresh_pair(suite_name, variant)
        result = run_differential(sig, ref, bug, trials=4_000, cfg=GenConfig(seed=4))
        if not result.failures:
            barren.append(f"{suite_name}:{variant}")
        for record in result.failures[:16]:
            original = from_text(record.representation, sig)
            shrunk = from_text(record.shrunk, sig)
            ty = type_of(original, sig)
            ref.reset()
            bug.reset()
            still_fails = not outcome_equal(
                interp(shrunk, ref, sig), interp(shrunk, bug, sig), ty
            )
            if not still_fails:
                problems.append(f"shrunk form passes: {record.shrunk}")
            if size_of(shrunk) > size_of(original):
                problems.append(f"shrink grew {record.representation} -> {record.shrunk}")
            if shrink(shrunk, ty, sig, ref, bug) != shrunk:
                problems.append(f"shrink not idempotent on {record.shrunk}")
            checked += 1
    if barren:
        problems.append(f"no counterexamples from {', '.join(barren)}")
    if checked < 100:
        problems.append(f"only {checked} counterexamples collected")
    announce(capsys, 5, "shrinker soundness on 100 counterexamples", problems)


def test_criterion_6_seq_necessity(capsys):
    sig, ref, bug = fresh_pair("counter", "saturating")
    problems = []
    with_seq = run_differential(
        sig, ref, bug, trials=10_000, cfg=GenConfig(seed=0), collect_records=False
    )
    if not with_seq.failures:
        problems.append("no counterexamples found with Seq enabled")
    for record in with_seq.failures:
        if record.num_seq < 1:
            problems.append(f"Seq-free counterexample: {record.representation}")
            break
    without_seq = run_differential(
        sig,
        ref,
        bug,
        trials=10_000,
        cfg=GenConfig(seed=0, seq_probability=0.0),
        collect_records=False,
    )
    if without_seq.failures:
        problems.append(
            f"{len(without_seq.failures)} detections with seq_prob = 0"
        )
    announce(capsys, 6, "Seq necessity for the saturating counter", problems)


def test_criterion_7_determinism_and_replay(capsys, tmp_path):
    flags = [
        "check", "--suite", "bst_map", "--impl-a", "correct", "--impl-b", "b2",
        "--trials", "2000", "--seed", "3",
    ]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code_a = cli_main(flags + ["--report", str(first)])
    code_b = cli_main(flags + ["--report", str(second)])
    capsys.readouterr()  # swallow the CLI's own output
    problems = []
    if code_a != code_b:
        problems.append(f"exit codes differ: {code_a} vs {code_b}")
    if first.read_bytes() != second.read_bytes():
        problems.append("reports are not byte-identical")

    sig = get_suite("bst_map").signature
    failed = [
        line
        for line in parse_report(first.read_text()).trials
        if line.status == "failed"
    ]
    if not failed:
        problems.append("campaign produced no failures to replay")
    for line in failed:
        e = from_text(line.representation, sig)
        ty = type_of(e, sig)
        a = get_implementation("bst_map", "correct")
        b = get_implementation("bst_map", "b2")
        a.reset()
        b.reset()
        if outcome_equal(interp(e, a, sig), interp(e, b, sig), ty):
            problems.append(f"trial {line.trial} does not re-fail on replay")
            break
    announce(capsys, 7, "determinism and replay", problems)


def test_criterion_8_report_integrity(capsys):
    sig, ref, bug = fresh_pair("bst_map", "b6")
    result = run_differential(sig, ref, bug, trials=10_000, cfg=GenConfig(seed=0))
    sink = io.BytesIO()
    emit_campaign(result, sink)
    parsed = parse_report(sink.getvalue().decode("utf-8"))

    problems = []
    if len(parsed.trials) != 10_000:
        problems.append(f"expected 10000 trial lines, got {len(parsed.trials)}")
    for line in parsed.trials:
        e = from_text(line.representation, sig)
        if f"bst_map:{render_ty(type_of(e, sig))}" != line.property:
            problems.append(f"trial {line.trial} type-checks off its property")
            break

    table = summarize(parsed.trials).splitlines()
    columns = re.split(r"\s{2,}", table[1].strip())
    rendered = {}
    for row in table[2:5]:
        cells = re.split(r"\s{2,}", row.strip())
        rendered[cells[0]] = dict(zip(columns, cells[1:]))
    per_property: dict[str, list[int]] = {}
    for line in parsed.trials:
        if line.status == "failed":
            per_property.setdefault(line.property, []).append(line.trial)
    for prop, trials in per_property.items():
        want = {
            "Min": str(min(trials)),
            "Mean": str(round_half_up(sum(trials), len(trials))),
            "Max": str(max(trials)),
        }
        got = {label: rendered[label].get(prop) for label in want}
        if got != want:
            problems.append(f"{prop} summary {got} != recomputed {want}")

    fixture = summarize(
        [BenchLine(property="bst_map:int", run=0, trials_to_failure=6, seed=0)]
    )
    rows = [r.split() for r in fixture.splitlines() if r.strip()]
    cells = {r[0]: r[-1] for r in rows if r[0] in ("Min", "Mean", "Max")}
    if cells != {"Min": "6", "Mean": "6", "Max": "6"}:
        problems.append(f"trial-6 fixture rendered {cells}")
    announce(capsys, 8, "report integrity at 10,000 trials", problems)


def test_criterion_9_wall_clock_budget(capsys):
    elapsed = time.monotonic() - _SUITE_START
    problems = (
        [f"acceptance suite took {elapsed:.0f}s (budget 300s)"]
        if elapsed >= 300
        else []
    )
    announce(capsys, 9, "end-to-end budget", problems)
