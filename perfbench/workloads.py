"""The benchmark's workloads: fixed `specdiff` invocation lists, and their output checks.

A workload is built from the benchmark seed alone, which reaches the
program only as `--seed` flags.  Every invocation writes its own report
file.  The checks read those files back and judge them with specdiff's
public parsing and evaluation functions on fresh implementations, so a
fault in the campaign path under measurement cannot hide itself.

agree   `check` long campaigns of the three reference pairings that agree.
        Every trial passes and is written out; nothing is shrunk.
hunt    `bench` for all three suites: the bug-variant matrix.  Each run
        stops at its first failure; nothing is shrunk or kept.
triage  default-flag `check` of each suite's reference against each bug
        variant, over several seeds.  Every failure is shrunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from specdiff import (
    from_text,
    interp,
    outcome_equal,
    parse_report,
    parse_ty,
    size_of,
    type_of,
)
from specdiff.suite import get_implementation, get_suite

# (suite, impl_a, impl_b) pairings that must agree.
AGREE_PAIRINGS = (
    ("counter", "int_counter", "list_counter"),
    ("finite_set", "listset", "bstset"),
    ("bst_map", "correct", "correct"),
)
AGREE_TRIALS = 5000

# suite -> (reference, bug variants), fixed here so the workload does not
# change when the registry gains a variant.
BUGS = {
    "counter": ("int_counter", ("saturating",)),
    "finite_set": ("listset", ("insert_dup", "remove_left", "mem_strict")),
    "bst_map": ("correct", ("b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8")),
}
BENCH_TRIAL_CAP = 10000  # the CLI's default --trial-cap
CHECK_TRIALS = 1000  # the CLI's default --trials

# Size of each workload: full for the timed runs, smaller for the traced
# run so that one untraced and one traced pass fit in its time.
HUNT_RUNS = {"full": 70, "trace": 15}
REPLAYS_PER_VARIANT = 4  # detected hunt runs re-checked through `check`
TRIAGE_SEEDS = {"full": 8, "trace": 2}

WORKLOADS = ("agree", "hunt", "triage")


@dataclass(frozen=True)
class Invocation:
    """One `specdiff` command line and what its output must show."""

    workload: str
    suite: str
    argv: tuple[str, ...]
    report: Path
    impl_a: str = ""
    impl_b: str = ""
    seed: int = 0
    runs: int = 0  # hunt: bench runs per variant


@dataclass
class Pairing:
    """Verdict facts for one implementation pairing."""

    units: int = 0  # check invocations or bench runs
    expected: int = 0  # units that reached the verdict the pairing should get
    ttf_trials: int = 0  # trials counted toward trials-to-failure
    disagreements: int = 0

    def add(self, other: "Pairing") -> None:
        self.units += other.units
        self.expected += other.expected
        self.ttf_trials += other.ttf_trials
        self.disagreements += other.disagreements

    def trials_per_failure(self) -> float:
        """Mean trials to a failure; a pairing that never failed counts its trials."""
        return self.ttf_trials / self.disagreements if self.disagreements else float(self.ttf_trials)


@dataclass
class Checked:
    """What the checks found in one invocation's outputs."""

    trials: int = 0
    harness_bugs: int = 0
    problems: list[str] = field(default_factory=list)
    pairings: dict[str, Pairing] = field(default_factory=dict)
    sizes: list[int] = field(default_factory=list)  # counterexample (or expression) sizes

    @property
    def errors(self) -> int:
        """Trials that count against error_rate."""
        return self.trials if self.problems else self.harness_bugs


def build(workload: str, seed: int, work: Path, size: str = "full") -> list[Invocation]:
    """The workload's invocation list for a seed, writing reports under work."""
    invs: list[Invocation] = []
    if workload == "agree":
        for suite, a, b in AGREE_PAIRINGS:
            path = work / f"agree-{suite}.jsonl"
            argv = ("check", "--suite", suite, "--impl-a", a, "--impl-b", b,
                    "--trials", str(AGREE_TRIALS), "--seed", str(seed), "--report", str(path))
            invs.append(Invocation(workload, suite, argv, path, a, b, seed))
    elif workload == "hunt":
        runs = HUNT_RUNS[size]
        base = seed * runs  # disjoint bench seeds for distinct benchmark seeds
        for suite in BUGS:
            path = work / f"hunt-{suite}.jsonl"
            argv = ("bench", "--suite", suite, "--runs", str(runs), "--seed", str(base),
                    "--output", str(path))
            invs.append(Invocation(workload, suite, argv, path, seed=base, runs=runs))
    elif workload == "triage":
        count = TRIAGE_SEEDS[size]
        # Seed rounds outermost, so a slow spell of the machine touches every
        # pairing a little rather than one suite's invocations all at once.
        for j in range(count):
            for suite, (ref, variants) in BUGS.items():
                for variant in variants:
                    s = seed * count + j
                    path = work / f"triage-{suite}-{variant}-{j}.jsonl"
                    argv = ("check", "--suite", suite, "--impl-a", ref, "--impl-b", variant,
                            "--seed", str(s), "--report", str(path))
                    invs.append(Invocation(workload, suite, argv, path, ref, variant, s))
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return invs


def check(inv: Invocation, rc: int | None, replay=None) -> Checked:
    """Judge one invocation's exit code and report.

    rc is None when the invocation raised.  replay(argv) -> exit code runs
    another CLI command; hunt uses it to re-run detected runs.
    """
    out = Checked()
    try:
        if inv.workload == "agree":
            _check_agree(inv, rc, out)
        elif inv.workload == "hunt":
            _check_hunt(inv, rc, out, replay)
        else:
            _check_triage(inv, rc, out)
    except Exception as exc:  # a check that cannot finish condemns the output, not the run
        out.problems.append(f"check raised {type(exc).__name__}: {exc}")
    if out.problems and not out.trials:
        out.trials = _requested_trials(inv)
    return out


def _requested_trials(inv: Invocation) -> int:
    if inv.workload == "agree":
        return AGREE_TRIALS
    if inv.workload == "hunt":
        return inv.runs * len(BUGS[inv.suite][1]) * BENCH_TRIAL_CAP
    return CHECK_TRIALS


def _read_report(inv: Invocation, out: Checked):
    parsed = parse_report(inv.report.read_text("utf-8"))
    if len(parsed.summaries) != 1:
        out.problems.append(f"{inv.report.name}: {len(parsed.summaries)} summary lines")
    return parsed


def _check_agree(inv: Invocation, rc, out: Checked) -> None:
    if rc != 0:
        out.problems.append(f"exit code {rc}, expected 0")
        return
    parsed = _read_report(inv, out)
    prefix = f"{inv.suite}:"
    out.trials = len(parsed.trials)
    out.harness_bugs = sum(t.status == "harness_bug" for t in parsed.trials)
    if len(parsed.trials) != AGREE_TRIALS:
        out.problems.append(f"{len(parsed.trials)} trial lines, expected {AGREE_TRIALS}")
    if any(t.status != "passed" or not t.property.startswith(prefix) for t in parsed.trials):
        out.problems.append("a trial line is not a passed trial of the suite")
    out.sizes = [t.size for t in parsed.trials]
    passed = not out.problems
    out.pairings[f"{inv.suite}:{inv.impl_a}/{inv.impl_b}"] = Pairing(
        units=1, expected=int(passed), ttf_trials=out.trials
    )


def _check_triage(inv: Invocation, rc, out: Checked) -> None:
    if rc not in (0, 1):
        out.problems.append(f"exit code {rc}, expected 0 or 1")
        return
    parsed = _read_report(inv, out)
    out.trials = len(parsed.trials)
    if out.trials != CHECK_TRIALS:
        out.problems.append(f"{out.trials} trial lines, expected {CHECK_TRIALS}")
    out.harness_bugs = sum(t.status == "harness_bug" for t in parsed.trials)
    failed = [t for t in parsed.trials if t.status == "failed"]
    if (rc == 1) != bool(failed):
        out.problems.append(f"exit code {rc} with {len(failed)} failed trials")
    for line in failed:
        size = _check_counterexample(inv.suite, inv.impl_a, inv.impl_b, line, out)
        if size is not None:
            out.sizes.append(size)
    out.pairings[f"{inv.suite}:{inv.impl_b}"] = Pairing(
        units=1, expected=int(bool(failed)), ttf_trials=out.trials, disagreements=len(failed)
    )


def _check_counterexample(suite: str, impl_a: str, impl_b: str, line, out: Checked) -> int | None:
    """A failed line re-parses, has its property's type, and its shrunk form still fails.

    Returns the shrunk form's size, or None after recording a problem.
    """
    sig = get_suite(suite).signature
    name, _, rendered = line.property.partition(":")
    ty = parse_ty(rendered)
    original = from_text(line.representation, sig)
    shrunk = from_text(line.shrunk or "", sig)
    where = f"trial {line.trial} of {suite}:{impl_b}"
    if name != sig.name or type_of(original, sig) != ty or type_of(shrunk, sig) != ty:
        out.problems.append(f"{where}: expression does not have type {rendered}")
        return None
    a, b = get_implementation(suite, impl_a), get_implementation(suite, impl_b)
    if outcome_equal(interp(shrunk, a, sig), interp(shrunk, b, sig), ty):
        out.problems.append(f"{where}: shrunk form {line.shrunk} does not fail")
        return None
    if size_of(shrunk) > size_of(original):
        out.problems.append(f"{where}: shrunk form is larger than the original")
        return None
    return size_of(shrunk)


def _check_hunt(inv: Invocation, rc, out: Checked, replay) -> None:
    if rc != 0:
        out.problems.append(f"exit code {rc}, expected 0")
        return
    ref, variants = BUGS[inv.suite]
    lines = [json.loads(raw) for raw in inv.report.read_text("utf-8").splitlines() if raw.strip()]
    expected = [(f"{inv.suite}:{v}", r) for v in variants for r in range(inv.runs)]
    got = [(o.get("property"), o.get("run")) for o in lines]
    if got != expected:
        out.problems.append(f"bench lines do not list {len(expected)} runs in order")
        return
    for variant in variants:
        pairing = Pairing()
        detected = []
        for o in lines:
            if o["property"] != f"{inv.suite}:{variant}":
                continue
            ttf = o["trials_to_failure"]
            if o["seed"] != inv.seed + o["run"] or not (ttf is None or 1 <= ttf <= BENCH_TRIAL_CAP):
                out.problems.append(f"bad bench line {o}")
                return
            out.trials += BENCH_TRIAL_CAP if ttf is None else ttf
            pairing.units += 1
            if ttf is not None:
                pairing.expected += 1
                pairing.disagreements += 1
                pairing.ttf_trials += ttf
                detected.append((o["seed"], ttf))
        if pairing.disagreements == 0:
            pairing.ttf_trials = pairing.units * BENCH_TRIAL_CAP
        out.pairings[f"{inv.suite}:{variant}"] = pairing
        if replay is not None:
            for seed, ttf in detected[:REPLAYS_PER_VARIANT]:
                _replay_first_failure(inv, ref, variant, seed, ttf, replay, out)


def _replay_first_failure(inv: Invocation, ref: str, variant: str, seed: int, ttf: int,
                          replay, out: Checked) -> None:
    """Re-run a detected bench run through `check`: its first failure must be at trial ttf."""
    path = inv.report.with_name(f"replay-{inv.suite}-{variant}-{seed}.jsonl")
    argv = ("check", "--suite", inv.suite, "--impl-a", ref, "--impl-b", variant,
            "--trials", str(ttf), "--seed", str(seed), "--stop-on-failure", "--report", str(path))
    rc = replay(argv)
    parsed = parse_report(path.read_text("utf-8"))
    statuses = [t.status for t in parsed.trials]
    if rc != 1 or statuses != ["passed"] * (ttf - 1) + ["failed"]:
        out.problems.append(f"{inv.suite}:{variant} seed {seed}: replay does not first fail at trial {ttf}")
        return
    size = _check_counterexample(inv.suite, ref, variant, parsed.trials[-1], out)
    if size is not None:
        out.sizes.append(size)
