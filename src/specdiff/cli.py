"""Command-line entry point.

Subcommands: check (differential campaign), sample (print generated
expressions), validate (parse and validate a signature), bench
(trials-to-failure statistics for a suite's bug variants), summarize
(render a report file).  Exit codes: 0 success, 1 at least one
observational mismatch, 2 usage, parse, or validation error, or a
harness bug seen by check.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .generator import GenConfig, Rng, gen_expr, mix_seed
from .harness import bench_trials_to_failure, run_differential
from .report import (
    BenchLine,
    ReportFormatError,
    bench_lines,
    emit_bench,
    emit_campaign,
    parse_report,
    property_name,
    summarize,
)
from .sigdsl import (
    ParseError,
    Signature,
    Ty,
    ValidationError,
    parse_signature,
    parse_ty,
    render_ty,
    validate_signature,
)
from .suite import SuiteEntry, get_implementation, get_suite, list_suites
from .symexpr import to_text

_DEFAULT_TRIALS = 1000
_DEFAULT_RUNS = 1000
_DEFAULT_TRIAL_CAP = 10000


class CliError(Exception):
    """A user-facing error that maps to exit code 2."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exit_.code in (0, None) else 2
    try:
        return args.handler(args)
    except (CliError, ParseError, ValidationError, ReportFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdiff",
        description="Differential property testing of module implementations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = GenConfig()

    check = sub.add_parser("check", help="run a differential campaign")
    _add_sig_source(check)
    check.add_argument("--impl-a", required=True, help="first implementation name")
    check.add_argument("--impl-b", required=True, help="second implementation name")
    check.add_argument("--trials", type=_count, default=_DEFAULT_TRIALS)
    check.add_argument("--seed", type=_integer, default=None, help="campaign seed (default 0 or SPECDIFF_SEED)")
    check.add_argument("--max-size", type=_count, default=defaults.max_size)
    check.add_argument("--seq-prob", type=_probability, default=defaults.seq_probability)
    check.add_argument("--report", default=None, help="JSONL report path ('-' for stdout)")
    check.add_argument("--stop-on-failure", action="store_true")
    check.set_defaults(handler=_cmd_check)

    sample = sub.add_parser("sample", help="print generated expressions")
    _add_sig_source(sample)
    sample.add_argument("--type", required=True, help="target type, e.g. bool or 'int list'")
    sample.add_argument("--count", type=_count, default=10)
    sample.add_argument("--size", type=_count, default=10)
    sample.add_argument("--seed", type=_integer, default=None)
    sample.add_argument("--seq-prob", type=_probability, default=defaults.seq_probability)
    sample.set_defaults(handler=_cmd_sample)

    validate = sub.add_parser("validate", help="parse and validate a signature")
    _add_sig_source(validate)
    validate.set_defaults(handler=_cmd_validate)

    bench = sub.add_parser("bench", help="trials-to-failure stats for a suite's bugs")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--runs", type=_count, default=_DEFAULT_RUNS)
    bench.add_argument("--trial-cap", type=_count, default=_DEFAULT_TRIAL_CAP)
    bench.add_argument("--seed", type=_integer, default=None)
    bench.add_argument("--output", default=None, help="bench JSONL path ('-' for stdout)")
    bench.set_defaults(handler=_cmd_bench)

    summ = sub.add_parser("summarize", help="render a report file as a table")
    summ.add_argument("--report", required=True)
    summ.set_defaults(handler=_cmd_summarize)

    return parser


# int()'s syntax: text that matches it and still fails has too many digits
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")
_MAX_SHOWN = 40  # the longest bad flag value an error message repeats


def _shown(text: str, render=str) -> str:
    """A bad flag value as an error message shows it: rendered whole, or named by its length."""
    return render(text) if len(text) <= _MAX_SHOWN else f"a value of {len(text)} characters"


def _integer(text: str) -> int:
    """argparse type for integers; one past int()'s digit limit is named so, not echoed."""
    try:
        return int(text)
    except ValueError:
        if _INTEGER.fullmatch(text):
            message = f"integer has too many digits ({len(text)} characters)"
            raise argparse.ArgumentTypeError(message) from None
        raise argparse.ArgumentTypeError(f"not an integer: {_shown(text, repr)}") from None


def _count(text: str) -> int:
    """argparse type for counts and sizes: a non-negative integer."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {_shown(str(value))}")
    return value


def _probability(text: str) -> float:
    """argparse type for probabilities: a number in [0, 1], never nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {_shown(text, repr)}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {_shown(text)}")
    return value


def _add_sig_source(cmd: argparse.ArgumentParser) -> None:
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", help="bundled suite name")
    group.add_argument("--sig", help="path to a .sig file")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    try:
        return _integer(os.environ.get("SPECDIFF_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"SPECDIFF_SEED: {exc}") from None


def _load_signature(args) -> tuple[SuiteEntry | None, Signature, tuple[Ty, ...]]:
    """Resolve --suite/--sig to a validated Signature, its suite, if any,
    and its observable types."""
    if args.suite is not None:
        entry = get_suite(args.suite)
        sig = entry.signature
    else:
        sig = parse_signature(Path(args.sig).read_text("utf-8"))
        entry = next((entry for entry in list_suites() if entry.signature == sig), None)
    return entry, sig, validate_signature(sig)


def _cmd_validate(args) -> int:
    _, sig, observable = _load_signature(args)
    shape = "mutable" if sig.mutable else "immutable"
    print(f"signature {sig.name}: {len(sig.ops)} ops, {shape}")
    print("observable types: " + ", ".join(map(render_ty, observable)))
    return 0


def _cmd_sample(args) -> int:
    _, sig, _ = _load_signature(args)
    ty = parse_ty(args.type)
    seed = _resolve_seed(args.seed)
    cfg = GenConfig(max_size=args.size, seq_probability=args.seq_prob, seed=seed)
    for i in range(args.count):
        e = gen_expr(ty, args.size, sig, cfg, Rng(mix_seed(seed, i)))
        print(to_text(e))
    return 0


def _cmd_check(args) -> int:
    entry, sig, _ = _load_signature(args)
    if entry is None:
        raise CliError(
            f"no implementations registered for signature {sig.name!r}; "
            "use a bundled suite"
        )
    impl_a = get_implementation(entry.name, args.impl_a)
    impl_b = get_implementation(entry.name, args.impl_b)
    seed = _resolve_seed(args.seed)
    cfg = GenConfig(max_size=args.max_size, seq_probability=args.seq_prob, seed=seed)
    # the report is opened first, so a bad path fails before the campaign runs
    with _output(args.report) as (sink, say):
        result = run_differential(
            sig, impl_a, impl_b, args.trials, cfg, stop_on_failure=args.stop_on_failure
        )
        if sink is not None:
            emit_campaign(result, sink)
    for record in result.failures:
        say(f"FAIL trial {record.trial} [{record.property}] {record.representation}")
        say(f"  {impl_a.name}: {record.outcome_a}")
        say(f"  {impl_b.name}: {record.outcome_b}")
        say(f"  shrunk: {record.shrunk}")
    for record in result.records:
        if record.status == "harness_bug":
            say(f"HARNESS BUG trial {record.trial}: {record.detail}")
    say(
        f"{result.total_trials} trials, {len(result.failures)} failures"
        + (f", {result.harness_bugs} harness bugs" if result.harness_bugs else "")
    )
    if result.harness_bugs:
        return 2
    return 1 if result.failures else 0


def _cmd_bench(args) -> int:
    entry = get_suite(args.suite)
    if not entry.bug_variants:
        raise CliError(f"suite {entry.name!r} has no bug variants to bench")
    seed = _resolve_seed(args.seed)
    reference = get_implementation(entry.name, entry.reference)

    lines: list[BenchLine] = []
    with _output(args.output) as (sink, say):
        for bug_name in entry.bug_variants:
            buggy = get_implementation(entry.name, bug_name)
            first_failures = bench_trials_to_failure(
                entry.signature, reference, buggy, args.runs, args.trial_cap, seed
            )
            pairing = bench_lines(property_name(entry.name, bug_name), first_failures, seed)
            if sink is not None:
                emit_bench(pairing, sink)
            lines += pairing
    say(summarize(lines), end="")
    return 0


@contextmanager
def _output(path: str | None):
    """The bytes sink for a report path, and the print function for the
    human-readable text.

    No path gives no sink; '-' gives stdout, flushed on exit, and then
    the text goes to stderr.  A file is closed on exit.
    """
    if path is None:
        yield None, print
    elif path == "-":
        try:
            yield sys.stdout.buffer, partial(print, file=sys.stderr)
        finally:
            sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as sink:
            yield sink, print


def _cmd_summarize(args) -> int:
    parsed = parse_report(Path(args.report).read_text("utf-8"))
    print(summarize(parsed.trials + parsed.benches), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
