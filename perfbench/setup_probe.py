"""Time specdiff's set-up: import, suite registry and implementation construction.

`measure_setup` is what a user's first `specdiff` call pays before any
trial runs.  Run as a script, this file measures it once in its own
fresh process and prints the timings as one JSON object; run.py starts
several such probes and reports the median.

    python3 perfbench/setup_probe.py [--trace-parse]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout has no specdiff sources to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path, or raise MissingSource."""
    if not (SRC / "specdiff" / "__init__.py").is_file():
        raise MissingSource(f"no specdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))


def measure_setup(trace_parse: bool = False) -> dict:
    """Import specdiff, build the suite registry, validate, construct every implementation.

    With trace_parse, `parse_signature` is timed where the registry binds
    it; finding no parse call is an error, so a registry that moves its
    parsing elsewhere cannot silently report zero.
    """
    start = time.perf_counter_ns()
    import specdiff.cli  # noqa: F401  (the entry point a user loads)
    import specdiff.suite as suite
    from specdiff.sigdsl import validate_signature

    imported = Path(suite.__file__).resolve()
    if SRC.resolve() not in imported.parents:
        raise MissingSource(f"specdiff was imported from {imported}, not from {SRC}")

    parse_ns = [0, 0]
    if trace_parse:
        original = suite.parse_signature

        def timed_parse(text):
            t = time.perf_counter_ns()
            try:
                return original(text)
            finally:
                parse_ns[0] += time.perf_counter_ns() - t
                parse_ns[1] += 1

        suite.parse_signature = timed_parse
    try:
        entries = suite.list_suites()
    finally:
        if trace_parse:
            suite.parse_signature = original
    for entry in entries:
        validate_signature(entry.signature)
        for name in [*entry.implementations, *entry.bug_variants]:
            suite.get_implementation(entry.name, name)
    elapsed_ns = time.perf_counter_ns() - start
    if trace_parse and parse_ns[1] == 0:
        raise RuntimeError("suite registry built without calling specdiff.suite.parse_signature")
    return {"setup_s": elapsed_ns / 1e9, "parse_ns": parse_ns[0]}


if __name__ == "__main__":
    try:
        use_checkout_source()
        result = measure_setup(trace_parse="--trace-parse" in sys.argv[1:])
    except MissingSource as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        sys.exit(2)
    print(json.dumps(result))
