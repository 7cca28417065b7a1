"""Per-trial observability records as JSON Lines, and summary tables.

One JSON object per line, so any line-oriented viewer can consume a
report without knowing the whole file.  Trial lines carry schema_version,
the property name, status, the expression itself, and its shape
features; bench lines carry schema_version and trials-to-failure per
run; a summary object, with no schema_version, closes every campaign.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .record import record

SCHEMA_VERSION = "1"

# One compact encoder for the summary and bench lines (trial lines are
# written by line_to_json); json.dumps with separators would build a new
# one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

_HISTOGRAM_BUCKETS = [str(d) for d in range(1, 10)] + ["10+"]
_BAR_WIDTH = 40


class ReportFormatError(Exception):
    """A report line that does not match the schema; names the line number."""


class ReportWriteError(OSError):
    """A sink write failed; bytes_written counts what was already sent."""

    def __init__(self, bytes_written: int, cause: Exception) -> None:
        super().__init__(f"report write failed after {bytes_written} bytes: {cause}")
        self.bytes_written = bytes_written


@record
class ReportLine:
    """One trial: the harness's record of it, and a report's line for it,
    its features spread into depth, size and num_seq.  Built once, with
    every field, and equal and hashed by its fields like any record."""

    property: str
    status: str
    representation: str
    depth: int
    size: int
    num_seq: int
    seed: int
    trial: int
    outcome_a: str | None = None
    outcome_b: str | None = None
    shrunk: str | None = None
    detail: str | None = None


@record
class BenchLine:
    """One bench run: how many trials a pairing needed to disagree."""

    property: str
    run: int
    trials_to_failure: int | None
    seed: int


@record
class ParsedReport:
    trials: list[ReportLine]
    benches: list[BenchLine]
    summaries: list[dict]


def property_name(signature_name: str, rendered_ty: str) -> str:
    return f"{signature_name}:{rendered_ty}"


def line_to_json(line: ReportLine) -> str:
    """The line as one compact JSON object, its keys in a fixed order.

    Written piece by piece rather than through a dict: the strings go
    through json's own ASCII escaper and the ints print as json prints
    them, so the text is what _ENCODER makes of the equivalent dict.
    """
    text = (
        f'{{"schema_version":"{SCHEMA_VERSION}","property":{_quote(line.property)},'
        f'"status":{_quote(line.status)},"representation":{_quote(line.representation)},'
        f'"features":{{"depth":{line.depth},"size":{line.size},"num_seq":{line.num_seq}}},'
        f'"seed":{line.seed},"trial":{line.trial}'
    )
    if line.outcome_a is not None:
        text += ',"outcome_a":' + _quote(line.outcome_a)
    if line.outcome_b is not None:
        text += ',"outcome_b":' + _quote(line.outcome_b)
    if line.shrunk is not None:
        text += ',"shrunk":' + _quote(line.shrunk)
    if line.detail is not None:
        text += ',"detail":' + _quote(line.detail)
    return text + "}"


class ReportWriter:
    """Writes a report to a bytes sink a line at a time, as UTF-8.

    Called with a ReportLine, it writes the line's JSON at once, so it can
    be run_differential's consumer.  written counts the bytes the sink
    took, and a failed write raises ReportWriteError carrying that count.
    """

    __slots__ = ("sink", "written")

    def __init__(self, sink, written: int = 0) -> None:
        self.sink = sink
        self.written = written

    def __call__(self, line: ReportLine) -> None:
        self.write(line_to_json(line))

    def write(self, text: str) -> None:
        data = (text + "\n").encode("utf-8")
        try:
            self.sink.write(data)
        except OSError as exc:
            raise ReportWriteError(self.written, exc) from exc
        self.written += len(data)


def emit_campaign(result, sink, *, written: int = 0) -> None:
    """Write the summary object that closes a harness.CampaignResult's report.

    The campaign's trial lines went to the sink as they were made (see
    ReportWriter); written is how many bytes they took, so that a failed
    write's ReportWriteError counts every byte of the report.
    """
    summary = {
        "type": "summary",
        "total": result.total_trials,
        "failures": len(result.failures),
        "trials_to_first_failure": result.trials_to_first_failure,
        "seed": result.seed,
    }
    ReportWriter(sink, written).write(_ENCODER.encode(summary))


def bench_lines(
    property: str, first_failures: tuple[int | None, ...], base_seed: int
) -> list[BenchLine]:
    """One bench line per run of one correct-vs-buggy pairing, from
    harness.bench_trials_to_failure's first failures."""
    return [
        BenchLine(property=property, run=run, trials_to_failure=first, seed=base_seed + run)
        for run, first in enumerate(first_failures)
    ]


def emit_bench(lines, sink) -> None:
    """Write bench lines, such as one pairing's bench_lines."""
    writer = ReportWriter(sink)
    for line in lines:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "type": "bench",
            "property": line.property,
            "run": line.run,
            "trials_to_failure": line.trials_to_failure,
            "seed": line.seed,
        }
        writer.write(_ENCODER.encode(obj))


# Each line type's fields, in the order they are checked: name -> (JSON
# type, presence, allowed values).  A "required" field is present and not
# null; a "nullable" one is present and may be null; an "optional" one may
# be null or absent.  The allowed values of an integer are those at or
# above a least one; those of a string are listed; None allows any value.
_VERSION = (str, "required", (SCHEMA_VERSION,))
_SUMMARY_FIELDS = {
    "total": (int, "required", 0),
    "failures": (int, "required", 0),
    "trials_to_first_failure": (int, "nullable", 1),
    "seed": (int, "required", None),
    "schema_version": (str, "optional", (SCHEMA_VERSION,)),
}
_BENCH_FIELDS = {
    "property": (str, "required", None),
    "run": (int, "required", 0),
    "trials_to_failure": (int, "nullable", 1),
    "seed": (int, "required", None),
    "schema_version": _VERSION,
}
_TRIAL_FIELDS = {
    "features": (dict, "required", None),
    "property": (str, "required", None),
    "status": (str, "required", ("passed", "failed", "harness_bug")),
    "representation": (str, "required", None),
    "seed": (int, "required", None),
    "trial": (int, "required", 1),
    "schema_version": _VERSION,
    "outcome_a": (str, "optional", None),
    "outcome_b": (str, "optional", None),
    "shrunk": (str, "optional", None),
    "detail": (str, "optional", None),
}
_FEATURE_FIELDS = {
    "depth": (int, "required", 1),
    "size": (int, "required", 1),
    "num_seq": (int, "required", 0),
}

_JSON_TYPES = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
}


def _checked(obj: dict, fields: dict, n: int) -> dict:
    """The named fields of a report line's object, each checked against its
    type and its allowed values, less schema_version, which no record holds.

    The type must match exactly, so a boolean is not an integer.  Raises
    ReportFormatError naming line n and the first field that is missing,
    of the wrong type or out of range.
    """
    out = {}
    for name, (want, presence, allowed) in fields.items():
        if name not in obj:
            if presence != "optional":
                raise ReportFormatError(f"line {n}: missing field {name!r}")
            out[name] = None
            continue
        value = obj[name]
        if type(value) is not want and (value is not None or presence == "required"):
            kinds = _JSON_TYPES[want] + ("" if presence == "required" else " or null")
            raise ReportFormatError(
                f"line {n}: field {name!r} must be {kinds}, not {_JSON_TYPES[type(value)]}"
            )
        if value is not None and allowed is not None:
            if want is int and value < allowed:
                raise ReportFormatError(
                    f"line {n}: field {name!r} must be at least {allowed}, not {value}"
                )
            if want is str and value not in allowed:
                *others, last = map(repr, allowed)
                choices = f"{', '.join(others)} or {last}" if others else last
                raise ReportFormatError(
                    f"line {n}: field {name!r} must be {choices}, not {value!r}"
                )
        out[name] = value
    out.pop("schema_version", None)
    return out


def parse_report(text: str) -> ParsedReport:
    """Parse report text back into typed lines.

    Raises ReportFormatError naming the 1-based line number on any
    malformed or incomplete line, or on a field of the wrong JSON type or
    out of its range.
    """
    trials: list[ReportLine] = []
    benches: list[BenchLine] = []
    summaries: list[dict] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
            reason = getattr(exc, "msg", exc)
            raise ReportFormatError(f"line {n}: not valid JSON ({reason})") from exc
        if not isinstance(obj, dict):
            raise ReportFormatError(f"line {n}: expected a JSON object")
        kind = obj.get("type")
        if kind == "summary":
            _checked(obj, _SUMMARY_FIELDS, n)
            summaries.append(obj)
        elif kind == "bench":
            benches.append(BenchLine(**_checked(obj, _BENCH_FIELDS, n)))
        elif kind is not None:
            raise ReportFormatError(f"line {n}: unknown line type {kind!r}")
        else:
            fields = _checked(obj, _TRIAL_FIELDS, n)
            fields.update(_checked(fields.pop("features"), _FEATURE_FIELDS, n))
            trials.append(ReportLine(**fields))
    return ParsedReport(trials=trials, benches=benches, summaries=summaries)


def round_half_up(total: int, count: int) -> int:
    """Integer mean of total/count, with .5 ties rounding up."""
    return (2 * total + count) // (2 * count)


def summarize(lines) -> str:
    """Render min/mean/max trials-to-failure per property plus a depth histogram.

    Accepts ReportLine and BenchLine values in any mix: trial lines
    contribute their failing trial numbers and the histogram, bench lines
    contribute per-run trials-to-failure.
    """
    failures: dict[str, list[int]] = {}
    undetected: dict[str, int] = {}
    depths: list[int] = []
    for line in lines:
        if isinstance(line, BenchLine):
            if line.trials_to_failure is None:
                undetected[line.property] = undetected.get(line.property, 0) + 1
                failures.setdefault(line.property, [])
            else:
                failures.setdefault(line.property, []).append(line.trials_to_failure)
        else:
            depths.append(line.depth)
            if line.status == "failed":
                failures.setdefault(line.property, []).append(line.trial)

    out: list[str] = []
    out.append("trials to first failure")
    detected_props = [p for p in failures if failures[p]]
    if not detected_props:
        out.append("  (no failures)")
    else:
        header = [""] + detected_props
        rows = [
            ["Min"] + [str(min(failures[p])) for p in detected_props],
            ["Mean"]
            + [str(round_half_up(sum(failures[p]), len(failures[p]))) for p in detected_props],
            ["Max"] + [str(max(failures[p])) for p in detected_props],
        ]
        widths = [
            max(len(row[c]) for row in [header] + rows) for c in range(len(header))
        ]
        for row in [header] + rows:
            out.append("  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    misses = {p: n for p, n in undetected.items() if n}
    for prop in misses:
        total = len(failures.get(prop, ())) + misses[prop]
        out.append(f"  {prop}: undetected in {misses[prop]}/{total} runs")

    if depths:
        out.append("")
        out.append("depth histogram")
        counts = {b: 0 for b in _HISTOGRAM_BUCKETS}
        for d in depths:
            counts["10+" if d >= 10 else str(max(d, 1))] += 1
        peak = max(counts.values())
        for bucket in _HISTOGRAM_BUCKETS:
            n = counts[bucket]
            bar = "#" * (round(n * _BAR_WIDTH / peak) if peak else 0)
            out.append(f"  {bucket:>3}  {n:>7}  {bar}".rstrip())
    return "\n".join(out) + "\n"
