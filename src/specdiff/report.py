"""Per-trial observability records as JSON Lines, and summary tables.

One JSON object per line, schema_version first, so any line-oriented
viewer can consume a report without knowing the whole file.  Trial lines
carry the property name, status, the expression itself, and its shape
features; bench lines carry trials-to-failure per run; a summary object
closes every campaign report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

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


@dataclass(slots=True)
class ReportLine:
    """One trial: the harness's record of it, and a report's line for it."""

    property: str
    status: str
    representation: str
    depth: int
    size: int
    num_seq: int
    seed: int
    trial: int
    schema_version: str = SCHEMA_VERSION
    outcome_a: str | None = None
    outcome_b: str | None = None
    shrunk: str | None = None
    detail: str | None = None


@dataclass(frozen=True)
class BenchLine:
    """One bench run: how many trials a pairing needed to disagree."""

    property: str
    run: int
    trials_to_failure: int | None
    seed: int
    schema_version: str = SCHEMA_VERSION


@dataclass
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
        f'{{"schema_version":{_quote(line.schema_version)},"property":{_quote(line.property)},'
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


def _write_lines(texts, sink) -> None:
    """Write each text as one UTF-8 line to a bytes sink.

    A write failure surfaces as ReportWriteError carrying how many bytes
    had been handed to the sink.
    """
    written = 0
    for text in texts:
        data = (text + "\n").encode("utf-8")
        try:
            sink.write(data)
        except OSError as exc:
            raise ReportWriteError(written, exc) from exc
        written += len(data)


def emit_campaign(result, sink) -> None:
    """Write a harness.CampaignResult's trial lines in order, then a summary object."""

    def lines():
        yield from map(line_to_json, result.records)
        summary = {
            "type": "summary",
            "total": result.total_trials,
            "failures": len(result.failures),
            "trials_to_first_failure": result.trials_to_first_failure,
            "seed": result.seed,
        }
        yield _ENCODER.encode(summary)

    _write_lines(lines(), sink)


def bench_lines(property: str, stats, base_seed: int) -> list[BenchLine]:
    """One bench line per run in a harness.BenchStats of one correct-vs-buggy pairing."""
    return [
        BenchLine(property=property, run=run, trials_to_failure=first, seed=base_seed + run)
        for run, first in enumerate(stats.first_failures)
    ]


def bench_line_to_json(line: BenchLine) -> str:
    obj = {
        "schema_version": line.schema_version,
        "type": "bench",
        "property": line.property,
        "run": line.run,
        "trials_to_failure": line.trials_to_failure,
        "seed": line.seed,
    }
    return _ENCODER.encode(obj)


def emit_bench(lines, sink) -> None:
    """Write bench lines, such as one pairing's bench_lines."""
    _write_lines(map(bench_line_to_json, lines), sink)


def parse_report(text: str) -> ParsedReport:
    """Parse report text back into typed lines.

    Raises ReportFormatError naming the 1-based line number on any
    malformed or incomplete line.
    """
    trials: list[ReportLine] = []
    benches: list[BenchLine] = []
    summaries: list[dict] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReportFormatError(f"line {n}: not valid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ReportFormatError(f"line {n}: expected a JSON object")
        kind = obj.get("type")
        if kind == "summary":
            summaries.append(obj)
            continue
        if kind == "bench":
            try:
                benches.append(
                    BenchLine(
                        property=obj["property"],
                        run=obj["run"],
                        trials_to_failure=obj["trials_to_failure"],
                        seed=obj["seed"],
                        schema_version=obj["schema_version"],
                    )
                )
            except KeyError as exc:
                raise ReportFormatError(f"line {n}: missing field {exc.args[0]!r}") from exc
            continue
        if kind is not None:
            raise ReportFormatError(f"line {n}: unknown line type {kind!r}")
        try:
            features = obj["features"]
            trials.append(
                ReportLine(
                    property=obj["property"],
                    status=obj["status"],
                    representation=obj["representation"],
                    depth=features["depth"],
                    size=features["size"],
                    num_seq=features["num_seq"],
                    seed=obj["seed"],
                    trial=obj["trial"],
                    schema_version=obj["schema_version"],
                    outcome_a=obj.get("outcome_a"),
                    outcome_b=obj.get("outcome_b"),
                    shrunk=obj.get("shrunk"),
                    detail=obj.get("detail"),
                )
            )
        except (KeyError, TypeError) as exc:
            key = exc.args[0] if isinstance(exc, KeyError) else exc
            raise ReportFormatError(f"line {n}: missing field {key!r}") from exc
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
