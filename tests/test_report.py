"""JSON Lines reports: emission, parsing, summary tables."""

from __future__ import annotations

import copy
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdiff import harness
from specdiff.generator import GenConfig
from specdiff.harness import judge, run_differential
from specdiff.report import (
    BenchLine,
    ReportFormatError,
    ReportLine,
    ReportWriteError,
    ReportWriter,
    bench_lines,
    emit_bench,
    emit_campaign,
    line_to_json,
    parse_report,
    property_name,
    round_half_up,
    summarize,
)
from specdiff.sigdsl import render_ty
from specdiff.suite import get_implementation, get_suite
from specdiff.symexpr import from_text, type_of

from models import FindDividesByZero, ModelMap, ModelSet


def stream_campaign(sink, sig, impl_a, impl_b, trials, seed=0):
    """Run a campaign and write its report to sink as check does: each
    trial's line as soon as it is made, then the summary line."""
    report = ReportWriter(sink)
    result = run_differential(
        sig, impl_a, impl_b, trials, GenConfig(seed=seed), consumer=report
    )
    emit_campaign(result, sink, written=report.written)
    return result


def impls(suite_name, a, b):
    return get_implementation(suite_name, a), get_implementation(suite_name, b)


def run_campaign(suite_name, a, b, trials, seed=0):
    """A bundled pairing's campaign, and its report's text."""
    sink = io.BytesIO()
    sig = get_suite(suite_name).signature
    result = stream_campaign(sink, sig, *impls(suite_name, a, b), trials, seed)
    return result, sink.getvalue().decode("utf-8")


class TestEmitCampaign:
    def test_zero_trials_yields_only_the_summary(self, finite_set_sig):
        _, text = run_campaign("finite_set", "listset", "listset", trials=0)
        lines = text.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "type": "summary",
            "total": 0,
            "failures": 0,
            "trials_to_first_failure": None,
            "seed": 0,
        }

    def test_passing_trial_line_shape(self):
        line = ReportLine(
            property="finite_set:bool",
            status="passed",
            representation="(mem 3 (insert 3 (empty)))",
            depth=3,
            size=3,
            num_seq=0,
            seed=12345,
            trial=42,
        )
        got = line_to_json(line)
        assert got == (
            '{"schema_version":"1","property":"finite_set:bool","status":"passed",'
            '"representation":"(mem 3 (insert 3 (empty)))",'
            '"features":{"depth":3,"size":3,"num_seq":0},"seed":12345,"trial":42}'
        )

    def test_line_is_the_dict_encoding(self):
        text = 'q"b\\s/\u00e9\u2028\x01\n'
        fields = dict(
            property="p:" + text, status="failed", representation="(r " + text + ")",
            depth=2, size=3, num_seq=1, seed=2**64 - 1, trial=7,
            outcome_a="ok " + text, outcome_b="failed x", shrunk=text, detail=text,
        )
        line = ReportLine(**fields)
        obj = {
            "schema_version": "1", "property": line.property, "status": "failed",
            "representation": line.representation,
            "features": {"depth": 2, "size": 3, "num_seq": 1}, "seed": 2**64 - 1, "trial": 7,
            "outcome_a": line.outcome_a, "outcome_b": "failed x", "shrunk": text, "detail": text,
        }
        assert line_to_json(line) == json.dumps(obj, separators=(",", ":"))
        line = ReportLine(**{**fields, "outcome_a": None, "outcome_b": None, "shrunk": None})
        for key in ("outcome_a", "outcome_b", "shrunk"):
            del obj[key]
        assert line_to_json(line) == json.dumps(obj, separators=(",", ":"))

    def test_one_line_per_trial_in_order(self):
        _, text = run_campaign("finite_set", "listset", "bstset", trials=50)
        lines = text.splitlines()
        assert len(lines) == 51  # 50 trials + summary
        trials = [json.loads(line)["trial"] for line in lines[:-1]]
        assert trials == list(range(1, 51))  # 1-based in the report

    def test_reemission_is_byte_identical(self):
        _, text = run_campaign("bst_map", "correct", "b1", trials=200)
        _, again = run_campaign("bst_map", "correct", "b1", trials=200)
        assert text == again

    def test_failed_lines_carry_outcomes_and_shrunk(self):
        _, text = run_campaign("bst_map", "correct", "b1", trials=200)
        objs = [json.loads(line) for line in text.splitlines()[:-1]]
        failed = [o for o in objs if o["status"] == "failed"]
        assert failed
        for obj in failed:
            assert obj["outcome_a"] != obj["outcome_b"]
            assert obj["shrunk"]

    def test_write_failure_reports_byte_offset(self, finite_set_sig):
        _, text = run_campaign("finite_set", "listset", "bstset", trials=5)
        full = text.encode("utf-8")

        class Choked(io.BytesIO):
            def __init__(self, budget):
                super().__init__()
                self.budget = budget

            def write(self, data):
                if self.tell() + len(data) > self.budget:
                    raise OSError("disk full")
                return super().write(data)

        sink = Choked(budget=400)  # past two trial lines, short of the third
        with pytest.raises(ReportWriteError) as exc:
            stream_campaign(sink, finite_set_sig, *impls("finite_set", "listset", "bstset"), 5)
        assert exc.value.bytes_written == sink.tell()
        assert exc.value.bytes_written < len(full)

    def test_a_sink_that_fails_stops_the_campaign_at_its_line(self, counter_sig, monkeypatch):
        class FailsAt:
            """A bytes sink whose k-th write raises."""

            def __init__(self, k):
                self.k, self.writes, self.data = k, 0, bytearray()

            def write(self, data):
                self.writes += 1
                if self.writes == self.k:
                    raise OSError("disk full")
                self.data += data

        judged = [0]

        def counting(*args):
            judged[0] += 1
            return judge(*args)

        monkeypatch.setattr(harness, "judge", counting)
        a, b = impls("counter", "int_counter", "list_counter")
        for k in (1, 2, 7, 51):  # the 51st line is the summary
            judged[0] = 0
            sink = FailsAt(k)
            with pytest.raises(ReportWriteError) as exc:
                stream_campaign(sink, counter_sig, a, b, trials=50)
            text = sink.data.decode("utf-8")
            assert text.count("\n") == k - 1 and text.endswith("\n") == (k > 1)
            assert [line.trial for line in parse_report(text).trials] == list(range(1, k))
            assert exc.value.bytes_written == len(sink.data)
            assert judged[0] == min(k, 50)  # trial k ran, and no trial after it

    def test_representations_parse_and_typecheck(self):
        sig = get_suite("counter").signature
        _, text = run_campaign("counter", "int_counter", "list_counter", trials=300)
        parsed = parse_report(text)
        assert len(parsed.trials) == 300
        for line in parsed.trials:
            e = from_text(line.representation, sig)
            want = line.property.split(":", 1)[1]
            assert render_ty(type_of(e, sig)) == want


class TestParse:
    def test_round_trips_through_text(self):
        _, text = run_campaign("bst_map", "correct", "b3", trials=150)
        parsed = parse_report(text)
        assert len(parsed.trials) == 150
        assert len(parsed.summaries) == 1
        rebuilt = "".join(line_to_json(line) + "\n" for line in parsed.trials)
        assert text.startswith(rebuilt)

    def test_parsed_lines_are_the_campaign_records(self, bst_map_sig):
        records = []
        sink = io.BytesIO()
        report = ReportWriter(sink)

        def keep(line):
            records.append(line)
            report(line)

        pairs = [impls("bst_map", "correct", "b2"), (ModelMap(), FindDividesByZero())]
        for a, b in pairs:
            run_differential(bst_map_sig, a, b, 300, GenConfig(seed=0), consumer=keep)
        assert {r.status for r in records} == {"passed", "failed", "harness_bug"}
        parsed = parse_report(sink.getvalue().decode("utf-8"))
        assert parsed.trials == records

    def test_blank_lines_skipped(self):
        assert parse_report("\n  \n").trials == []

    def test_invalid_json_names_the_line(self):
        good = '{"type":"summary","total":0,"failures":0,"trials_to_first_failure":null,"seed":0}'
        with pytest.raises(ReportFormatError, match="line 3"):
            parse_report(f"{good}\n{good}\n{{oops\n")

    def test_json_nested_past_the_recursion_limit_names_the_line(self):
        good = '{"type":"summary","total":0,"failures":0,"trials_to_first_failure":null,"seed":0}'
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ReportFormatError, match="^line 2: not valid JSON"):
            parse_report(f"{good}\n{deep}\n")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts any number of digits",
    )
    def test_an_integer_past_the_digit_limit_names_the_line(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        bench = (
            '{"schema_version":"1","type":"bench","property":"counter:saturating","run":0,'
            f'"trials_to_failure":{digits},"seed":0}}'
        )
        with pytest.raises(ReportFormatError, match="^line 1: not valid JSON"):
            parse_report(bench + "\n")
        assert parse_report(bench.replace(digits, digits[1:]) + "\n").benches

    def test_missing_field_names_the_line(self):
        with pytest.raises(ReportFormatError, match="line 1.*features"):
            parse_report('{"property":"x:bool","status":"passed"}\n')

    def test_unknown_line_type_rejected(self):
        with pytest.raises(ReportFormatError, match="unknown line type"):
            parse_report('{"type":"wibble"}\n')

    def test_bench_lines_parse(self):
        sink = io.BytesIO()
        emit_bench(bench_lines("bst_map:int option", (4, 6, None), base_seed=100), sink)
        parsed = parse_report(sink.getvalue().decode("utf-8"))
        assert [b.trials_to_failure for b in parsed.benches] == [4, 6, None]
        assert [b.seed for b in parsed.benches] == [100, 101, 102]


# A well-formed line of each kind, and what each of its fields may hold,
# written out independently of report.py: field path -> (JSON type, may it
# be null, may it be absent, its allowed values).  The allowed values of an
# integer are those at or above the least one given; those of a string
# are listed; None allows any value of the type.
WELL_FORMED = {
    "trial": (
        {
            "schema_version": "1", "property": "counter:int", "status": "failed",
            "representation": "(seq (incr) (get))",
            "features": {"depth": 2, "size": 3, "num_seq": 1}, "seed": 5, "trial": 3,
            "outcome_a": "ok 1", "outcome_b": "ok 0", "shrunk": "(seq (incr) (get))",
            "detail": "d",
        },
        {
            ("schema_version",): (str, False, False, ("1",)),
            ("property",): (str, False, False, None),
            ("status",): (str, False, False, ("passed", "failed", "harness_bug")),
            ("representation",): (str, False, False, None),
            ("features",): (dict, False, False, None),
            ("features", "depth"): (int, False, False, 1),
            ("features", "size"): (int, False, False, 1),
            ("features", "num_seq"): (int, False, False, 0),
            ("seed",): (int, False, False, None),
            ("trial",): (int, False, False, 1),
            ("outcome_a",): (str, True, True, None),
            ("outcome_b",): (str, True, True, None),
            ("shrunk",): (str, True, True, None),
            ("detail",): (str, True, True, None),
        },
    ),
    "bench": (
        {
            "schema_version": "1", "type": "bench", "property": "counter:saturating",
            "run": 0, "trials_to_failure": 6, "seed": 0,
        },
        {
            ("schema_version",): (str, False, False, ("1",)),
            ("property",): (str, False, False, None),
            ("run",): (int, False, False, 0),
            ("trials_to_failure",): (int, True, False, 1),
            ("seed",): (int, False, False, None),
        },
    ),
    "summary": (
        {
            "type": "summary", "total": 3, "failures": 1, "trials_to_first_failure": 2,
            "seed": 0, "schema_version": "1",
        },
        {
            ("total",): (int, False, False, 0),
            ("failures",): (int, False, False, 0),
            ("trials_to_first_failure",): (int, True, False, 1),
            ("seed",): (int, False, False, None),
            ("schema_version",): (str, True, True, ("1",)),
        },
    ),
}


def in_range(value, allowed) -> bool:
    """Is a value of a field's JSON type among the field's allowed values?"""
    if allowed is None:
        return True
    return value >= allowed if type(allowed) is int else value in allowed


DELETE = object()


def with_field(kind: str, path: tuple, value) -> str:
    """A summary line, then the well-formed line of kind with the field at
    path set to value, or deleted when value is DELETE."""
    obj = copy.deepcopy(WELL_FORMED[kind][0])
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    if value is DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return json.dumps(WELL_FORMED["summary"][0]) + "\n" + json.dumps(obj) + "\n"


ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


class TestIllTypedFields:
    @pytest.mark.parametrize(
        "kind,path",
        [(kind, path) for kind, (_, fields) in WELL_FORMED.items() for path in fields],
        ids=lambda x: ".".join(x) if isinstance(x, tuple) else x,
    )
    @settings(max_examples=25)  # per field
    @given(delete=st.booleans(), value=ANY_JSON)
    def test_a_missing_or_ill_typed_field_is_a_format_error(self, kind, path, delete, value):
        want, nullable, optional, allowed = WELL_FORMED[kind][1][path]
        named = path[-1]
        if delete:
            accepted = optional
        else:
            # type() and not isinstance(): a bool is no integer.
            accepted = (type(value) is want and in_range(value, allowed)) or (
                value is None and nullable
            )
            if accepted and want is dict:  # no drawn object holds the features
                accepted, named = False, "depth"
        text = with_field(kind, path, DELETE if delete else value)
        if accepted:
            parsed = parse_report(text)
            summarize(parsed.trials + parsed.benches)
        else:
            with pytest.raises(ReportFormatError, match=f"^line 2: .*field '{named}'"):
                parse_report(text)

    @pytest.mark.parametrize(
        "kind,path",
        [
            (kind, path)
            for kind, (_, fields) in WELL_FORMED.items()
            for path, (*_, allowed) in fields.items()
            if allowed is not None
        ],
        ids=lambda x: ".".join(x) if isinstance(x, tuple) else x,
    )
    def test_a_value_out_of_range_is_a_format_error(self, kind, path):
        want, _, _, allowed = WELL_FORMED[kind][1][path]
        if want is int:
            good, bad = [allowed, allowed + 1], [allowed - 1, allowed - 5]
        else:
            good, bad = list(allowed), ["wibble", "", allowed[0].upper() + " "]
        for value in good:
            parse_report(with_field(kind, path, value))
        for value in bad:
            with pytest.raises(ReportFormatError, match=f"^line 2: field '{path[-1]}' must be "):
                parse_report(with_field(kind, path, value))

    def test_messages_name_the_field_and_both_types(self):
        good = dict(WELL_FORMED["bench"][0], trials_to_failure="5")
        with pytest.raises(ReportFormatError) as exc:
            parse_report(json.dumps(good))
        assert str(exc.value) == (
            "line 1: field 'trials_to_failure' must be an integer or null, not a string"
        )
        good = copy.deepcopy(WELL_FORMED["trial"][0])
        good["features"]["depth"] = True
        with pytest.raises(ReportFormatError) as exc:
            parse_report(json.dumps(good))
        assert str(exc.value) == "line 1: field 'depth' must be an integer, not a boolean"


    def test_messages_name_the_field_and_its_range(self):
        line = dict(WELL_FORMED["trial"][0], seed=-3)  # a seed may be negative
        parse_report(json.dumps(line))
        for field, value, want in [
            ("schema_version", "9", "field 'schema_version' must be '1', not '9'"),
            ("status", "wibble", (
                "field 'status' must be 'passed', 'failed' or 'harness_bug', not 'wibble'"
            )),
            ("trial", -3, "field 'trial' must be at least 1, not -3"),
        ]:
            with pytest.raises(ReportFormatError) as exc:
                parse_report(json.dumps(dict(line, **{field: value})))
            assert str(exc.value) == "line 1: " + want


class TestRounding:
    @pytest.mark.parametrize(
        "total,count,want",
        [(3, 2, 2), (4, 3, 1), (5, 1, 5), (5, 2, 3), (14, 4, 4), (10, 4, 3)],
    )
    def test_round_half_up(self, total, count, want):
        assert round_half_up(total, count) == want


class TestSummarize:
    def test_single_failing_run(self):
        lines = [
            BenchLine(property="bst_map:int option", run=0, trials_to_failure=6, seed=0)
        ]
        table = summarize(lines)
        assert "bst_map:int option" in table
        for label in ("Min", "Mean", "Max"):
            row = next(l for l in table.splitlines() if l.lstrip().startswith(label))
            assert row.split()[-1] == "6"

    def test_bench_table_has_one_column_per_property(self):
        lines = [
            BenchLine(property=f"bst_map:b{i}", run=r, trials_to_failure=10 * i + r, seed=r)
            for i in range(1, 9)
            for r in range(3)
        ]
        table = summarize(lines)
        header = table.splitlines()[1]
        assert [f"bst_map:b{i}" in header for i in range(1, 9)] == [True] * 8
        mean_row = next(l for l in table.splitlines() if l.lstrip().startswith("Mean"))
        assert mean_row.split()[1:] == [str(10 * i + 1) for i in range(1, 9)]

    def test_all_passing_has_histogram_only(self):
        _, text = run_campaign("finite_set", "listset", "bstset", trials=100)
        table = summarize(parse_report(text).trials)
        assert "(no failures)" in table
        assert "depth histogram" in table
        assert "10+" in table

    def test_histogram_counts_every_trial(self):
        _, text = run_campaign("counter", "int_counter", "list_counter", trials=124)
        table = summarize(parse_report(text).trials)
        hist = [l for l in table.splitlines() if l.strip() and l.split()[0].rstrip("+").isdigit()]
        assert sum(int(l.split()[1]) for l in hist) == 124

    def test_histogram_text_pins_buckets_and_bar_widths(self):
        def passed(depth):
            return ReportLine("counter:int", "passed", "(get)", depth, depth, 0, 0, 1)

        lines = [passed(1)] * 4 + [passed(2)] + [passed(12)] * 2
        zero_rows = [f"    {d}        0" for d in range(3, 10)]
        assert summarize(lines).splitlines() == [
            "trials to first failure",
            "  (no failures)",
            "",
            "depth histogram",
            "    1        4  " + "#" * 40,
            "    2        1  " + "#" * 10,
            *zero_rows,
            "  10+        2  " + "#" * 20,
        ]

    def test_undetected_runs_are_reported(self):
        lines = [
            BenchLine(property="counter:int", run=0, trials_to_failure=9, seed=0),
            BenchLine(property="counter:int", run=1, trials_to_failure=None, seed=1),
        ]
        table = summarize(lines)
        assert "undetected in 1/2 runs" in table

    def test_statistics_match_direct_computation(self):
        # one table column per property; each must agree with the raw records
        result, text = run_campaign("bst_map", "correct", "b2", trials=400)
        parsed = parse_report(text)
        failing = [line for line in parsed.trials if line.status == "failed"]
        assert [line.trial for line in failing] == [
            r.trial for r in result.failures
        ]
        per_property: dict[str, list[int]] = {}
        for line in failing:
            per_property.setdefault(line.property, []).append(line.trial)
        rows = summarize(parsed.trials).splitlines()
        cells = [re.split(r"\s{2,}", row.strip()) for row in rows[1:5]]
        columns = cells[0]
        assert set(columns) == set(per_property)
        min_cells = dict(zip(columns, cells[1][1:]))
        max_cells = dict(zip(columns, cells[3][1:]))
        for prop, trials in per_property.items():
            assert min_cells[prop] == str(min(trials))
            assert max_cells[prop] == str(max(trials))

    def test_no_trailing_whitespace_anywhere(self):
        _, text = run_campaign("finite_set", "listset", "insert_dup", trials=80)
        table = summarize(parse_report(text).trials)
        assert all(line == line.rstrip() for line in table.splitlines())
