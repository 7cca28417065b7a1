"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import specdiff.suite
from specdiff import cli
from specdiff.cli import main
from specdiff.interp import Implementation
from specdiff.report import parse_report
from specdiff.suite import get_suite
from specdiff.suite.finite_set import ListSet
from specdiff.symexpr import from_text, type_of
from specdiff.sigdsl import render_ty
from test_sigdsl import REJECTED

# int() refuses strings of more digits than this (0: no limit)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_bundled_suite(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite", "finite_set")
        assert code == 0
        assert "finite_set" in out and "7 ops" in out and "immutable" in out
        assert "bool, int, int list" in out

    def test_sig_file(self, capsys, tmp_path):
        path = tmp_path / "pair.sig"
        path.write_text(
            "signature pair\nabstract t\nop make : int -> int -> t\n"
            "op first : t -> int\nend"
        )
        code, out, _ = run_cli(capsys, "validate", "--sig", str(path))
        assert code == 0
        assert "pair" in out and "2 ops" in out

    def test_invalid_sig_file(self, capsys, tmp_path):
        path = tmp_path / "bad.sig"
        path.write_text("signature bad\nop f : t -> t\nend")
        code, _, err = run_cli(capsys, "validate", "--sig", str(path))
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_sig_file(self, capsys, tmp_path):
        path = tmp_path / "deep.sig"
        deep = "(" * 3000 + "int" + ")" * 3000
        path.write_text(f"signature deep\nabstract t\nop e : t\nop f : {deep} -> int\nend")
        code, _, err = run_cli(capsys, "validate", "--sig", str(path))
        assert code == 2
        assert err.startswith("error: ") and "nested too deeply" in err

    def test_long_postfix_chain_in_sig_file(self, capsys, tmp_path):
        path = tmp_path / "deep.sig"
        deep = "int" + " list" * 3000
        path.write_text(f"signature deep\nabstract t\nop e : t\nop f : {deep} -> int\nend")
        code, out, err = run_cli(capsys, "validate", "--sig", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ty", [ty for ty, _ in REJECTED])
    def test_rejected_op_type_is_one_error_line(self, capsys, tmp_path, ty):
        path = tmp_path / "bad.sig"
        path.write_text(f"signature bad\nabstract t\nop e : t\nop g : t -> int\nop f : {ty}\nend")
        code, out, err = run_cli(capsys, "validate", "--sig", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: op 'f': ") and err.count("\n") == 1

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--suite", "nope")
        assert code == 2
        assert "finite_set" in err  # lists what is available

    def test_missing_source_flag(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == 2


class TestSample:
    def test_samples_typecheck(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--suite", "finite_set", "--type", "bool",
            "--count", "3", "--size", "5", "--seed", "1",
        )
        assert code == 0
        sig = get_suite("finite_set").signature
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert render_ty(type_of(from_text(line, sig), sig)) == "bool"

    def test_deterministic(self, capsys):
        args = ("sample", "--suite", "bst_map", "--type", "int", "--count", "5",
                "--size", "9", "--seed", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unknown_type(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--suite", "counter", "--type", "string"
        )
        assert code == 2
        assert "error:" in err


class TestCheck:
    def test_references_pass(self, capsys, tmp_path):
        report = tmp_path / "out.jsonl"
        code, out, _ = run_cli(
            capsys,
            "check", "--suite", "finite_set", "--impl-a", "listset",
            "--impl-b", "bstset", "--trials", "500", "--report", str(report),
        )
        assert code == 0
        text = report.read_text()
        assert len(text.splitlines()) == 501  # trials + summary
        assert "0 failures" in out or "passed" in out

    def test_bug_detected_exits_one(self, capsys, tmp_path):
        report = tmp_path / "fail.jsonl"
        code, out, _ = run_cli(
            capsys,
            "check", "--suite", "bst_map", "--impl-a", "correct",
            "--impl-b", "b1", "--trials", "300", "--report", str(report),
        )
        assert code == 1
        assert "FAIL" in out
        parsed = parse_report(report.read_text())
        assert any(line.status == "failed" for line in parsed.trials)
        assert parsed.summaries[0]["failures"] >= 1

    def test_report_dash_streams_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys,
            "check", "--suite", "counter", "--impl-a", "int_counter",
            "--impl-b", "list_counter", "--trials", "50", "--report", "-",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 51
        assert all(json.loads(line) for line in lines)
        assert err  # the human-readable summary moves to stderr

    def test_check_without_report_writes_no_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--suite", "counter", "--impl-a", "int_counter",
            "--impl-b", "int_counter", "--trials", "40",
        )
        assert code == 0
        assert not any(line.startswith("{") for line in out.splitlines())

    def test_stop_on_failure(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--suite", "bst_map", "--impl-a", "correct",
            "--impl-b", "b1", "--trials", "5000", "--stop-on-failure",
        )
        assert code == 1
        summary = [l for l in out.splitlines() if "trial" in l.lower()]
        assert summary

    def test_deterministic_stdout(self, capsys):
        args = (
            "check", "--suite", "bst_map", "--impl-a", "correct",
            "--impl-b", "b5", "--trials", "400", "--seed", "11", "--report", "-",
        )
        code1, first, err1 = run_cli(capsys, *args)
        code2, second, err2 = run_cli(capsys, *args)
        assert (code1, first, err1) == (code2, second, err2)

    def test_seed_env_override_and_flag_priority(self, capsys, monkeypatch):
        base = (
            "check", "--suite", "finite_set", "--impl-a", "listset",
            "--impl-b", "bstset", "--trials", "30", "--report", "-",
        )
        _, default_out, _ = run_cli(capsys, *base)
        monkeypatch.setenv("SPECDIFF_SEED", "99")
        _, env_out, _ = run_cli(capsys, *base)
        assert env_out != default_out  # env var changes the seed
        _, flag_out, _ = run_cli(capsys, *base, "--seed", "0")
        assert flag_out == default_out  # explicit flag beats the env var
        monkeypatch.delenv("SPECDIFF_SEED")

    def test_sig_file_of_a_bundled_suite_checks_as_the_suite(self, capsys):
        flags = ("--impl-a", "int_counter", "--impl-b", "saturating", "--trials", "300",
                 "--seed", "7", "--report", "-")
        path = Path(specdiff.suite.__file__).with_name("counter.sig")
        by_sig = run_cli(capsys, "check", "--sig", str(path), *flags)
        assert by_sig == run_cli(capsys, "check", "--suite", "counter", *flags)
        assert by_sig[0] == 1 and by_sig[1]

    def test_sig_file_of_no_suite_exits_two(self, capsys, tmp_path):
        path = tmp_path / "pair.sig"
        path.write_text("signature pair\nabstract t\nop make : int -> t\nop first : t -> int\nend")
        code, out, err = run_cli(
            capsys, "check", "--sig", str(path), "--impl-a", "a", "--impl-b", "b"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: no implementations registered for signature 'pair'; use a bundled suite\n"
        )

    def test_an_implementation_missing_a_method_exits_two(self, capsys, monkeypatch, tmp_path):
        # listset without its size method, registered as a bug variant
        methods = {op: method for op, method in vars(ListSet).items() if not op.startswith("_")}
        del methods["size"]
        no_size = type("NoSize", (Implementation,), {**methods, "name": "no_size"})
        monkeypatch.setitem(get_suite("finite_set").bug_variants, "no_size", no_size)
        report = tmp_path / "bug.jsonl"
        code, out, _ = run_cli(
            capsys,
            "check", "--suite", "finite_set", "--impl-a", "listset",
            "--impl-b", "no_size", "--trials", "30", "--seed", "1", "--report", str(report),
        )
        assert code == 2
        bugs = [line for line in out.splitlines() if line.startswith("HARNESS BUG")]
        assert bugs
        for line in bugs:
            assert re.fullmatch(
                r"HARNESS BUG trial \d+: no_size: op 'size' raised AttributeError: .*size.*", line
            ), line
        parsed = parse_report(report.read_text())
        bugged = [line for line in parsed.trials if line.status == "harness_bug"]
        assert len(bugged) == len(bugs) and parsed.summaries[0]["failures"] == 0
        assert all("(size " in line.representation for line in bugged)
        assert out.endswith(f"30 trials, 0 failures, {len(bugs)} harness bugs\n")

    def test_unknown_implementation(self, capsys):
        code, _, err = run_cli(
            capsys,
            "check", "--suite", "finite_set", "--impl-a", "listset",
            "--impl-b", "avl",
        )
        assert code == 2
        assert "error:" in err and "bstset" in err


class TestBench:
    def test_bench_table_and_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.jsonl"
        code, out, _ = run_cli(
            capsys,
            "bench", "--suite", "bst_map", "--runs", "5", "--trial-cap", "2000",
            "--seed", "0", "--output", str(out_path),
        )
        assert code == 0
        for column in (f"b{i}" for i in range(1, 9)):
            assert column in out
        for label in ("Min", "Mean", "Max"):
            assert label in out
        parsed = parse_report(out_path.read_text())
        assert len(parsed.benches) == 5 * 8
        assert {b.property.split(":")[-1] for b in parsed.benches} == {
            f"b{i}" for i in range(1, 9)
        }

    def test_bench_output_dash(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bench", "--suite", "counter", "--runs", "3", "--trial-cap", "3000",
            "--output", "-",
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert json.loads(line)["type"] == "bench"
        assert "saturating" in err  # table goes to stderr when stdout is data

    def test_deterministic(self, capsys):
        args = ("bench", "--suite", "finite_set", "--runs", "4",
                "--trial-cap", "500", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSummarize:
    def test_summarize_report_file(self, capsys, tmp_path):
        report = tmp_path / "campaign.jsonl"
        run_cli(
            capsys,
            "check", "--suite", "bst_map", "--impl-a", "correct",
            "--impl-b", "b2", "--trials", "400", "--report", str(report),
        )
        code, out, _ = run_cli(capsys, "summarize", "--report", str(report))
        assert code == 0
        assert "depth histogram" in out
        assert "Mean" in out

    def test_summarize_bench_output(self, capsys, tmp_path):
        out_path = tmp_path / "bench.jsonl"
        run_cli(
            capsys,
            "bench", "--suite", "counter", "--runs", "3", "--trial-cap", "2000",
            "--output", str(out_path),
        )
        code, out, _ = run_cli(capsys, "summarize", "--report", str(out_path))
        assert code == 0
        assert "saturating" in out

    def test_malformed_report(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"nope"\n')
        code, _, err = run_cli(capsys, "summarize", "--report", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_report_nested_too_deeply_for_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        code, out, err = run_cli(capsys, "summarize", "--report", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: not valid JSON")

    @pytest.mark.parametrize(
        "line",
        [
            '{"schema_version":"1","property":"counter:int","status":"passed","representation":"(get)",'
            '"features":{"depth":"x","size":1,"num_seq":0},"seed":0,"trial":1}',
            '{"schema_version":"1","property":"counter:int","status":"passed","representation":"(get)",'
            '"features":{"depth":1,"size":1,"num_seq":0},"seed":0,"trial":null}',
            '{"schema_version":"1","type":"bench","property":"counter:saturating","run":0,'
            '"trials_to_failure":"5","seed":0}',
        ],
        ids=["string-depth", "null-trial", "string-trials-to-failure"],
    )
    def test_ill_typed_field_exits_two(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        code, out, err = run_cli(capsys, "summarize", "--report", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: field ")

    def test_summary_of_another_schema_version_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"type":"summary","total":0,"failures":0,"trials_to_first_failure":null,'
            '"seed":0,"schema_version":"9"}\n'
        )
        code, out, err = run_cli(capsys, "summarize", "--report", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: line 1: field 'schema_version' must be '1', not '9'\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "summarize", "--report", str(tmp_path / "absent.jsonl"))
        assert code == 2


class TestBadFlags:
    CHECK = ("check", "--suite", "counter", "--impl-a", "int_counter", "--impl-b", "saturating")
    SAMPLE = ("sample", "--suite", "counter", "--type", "int")
    BENCH = ("bench", "--suite", "counter")

    @pytest.mark.parametrize(
        "argv",
        [
            (*CHECK, "--max-size", "-1"),
            (*CHECK, "--trials", "-5"),
            (*CHECK, "--seq-prob", "nan"),
            (*CHECK, "--seq-prob", "-0.1"),
            (*CHECK, "--seq-prob", "1.5"),
            (*SAMPLE, "--seq-prob", "nan"),
            (*SAMPLE, "--seq-prob", "2"),
            (*SAMPLE, "--count", "-1"),
            (*SAMPLE, "--size", "-3"),
            (*BENCH, "--runs", "-1"),
            (*BENCH, "--trial-cap", "-10"),
            (*BENCH, "--runs", "many"),
        ],
    )
    def test_rejected_with_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error: argument " + argv[-2] in err
        assert "Traceback" not in err and not out

    LONG = "9" * 300  # within int()'s digit limit

    @pytest.mark.parametrize(
        "argv,message",
        [
            ((*CHECK, "--trials", "-" + LONG), "must be >= 0, got a value of 301 characters"),
            ((*CHECK, "--seed", "x" + LONG), "not an integer: a value of 301 characters"),
            ((*CHECK, "--seq-prob", "x" + LONG), "not a number: a value of 301 characters"),
            ((*CHECK, "--seq-prob", LONG), "must be in [0, 1], got a value of 300 characters"),
        ],
        ids=["negative-count", "not-an-integer", "not-a-number", "probability-out-of-range"],
    )
    def test_a_long_bad_value_is_named_by_its_length(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"specdiff check: error: argument {argv[-2]}: {message}"
        assert max(map(len, err.splitlines())) < 200

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts any number of digits")
    @pytest.mark.parametrize(
        "argv", [(*CHECK, "--trials"), (*SAMPLE, "--count"), (*CHECK, "--seed"), (*BENCH, "--seed")]
    )
    def test_an_integer_past_the_digit_limit_is_named(self, capsys, argv):
        digits = "9" * (INT_DIGIT_LIMIT + 1)
        code, out, err = run_cli(capsys, *argv, digits)
        assert (code, out) == (2, "")
        error = err.splitlines()[-1]
        assert error == (
            f"specdiff {argv[0]}: error: argument {argv[-1]}: "
            f"integer has too many digits ({len(digits)} characters)"
        )
        assert len(error) < 200

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts any number of digits")
    def test_a_seed_variable_past_the_digit_limit_is_named(self, capsys, monkeypatch):
        digits = "9" * (INT_DIGIT_LIMIT + 1)
        monkeypatch.setenv("SPECDIFF_SEED", digits)
        code, out, err = run_cli(capsys, *self.CHECK)
        assert (code, out) == (2, "")
        too_many = f"integer has too many digits ({len(digits)} characters)"
        assert err == f"error: SPECDIFF_SEED: {too_many}\n"

    def test_unwritable_report_fails_before_any_trial(self, capsys, monkeypatch, tmp_path):
        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran before the report was opened")

        monkeypatch.setattr(cli, "run_differential", no_campaign)
        bad = str(tmp_path / "absent" / "report.jsonl")
        code, out, err = run_cli(capsys, *self.CHECK, "--trials", "20000", "--report", bad)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err and not out

    def test_bounds_are_accepted(self, capsys):
        code, _, _ = run_cli(capsys, *self.CHECK, "--trials", "0", "--max-size", "0",
                             "--seq-prob", "1")
        assert code == 0
        code, out, _ = run_cli(capsys, *self.SAMPLE, "--size", "0", "--seq-prob", "0")
        assert code == 0 and out.splitlines() == ["(get)"] * 10


def quick_start_commands() -> list[tuple[str, str]]:
    """Each `$ specdiff` line of the README's Quick start, with the lines after it."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text("utf-8").split("## Quick start", 1)[1].split("```", 2)[1]
    commands: list[tuple[str, list[str]]] = []
    for line in block.strip("\n").splitlines():
        if line.startswith("$ specdiff "):
            commands.append((line[2:], []))
        else:
            commands[-1][1].append(line)
    return [(cmd, "\n".join(out).rstrip("\n") + "\n") for cmd, out in commands]


class TestReadme:
    def test_quick_start_output(self, capsys, monkeypatch):
        monkeypatch.delenv("SPECDIFF_SEED", raising=False)
        commands = quick_start_commands()
        assert commands
        for command, want in commands:
            code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
            assert code in (0, 1), command
            assert out == want, command


    def test_failed_line_example(self, capsys, tmp_path):
        # Each of the Reports section's example lines, the passed one and
        # the failed one, is a line of the report of the check command that
        # the text before it names.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split("## Reports", 1)[1]
        before, *examples = section.split("```json\n")
        assert len(examples) == 2
        for example in examples:
            command = " ".join(re.findall(r"is from `(check[^`]*)`", before)[-1].split())
            line = example.split("\n", 1)[0]
            path = tmp_path / "report.jsonl"
            run_cli(capsys, *shlex.split(command), "--report", str(path))
            assert line in path.read_text("utf-8").splitlines(), command
            before = example

    @staticmethod
    def python_block(heading: str) -> str:
        """The one Python block of the README section under heading."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
        (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
        return block

    def test_implementation_example(self, capsys):
        # The Implementations section's example runs, and its 200-trial
        # campaign of the example against itself agrees on every trial.
        namespace: dict = {}
        exec(self.python_block("Implementations"), namespace)
        result = namespace["result"]
        assert result.total_trials == 200
        assert result.failures == [] and result.harness_bugs == 0
        assert capsys.readouterr().out == "200 0 0\n"

    def test_report_example(self, capsys, monkeypatch, tmp_path):
        # The Reports section's example writes the Implementations example's
        # campaign as a report: its 200 trial lines, then its summary.
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        exec(self.python_block("Implementations"), namespace)
        exec(self.python_block("Reports"), namespace)
        parsed = parse_report((tmp_path / "report.jsonl").read_text("utf-8"))
        assert len(parsed.trials) == 200 and parsed.benches == []
        assert [s["total"] for s in parsed.summaries] == [200]


class TestGoldenReports:
    """Reports for pinned flags must stay byte-identical across changes.

    A deliberate change to generation, shrinking or the report format
    updates these hashes and says so.
    """

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (
                ("check", "--suite", "finite_set", "--impl-a", "listset",
                 "--impl-b", "insert_dup", "--trials", "2000", "--seed", "1", "--report"),
                "18bd543954b34aa1e39f5240f4c881040a77a15ab781ec1382626018979381ad",
            ),
            (
                ("check", "--suite", "bst_map", "--impl-a", "correct",
                 "--impl-b", "b2", "--trials", "2000", "--seed", "3", "--report"),
                "a126cdf03a3faaaa6297bac61b7c8b5c365f15875fb73a2894ef23451e9aca18",
            ),
            (
                ("check", "--suite", "counter", "--impl-a", "int_counter",
                 "--impl-b", "saturating", "--trials", "3000", "--seed", "1", "--report"),
                "366966eb78c08cea9a3092a78d5b960f2eb4c7b64fed1f688bdcd76e03565d8e",
            ),
            (
                ("bench", "--suite", "finite_set", "--runs", "20", "--seed", "5", "--output"),
                "13171611aa96e6b0483e442b107e9cb3c50ee8bad811072529f5a8531c7fd6a8",
            ),
            (
                ("bench", "--suite", "bst_map", "--runs", "20", "--seed", "5", "--output"),
                "1a73126f23f7e1dc8b1bcc490fb0e45cb39a53f99bfcf520dc2cc7d4d38508ad",
            ),
            # Two agreeing pairings, so that every bundled class is pinned:
            # the bench above runs each bst_map variant, these run bstset
            # and list_counter against another reference.
            (
                ("check", "--suite", "finite_set", "--impl-a", "listset",
                 "--impl-b", "bstset", "--trials", "2000", "--seed", "1", "--report"),
                "cfe09d75540669463e697dff7a0ca5b8bf8e1c1024d62b74f337c7a2f6cd279f",
            ),
            (
                ("check", "--suite", "counter", "--impl-a", "int_counter",
                 "--impl-b", "list_counter", "--trials", "2000", "--seed", "1", "--report"),
                "855d3a5ccb701d543309f7fb415e76cb4cdcfc6fbc941b2db0dbd770c991b328",
            ),
        ],
        ids=[
            "check-finite_set",
            "check-bst_map",
            "check-counter",
            "bench-finite_set",
            "bench-bst_map",
            "check-finite_set-agree",
            "check-counter-agree",
        ],
    )
    def test_report_sha256(self, capsys, tmp_path, argv, sha256):
        path = tmp_path / "report.jsonl"
        run_cli(capsys, *argv, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for sub in ("check", "sample", "validate", "bench", "summarize"):
            assert sub in out
