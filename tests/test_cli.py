"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from specdiff import cli
from specdiff.cli import main
from specdiff.report import parse_report
from specdiff.suite import get_suite
from specdiff.symexpr import from_text, type_of
from specdiff.sigdsl import render_ty


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
        # The Reports section's failed line is a line of the report of the
        # check command that its text names.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split("## Reports", 1)[1]
        command = " ".join(re.search(r"this\s+one is from `(check[^`]*)`", section)[1].split())
        line = section.split("```json\n")[2].split("\n", 1)[0]  # the second example
        path = tmp_path / "report.jsonl"
        run_cli(capsys, *shlex.split(command), "--report", str(path))
        assert line in path.read_text("utf-8").splitlines()


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
                "d0cbed05ed22c74229cea7055053594fe5d04f4518212f9bd9c5a6412e34376a",
            ),
            (
                ("check", "--suite", "bst_map", "--impl-a", "correct",
                 "--impl-b", "b2", "--trials", "2000", "--seed", "3", "--report"),
                "af8400167eb0807ad2cab24956208842f81f5e634d12aba044ce4633d4f950b0",
            ),
            (
                ("check", "--suite", "counter", "--impl-a", "int_counter",
                 "--impl-b", "saturating", "--trials", "3000", "--seed", "1", "--report"),
                "9a69b68560d07be2e86cd09955997696e9ffd69fa6c37908b84bc03edc9ee204",
            ),
            (
                ("bench", "--suite", "finite_set", "--runs", "20", "--seed", "5", "--output"),
                "d1ed45a40782978423142a257aa55ad412b145b646d69b9962ac02ddbb1b4856",
            ),
        ],
        ids=["check-finite_set", "check-bst_map", "check-counter", "bench-finite_set"],
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
