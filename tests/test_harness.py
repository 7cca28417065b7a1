"""Differential campaigns, shrinking, and trials-to-failure measurement."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from functools import partial

import pytest

import oracles
import specdiff
from specdiff import cli, harness
from specdiff.generator import GenConfig, Rng, gen_expr, size_schedule
from specdiff.harness import (
    CampaignResult,
    _literal_variants,
    bench_trials_to_failure,
    judge,
    run_differential,
    shrink,
)
from specdiff.interp import ContractViolation, HarnessBug, interp, outcome_equal
from specdiff.report import ReportLine
from specdiff.sigdsl import ABSTRACT, INT, UNIT, parse_signature, render_ty, validate_signature
from specdiff.suite import get_implementation, get_suite, list_suites
from specdiff.symexpr import (
    Call,
    Seq,
    VSome,
    depth,
    from_text,
    num_seq,
    size_of,
    to_text,
    type_of,
)

from models import (
    MAPPED_SIG,
    TALLY_SIG,
    FindDividesByZero,
    GetBumpsCounter,
    MappedSkipsFirst,
    ModelCounter,
    ModelMap,
    ModelMapped,
    ModelSet,
    ModelTally,
    ResetRaises,
    SizeReturnsHalf,
    TallyIgnoresFlag,
)
from oracles import oracle_shrink


def impls(suite_name, a, b):
    return get_implementation(suite_name, a), get_implementation(suite_name, b)


def campaign(suite_name, a, b, trials=2_000, **kw):
    entry = get_suite(suite_name)
    impl_a, impl_b = impls(suite_name, a, b)
    cfg = kw.pop("cfg", GenConfig(seed=0))
    return entry.signature, run_differential(
        entry.signature, impl_a, impl_b, trials, cfg, **kw
    )


class TestRunDifferential:
    def test_identical_implementations_never_fail(self):
        _, result = campaign("finite_set", "listset", "listset")
        assert result.failures == []
        assert result.trials_to_first_failure is None
        assert result.total_trials == 2_000

    def test_round_robin_observable_selection(self, finite_set_sig):
        lines = []
        _, result = campaign("finite_set", "listset", "bstset", trials=9, consumer=lines.append)
        want = [
            render_ty(ty)
            for ty in validate_signature(finite_set_sig)
        ]
        got = [r.property for r in lines]
        assert got == [f"finite_set:{name}" for name in want] * 3
        assert result.per_type_counts == {name: 3 for name in want}

    def test_detects_singleton_insert_quickly(self):
        # reference point only: this bug usually surfaces within tens of trials
        _, result = campaign("bst_map", "correct", "b1", trials=500)
        assert result.trials_to_first_failure is not None
        assert result.trials_to_first_failure <= 200

    def test_failure_records_disagree_and_replay(self, bst_map_sig):
        sig, result = campaign("bst_map", "correct", "b2", trials=500)
        assert result.failures
        for record in result.failures:
            assert record.status == "failed"
            assert record.outcome_a != record.outcome_b
            for text in (record.representation, record.shrunk):
                e = from_text(text, sig)
                ty = type_of(e, sig)
                a, b = impls("bst_map", "correct", "b2")
                a.reset()
                b.reset()
                assert not outcome_equal(interp(e, a, sig), interp(e, b, sig), ty)

    def test_shrunk_never_exceeds_original(self):
        sig, result = campaign("bst_map", "correct", "b4", trials=2_000)
        assert result.failures
        for record in result.failures:
            original = from_text(record.representation, sig)
            shrunk = from_text(record.shrunk, sig)
            assert size_of(shrunk) <= size_of(original)
            assert type_of(shrunk, sig) == type_of(original, sig)

    def test_deterministic_given_seed(self):
        _, first = campaign("finite_set", "listset", "insert_dup", trials=300)
        _, second = campaign("finite_set", "listset", "insert_dup", trials=300)
        assert first == second

    def test_different_seeds_differ(self):
        first, second = [], []
        campaign("bst_map", "correct", "b3", trials=300, consumer=first.append)
        campaign(
            "bst_map", "correct", "b3", trials=300, cfg=GenConfig(seed=1),
            consumer=second.append,
        )
        assert [r.representation for r in first] != [
            r.representation for r in second
        ]

    def test_every_trial_draws_from_one_stream_seeded_with_the_campaign_seed(
        self, finite_set_sig
    ):
        cfg = GenConfig(seed=5)
        lines, prefix = [], []
        campaign("finite_set", "listset", "bstset", trials=300, cfg=cfg, consumer=lines.append)
        campaign("finite_set", "listset", "bstset", trials=100, cfg=cfg, consumer=prefix.append)
        observables = validate_signature(finite_set_sig)
        rng = Rng(5)
        want = [
            to_text(gen_expr(observables[i % len(observables)], size_schedule(i, cfg),
                             finite_set_sig, cfg, rng))
            for i in range(300)
        ]
        assert [r.representation for r in lines] == want
        assert {r.seed for r in lines} == {5}
        assert prefix == lines[:100]

    def test_stop_on_failure_halts_the_campaign(self):
        _, result = campaign(
            "bst_map", "correct", "b1", trials=5_000, stop_on_failure=True
        )
        assert result.trials_to_first_failure is not None
        assert result.total_trials == result.trials_to_first_failure

    def test_counts_of_a_campaign_stopped_mid_cycle_tally_its_records(self):
        stopped = []
        for seed in range(10):
            lines = []
            _, result = campaign(
                "bst_map", "correct", "b1", trials=5_000, stop_on_failure=True,
                cfg=GenConfig(seed=seed), consumer=lines.append,
            )
            if result.total_trials % len(result.observables):
                stopped.append((result, lines))
        assert stopped
        for result, lines in stopped:
            tally = Counter(r.property.split(":", 1)[1] for r in lines)
            assert len(lines) == result.total_trials
            assert result.per_type_counts == {name: tally[name] for name in result.observables}

    def test_light_mode_keeps_only_failures(self):
        _, result = campaign(
            "bst_map", "correct", "b1", trials=300, collect_records=False
        )
        assert result.records
        assert all(r.status != "passed" for r in result.records)
        assert result.per_type_counts  # counts still cover every trial
        assert sum(result.per_type_counts.values()) == 300

    def test_light_mode_does_not_shrink(self, monkeypatch):
        def no_shrink(*args):
            raise AssertionError("a light campaign shrank a failure")

        monkeypatch.setattr(harness, "shrink", no_shrink)
        _, result = campaign(
            "bst_map", "correct", "b1", trials=300, collect_records=False
        )
        assert result.failures
        assert all(r.shrunk == r.representation for r in result.failures)

    def test_contract_violation_is_recorded_not_raised(self, finite_set_sig):
        class Liar(ModelSet):
            name = "liar"

            def size(self, t):
                return False  # declared int

        result = run_differential(
            finite_set_sig,
            get_implementation("finite_set", "listset"),
            Liar(),
            trials=600,
            cfg=GenConfig(seed=0),
        )
        assert result.harness_bugs > 0
        bugged = [r for r in result.records if r.status == "harness_bug"]
        assert bugged
        assert all("size" in (r.detail or "") for r in bugged)
        # harness bugs are not test failures
        assert all(r.status != "failed" or "size" not in r.representation for r in result.records)

    def test_exception_from_an_implementation_is_a_harness_bug(self, bst_map_sig):
        result = run_differential(
            bst_map_sig, ModelMap(), FindDividesByZero(), trials=600, cfg=GenConfig(seed=0)
        )
        assert result.harness_bugs > 0
        bugged = [r for r in result.records if r.status == "harness_bug"]
        assert len(bugged) == result.harness_bugs
        for r in bugged:
            assert r.detail.startswith("find_divides_by_zero: op 'find' raised ZeroDivisionError")
            assert "(find " in r.representation

    def test_exception_from_reset_is_a_harness_bug(self, counter_sig):
        result = run_differential(
            counter_sig, ModelCounter(), ResetRaises(), trials=50, cfg=GenConfig(seed=0)
        )
        assert result.harness_bugs == result.total_trials == 50
        assert {r.detail for r in result.records} == {
            "reset_raises: reset raised RuntimeError: no reset"
        }

    def test_malformed_list_result_is_a_harness_bug(self, finite_set_sig):
        class MalformedList(ModelSet):
            name = "malformed_list"

            def to_list(self, t):
                return (1, None)

        result = run_differential(
            finite_set_sig, ModelSet(), MalformedList(), trials=300, cfg=GenConfig(seed=0)
        )
        bugged = [r for r in result.records if r.status == "harness_bug"]
        assert bugged and len(bugged) == result.harness_bugs
        assert {r.detail for r in bugged} == {
            "malformed_list: op 'to_list' returned a value outside int list"
        }

    def test_int_result_with_a_non_int_payload_is_a_harness_bug(self, finite_set_sig):
        result = run_differential(
            finite_set_sig, ModelSet(), SizeReturnsHalf(), trials=300, cfg=GenConfig(seed=0)
        )
        bugged = [r for r in result.records if r.status == "harness_bug"]
        assert bugged and len(bugged) == result.harness_bugs
        assert {r.detail for r in bugged} == {
            "size_returns_half: op 'size' returned a value outside int"
        }
        assert result.failures == []  # reported, not shrunk as a disagreement

    def test_list_result_holding_a_python_list_is_a_harness_bug(self, finite_set_sig):
        class ListElems(ModelSet):
            name = "list_elems"

            def to_list(self, t):
                return list(super().to_list(t))

        result = run_differential(
            finite_set_sig, ModelSet(), ListElems(), trials=300, cfg=GenConfig(seed=0)
        )
        bugged = [r for r in result.records if r.status == "harness_bug"]
        assert len(bugged) == result.harness_bugs == 100  # every to_list trial
        assert {r.detail for r in bugged} == {
            "list_elems: op 'to_list' returned a value outside int list"
        }
        assert result.failures == []

    def test_query_with_a_side_effect_is_found(self, counter_sig):
        # a get that bumps the count is visible only when a seq evaluates a
        # query for effect, so a draw of effect arms from commands alone
        # (ops returning unit) could never find this fault
        result = run_differential(
            counter_sig,
            get_implementation("counter", "int_counter"),
            GetBumpsCounter(),
            trials=1_000,
            cfg=GenConfig(),
        )
        assert result.failures
        for record in result.failures:
            shrunk = from_text(record.shrunk, counter_sig)
            assert any(
                type_of(s.first, counter_sig) != UNIT for s in _seq_nodes(shrunk)
            )


class TestStreaming:
    def test_the_consumer_gets_every_line_and_the_result_keeps_the_rest(self):
        lines = []
        _, result = campaign("bst_map", "correct", "b1", trials=300, consumer=lines.append)
        assert [line.trial for line in lines] == list(range(1, 301))
        assert result.records == [line for line in lines if line.status != "passed"]
        assert result.failures and result.total_trials == 300

    def test_no_line_is_built_for_a_passing_trial_without_a_consumer(
        self, monkeypatch, capsys, bst_map_sig
    ):
        built = []

        def counting(*args, **kwargs):
            line = ReportLine(*args, **kwargs)
            built.append(line.status)
            return line

        monkeypatch.setattr(harness, "ReportLine", counting)
        firsts = bench_trials_to_failure(
            bst_map_sig, *impls("bst_map", "correct", "b1"), 5, 10_000, 0
        )
        assert built == ["failed"] * len(firsts)
        built.clear()
        argv = ["check", "--suite", "bst_map", "--impl-a", "correct", "--impl-b", "b1",
                "--trials", "300"]
        assert cli.main(argv) == 1
        assert built and "passed" not in built
        built.clear()
        campaign("bst_map", "correct", "b1", trials=300, consumer=lambda line: None)
        assert len(built) == 300

    def test_no_feature_is_computed_for_a_passing_trial_without_a_consumer(
        self, monkeypatch, capsys, bst_map_sig
    ):
        walked = []

        def counting(e):
            walked.append(e)
            return depth(e)

        monkeypatch.setattr(harness, "depth", counting)
        firsts = bench_trials_to_failure(
            bst_map_sig, *impls("bst_map", "correct", "b1"), 5, 10_000, 0
        )
        assert len(walked) == sum(first is not None for first in firsts) > 0
        walked.clear()
        argv = ["check", "--suite", "bst_map", "--impl-a", "correct", "--impl-b", "b1",
                "--trials", "300"]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert walked
        assert capsys.readouterr().out.splitlines()[-1] == f"300 trials, {len(walked)} failures"
        walked.clear()
        campaign("bst_map", "correct", "b1", trials=300, consumer=lambda line: None)
        assert len(walked) == 300

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the peak from /proc"
    )
    def test_memory_does_not_grow_with_trials(self):
        # Two agreeing campaigns in one fresh process, each writing its
        # report to the null device: the longer one, ten times the trials,
        # must not raise the peak resident set by more than a few MB.  The
        # peak is the process's VmHWM, since its ru_maxrss also counts the
        # forking parent's size.
        code = (
            "import os, re\n"
            "from specdiff.cli import main\n"
            "for trials in ('10000', '100000'):\n"
            "    main(['check', '--suite', 'counter', '--impl-a', 'int_counter',\n"
            "          '--impl-b', 'list_counter', '--trials', trials, '--report', os.devnull])\n"
            "    with open('/proc/self/status') as status:\n"
            "        print(re.search(r'VmHWM:\\s*(\\d+) kB', status.read())[1])\n"
        )
        src = os.path.dirname(os.path.dirname(specdiff.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0::2] == ["10000 trials, 0 failures", "100000 trials, 0 failures"]
        short, long = (int(kb) / 1024 for kb in lines[1::2])
        assert long - short < 3, (short, long)  # MB


def _seq_nodes(e):
    if isinstance(e, Seq):
        yield e
        yield from _seq_nodes(e.first)
        yield from _seq_nodes(e.second)


class TestShrink:
    def shrunk(self, suite_name, variant, text):
        entry = get_suite(suite_name)
        sig = entry.signature
        e = from_text(text, sig)
        ty = type_of(e, sig)
        a = get_implementation(suite_name, entry.reference)
        b = get_implementation(suite_name, variant)
        return shrink(e, ty, sig, a, b), sig, ty, a, b

    def test_drops_irrelevant_inserts_keeps_needed_key(self):
        # the colliding key is load-bearing, so rule 4 cannot zero it; the
        # unrelated insert goes away via the minimal-leaf rule
        shrunk, *_ = self.shrunk(
            "finite_set", "mem_strict", "(mem 7 (insert 7 (insert 3 (empty))))"
        )
        assert to_text(shrunk) == "(mem 7 (insert 7 (empty)))"

    def test_result_still_fails(self):
        shrunk, sig, ty, a, b = self.shrunk(
            "bst_map", "b1", "(find 0 (insert 1 9 (insert 0 7 (empty))))"
        )
        a.reset()
        b.reset()
        assert not outcome_equal(interp(shrunk, a, sig), interp(shrunk, b, sig), ty)

    def test_idempotent(self):
        shrunk, sig, ty, a, b = self.shrunk(
            "bst_map", "b4", "(find 1 (delete 1 (insert 1 5 (insert 0 7 (empty)))))"
        )
        again = shrink(shrunk, ty, sig, a, b)
        assert again == shrunk

    def test_candidate_whose_reset_raises_does_not_fail(self, counter_sig):
        # every candidate's reset raises, so none is accepted
        e = from_text("(seq (add 11) (seq (incr) (get)))", counter_sig)
        assert shrink(e, INT, counter_sig, ModelCounter(), ResetRaises()) == e

    def test_seq_survives_when_saturation_needs_it(self, counter_sig):
        a = get_implementation("counter", "int_counter")
        b = get_implementation("counter", "saturating")
        e = from_text("(seq (add 11) (seq (incr) (get)))", counter_sig)
        ty = type_of(e, counter_sig)
        a.reset()
        b.reset()
        assert not outcome_equal(interp(e, a, counter_sig), interp(e, b, counter_sig), ty)
        shrunk = shrink(e, ty, counter_sig, a, b)
        assert num_seq(shrunk) >= 1  # (get) alone cannot expose saturation
        a.reset()
        b.reset()
        assert interp(from_text("(get)", counter_sig), a, counter_sig) == interp(
            from_text("(get)", counter_sig), b, counter_sig
        )

    def test_irrelevant_literals_shrink_to_zero(self, bst_map_sig):
        # b7 misses any exact-key lookup, so both literals are free to drop
        a, b = impls("bst_map", "correct", "b7")
        e = from_text("(find 0 (insert 1 7 (empty)))", bst_map_sig)
        shrunk = shrink(e, type_of(e, bst_map_sig), bst_map_sig, a, b)
        assert to_text(shrunk) == "(find 0 (insert 0 0 (empty)))"

    def test_minimal_input_returned_unchanged(self, finite_set_sig):
        a, b = impls("finite_set", "listset", "mem_strict")
        e = from_text("(mem 0 (insert 0 (empty)))", finite_set_sig)
        ty = type_of(e, finite_set_sig)
        assert shrink(e, ty, finite_set_sig, a, b) == e

    def test_int_variants_of_non_int_literals(self):
        assert list(_literal_variants(True)) == list(_literal_variants(False)) == []
        assert list(_literal_variants(None)) == []
        assert list(_literal_variants(VSome(4))) == [VSome(0), VSome(2)]
        assert list(_literal_variants((3,))) == [(), (0,), (1,)]
        assert list(_literal_variants((True, False))) == [(False,), (True,)]

    def test_literals_are_shortened_before_their_elements_move(self):
        assert list(_literal_variants((1, 2, 6))) == [
            (2, 6),
            (1, 6),
            (1, 2),
            (1,),  # the front half
            (0, 2, 6),  # once: 1 halved is 0 too
            (1, 0, 6),
            (1, 1, 6),
            (1, 2, 0),
            (1, 2, 3),
        ]
        for k in (1, -1):
            assert list(_literal_variants(k)) == [0]
        assert list(_literal_variants(-5)) == [0, -2]
        assert list(_literal_variants(0)) == []
        assert list(_literal_variants("ab")) == ["b", "a"]
        assert list(_literal_variants("abcd")) == ["bcd", "acd", "abd", "abc", "ab"]
        assert list(_literal_variants("")) == []
        assert [repr(v) for v in _literal_variants((1,))] == ["()", "(0,)"]

    def test_list_literal_shrinks_to_the_elements_that_matter(self):
        # MappedSkipsFirst's map leaves the first element as it was
        sig = parse_signature(MAPPED_SIG)
        e = from_text("(total (map (fn (add var 1)) (push_all (list 4 6 9 4 9) (empty))))", sig)
        shrunk = shrink(e, INT, sig, ModelMapped(), MappedSkipsFirst())
        assert to_text(shrunk) == "(total (map (fn (add var 1)) (push_all (list 0) (empty))))"

    def test_bool_and_option_arguments_shrink(self):
        sig = parse_signature(TALLY_SIG)
        a, b = ModelTally(), TallyIgnoresFlag()
        e = from_text("(read (bump false (some 6) (bump true (some 2) (zero))))", sig)
        shrunk = shrink(e, type_of(e, sig), sig, a, b)
        assert to_text(shrunk) == "(read (bump false (some 1) (zero)))"

        result = run_differential(sig, a, b, 300, GenConfig(seed=0))
        assert result.failures
        for record in result.failures:
            candidate = from_text(record.shrunk, sig)
            assert size_of(candidate) <= size_of(from_text(record.representation, sig))
            a.reset()
            b.reset()
            assert not outcome_equal(
                interp(candidate, a, sig), interp(candidate, b, sig), type_of(candidate, sig)
            )


def _failures(sig, make_impls, seed):
    """(sig, make_impls, expr, type) of each failure of a default 1,000-trial
    campaign; make_impls() returns a fresh (a, b) pair."""
    result = run_differential(
        sig, *make_impls(), 1_000, GenConfig(seed=seed), collect_records=False
    )
    exprs = [from_text(record.representation, sig) for record in result.failures]
    return [(sig, make_impls, e, type_of(e, sig)) for e in exprs]


def _one_element_deleted(e):
    """e with one element deleted from one of its list literals, every way."""
    if isinstance(e, Seq):
        yield from (Seq(c, e.second) for c in _one_element_deleted(e.first))
        yield from (Seq(e.first, c) for c in _one_element_deleted(e.second))
        return
    for i, a in enumerate(e.args):
        if type(a) is tuple:
            smaller = [a[:j] + a[j + 1 :] for j in range(len(a))]
        elif isinstance(a, (Call, Seq)):
            smaller = _one_element_deleted(a)
        else:
            continue
        for x in smaller:
            yield Call(e.op, e.args[:i] + (x,) + e.args[i + 1 :])


def _hoisted(e, sig):
    """e with one node replaced by one of its proper subexpressions of the
    node's type, every way, the root included."""
    ty = type_of(e, sig)
    yield from (d for d in oracles._descendants(e) if type_of(d, sig) == ty)
    if isinstance(e, Seq):
        yield from (Seq(c, e.second) for c in _hoisted(e.first, sig))
        yield from (Seq(e.first, c) for c in _hoisted(e.second, sig))
        return
    for i, a in enumerate(e.args):
        if isinstance(a, (Call, Seq)):
            for c in _hoisted(a, sig):
                yield Call(e.op, e.args[:i] + (c,) + e.args[i + 1 :])


def _fails(e, ty, sig, a, b) -> bool:
    """Do fresh a and b disagree on e, as shrink judges a candidate?"""
    a.reset()
    b.reset()
    try:
        return not outcome_equal(interp(e, a, sig), interp(e, b, sig), ty)
    except (HarnessBug, ContractViolation):
        return False


@pytest.fixture(scope="module")
def variant_failures():
    """The failures of one default check per bug variant, reference against
    variant, at the first seed from 0 up that finds any (rare bugs such as
    bst_map b6 miss at seed 0); keyed by (suite, variant)."""
    out = {}
    for entry in list_suites():
        for variant in entry.bug_variants:
            make = partial(impls, entry.name, entry.reference, variant)
            for seed in range(20):
                out[entry.name, variant] = _failures(entry.signature, make, seed)
                if out[entry.name, variant]:
                    break
    return out


@pytest.fixture(scope="module")
def model_failures(counter_sig):
    """Failures with many same-typed subexpressions (a counter whose get
    has a side effect), and over bool, option, list and function arguments,
    which no bundled suite has; seeds 0 to 2 of each."""
    pairings = [
        (counter_sig, lambda: (ModelCounter(), GetBumpsCounter())),
        (parse_signature(TALLY_SIG), lambda: (ModelTally(), TallyIgnoresFlag())),
        (parse_signature(MAPPED_SIG), lambda: (ModelMapped(), MappedSkipsFirst())),
    ]
    return [f for sig, make in pairings for seed in range(3) for f in _failures(sig, make, seed)]


class TestShrinkWork:
    """The shrinker evaluates each distinct candidate once and otherwise
    works as the shrinker that re-evaluated and re-type-checked everything."""

    def test_same_result_as_the_oracle_for_every_variant(self, variant_failures):
        assert len(variant_failures) == 12 and all(variant_failures.values())
        for (suite_name, variant), failures in variant_failures.items():
            for sig, make_impls, e, ty in failures:
                got = shrink(e, ty, sig, *make_impls())
                want = oracle_shrink(e, ty, sig, *make_impls())
                assert got == want, (suite_name, variant, to_text(e))

    def test_same_result_as_the_oracle_over_other_argument_kinds(self, model_failures):
        assert len(model_failures) >= 50
        for sig, make_impls, e, ty in model_failures:
            got = shrink(e, ty, sig, *make_impls())
            assert got == oracle_shrink(e, ty, sig, *make_impls()), to_text(e)

    def test_no_candidate_is_evaluated_twice(
        self, monkeypatch, variant_failures, model_failures
    ):
        evaluated = []

        def recording(original):
            def interp_a(e, impl, sig):
                if impl is side_a:
                    evaluated.append(e)
                return original(e, impl, sig)

            return interp_a

        monkeypatch.setattr(harness, "interp", recording(interp))
        monkeypatch.setattr(oracles, "interp", recording(interp))
        oracle_repeats = 0
        everything = [f for fs in variant_failures.values() for f in fs] + model_failures
        for sig, make_impls, e, ty in everything:
            side_a, side_b = make_impls()
            evaluated.clear()
            shrink(e, ty, sig, side_a, side_b)
            ours = list(evaluated)
            assert ours and len(set(ours)) == len(ours), to_text(e)
            evaluated.clear()
            oracle_shrink(e, ty, sig, side_a, side_b)
            # the same candidates in the same order, less the repeats
            assert ours == list(dict.fromkeys(evaluated)), to_text(e)
            oracle_repeats += len(evaluated) - len(ours)
        assert oracle_repeats > 0  # the inputs do exercise repeated candidates

    def test_every_shrunk_list_is_one_minimal(self, model_failures):
        checked = 0
        for sig, make_impls, e, ty in model_failures:
            if sig.name != "mapped":
                continue
            a, b = make_impls()
            shrunk = shrink(e, ty, sig, a, b)
            for smaller in _one_element_deleted(shrunk):
                a.reset()
                b.reset()
                # the failure does not survive deleting any single element
                assert outcome_equal(interp(smaller, a, sig), interp(smaller, b, sig), ty), (
                    to_text(shrunk),
                    to_text(smaller),
                )
                checked += 1
        assert checked > 0

    def test_no_single_hoist_of_a_shrunk_failure_still_fails(
        self, variant_failures, model_failures
    ):
        mapped = [f for f in model_failures if f[0].name == "mapped"]
        checked = 0
        for sig, make_impls, e, ty in [f for fs in variant_failures.values() for f in fs] + mapped:
            a, b = make_impls()
            shrunk = shrink(e, ty, sig, a, b)
            for hoisted in _hoisted(shrunk, sig):
                assert not _fails(hoisted, ty, sig, a, b), (to_text(shrunk), to_text(hoisted))
                checked += 1
        assert checked > 0

    def test_inner_wrappers_are_hoisted_away(self):
        # A seed-0 failure whose shrunk form kept two empty push_alls while
        # only the root was hoisted.
        sig = parse_signature(MAPPED_SIG)
        e = from_text(
            "(total (push_all (list 4 6 9 4 9) (map (fn (add var var)) (push_all (list) "
            "(push_all (list 6 1 5 0) (push_all (list 3 3 3) (map (fn var) (map (fn 2) "
            "(push_all (list 1) (empty))))))))))",
            sig,
        )
        pair = (ModelMapped(), MappedSkipsFirst())
        assert to_text(oracle_shrink(e, INT, sig, *pair, hoist=False)) == (
            "(total (push_all (list) (map (fn 0) (push_all (list) (push_all (list 1) (empty))))))"
        )
        shrunk = shrink(e, INT, sig, *pair)
        assert to_text(shrunk) == "(total (map (fn 0) (push_all (list 1) (empty))))"

    def test_counter_forms_do_not_change(self, variant_failures, model_failures):
        # a counter's same-typed subexpressions are seq arms, which the seq
        # drops already try
        counter = variant_failures["counter", "saturating"] + [
            f for f in model_failures if f[0].name == "counter"
        ]
        assert len(counter) >= 50
        for sig, make_impls, e, ty in counter:
            got = shrink(e, ty, sig, *make_impls())
            assert got == oracle_shrink(e, ty, sig, *make_impls(), hoist=False), to_text(e)

    def test_rejects_an_expression_of_another_type(self, finite_set_sig):
        a, b = impls("finite_set", "listset", "mem_strict")
        e = from_text("(mem 0 (insert 0 (empty)))", finite_set_sig)
        with pytest.raises(ValueError, match="does not have type int"):
            shrink(e, INT, finite_set_sig, a, b)

    def test_rejects_the_abstract_type(self, finite_set_sig):
        a, b = impls("finite_set", "listset", "mem_strict")
        e = from_text("(insert 0 (empty))", finite_set_sig)
        with pytest.raises(ValueError, match="abstract type"):
            shrink(e, ABSTRACT, finite_set_sig, a, b)

    @pytest.mark.parametrize("cap", [harness.MAX_SHRINK_STEPS, 2])
    def test_a_campaign_shares_verdicts_without_changing_a_shrunk_form(self, monkeypatch, cap):
        # Every bundled variant and a model pairing over list and function
        # arguments, at seed 0, where each of them fails within 1,000 trials;
        # a cap of 2 steps stops most shrinks short of their fixpoint.
        monkeypatch.setattr(harness, "MAX_SHRINK_STEPS", cap)
        judged = [0]

        def counting(*args):
            judged[0] += 1
            return judge(*args)

        monkeypatch.setattr(harness, "judge", counting)
        pairings = [
            (entry.signature, partial(impls, entry.name, entry.reference, variant))
            for entry in list_suites()
            for variant in entry.bug_variants
        ] + [(parse_signature(MAPPED_SIG), lambda: (ModelMapped(), MappedSkipsFirst()))]
        assert len(pairings) == 13
        shared = fresh = 0
        for sig, make_impls in pairings:
            judged[0] = 0
            result = run_differential(sig, *make_impls(), 1_000, GenConfig(seed=0))
            assert result.failures, sig.name
            shared += judged[0] - result.total_trials
            for record in result.failures:
                e = from_text(record.representation, sig)
                judged[0] = 0
                alone = shrink(e, type_of(e, sig), sig, *make_impls())
                assert to_text(alone) == record.shrunk, record.representation
                fresh += judged[0]
        assert shared < fresh  # later failures did meet earlier verdicts

    def test_a_shrink_that_meets_an_earlier_form_goes_straight_to_its_end(
        self, monkeypatch, counter_sig
    ):
        # With a cap of 2 steps, the second shrink accepts the first one's
        # start, 1 step from that shrink's end, and jumps there: 1 + 1 steps
        # are within the cap, so it builds no second round of candidates.
        monkeypatch.setattr(harness, "MAX_SHRINK_STEPS", 2)
        rounds = [0]
        original = harness._shrink_candidates

        def counting(*args):
            rounds[0] += 1
            return original(*args)

        monkeypatch.setattr(harness, "_shrink_candidates", counting)
        a, b = impls("counter", "int_counter", "saturating")
        verdicts: dict = {}
        end = "(seq (add 12) (get))"
        e = from_text("(seq (add 12) (seq (incr) (get)))", counter_sig)
        assert to_text(shrink(e, INT, counter_sig, a, b, verdicts)) == end
        assert rounds == [2]  # 1 step, then a round with no failing candidate
        rounds[0] = 0
        e = from_text("(seq (incr) (seq (add 12) (seq (incr) (get))))", counter_sig)
        assert to_text(shrink(e, INT, counter_sig, a, b, verdicts)) == end
        assert rounds == [1]

    def test_a_capped_shrink_table_gives_the_same_report(self, monkeypatch, capsys, tmp_path):
        argv = ["check", "--suite", "bst_map", "--impl-a", "correct", "--impl-b", "b1",
                "--trials", "2000", "--report"]
        cli.main([*argv, str(tmp_path / "uncapped.jsonl")])
        sizes = []  # the table's entries before and after each shrink
        original = harness.shrink

        def watched(e, ty, sig, impl_a, impl_b, verdicts):
            before = len(verdicts)
            shrunk = original(e, ty, sig, impl_a, impl_b, verdicts)
            sizes.append((before, len(verdicts)))
            return shrunk

        monkeypatch.setattr(harness, "shrink", watched)
        monkeypatch.setattr(harness, "MAX_SHARED_VERDICTS", 40)
        cli.main([*argv, str(tmp_path / "capped.jsonl")])
        capped = (tmp_path / "capped.jsonl").read_bytes()
        assert capped == (tmp_path / "uncapped.jsonl").read_bytes()
        # a shrink starts from at most the cap, so the table holds at most
        # the cap plus one shrink's entries; and it was cleared
        assert all(before <= 40 for before, _ in sizes)
        assert any(later < earlier for (_, earlier), (later, _) in zip(sizes, sizes[1:]))


class TestJudge:
    def test_agreement_passes_with_both_outcomes(self, counter_sig):
        e = from_text("(seq (add 3) (get))", counter_sig)
        got = judge(e, INT, counter_sig, *impls("counter", "int_counter", "saturating"))
        assert got == ("passed", 3, 3, None)

    def test_disagreement_fails_with_both_outcomes(self, counter_sig):
        e = from_text("(seq (add 11) (get))", counter_sig)
        got = judge(e, INT, counter_sig, *impls("counter", "int_counter", "saturating"))
        assert got == ("failed", 11, 10, None)

    def test_both_sides_start_from_a_reset(self, counter_sig):
        a, b = impls("counter", "int_counter", "saturating")
        e = from_text("(seq (add 7) (get))", counter_sig)
        assert judge(e, INT, counter_sig, a, b)[0] == "passed"
        assert judge(e, INT, counter_sig, a, b)[0] == "passed"  # not 14 against 10

    def test_a_reset_that_raises_is_a_harness_bug(self, counter_sig):
        e = from_text("(get)", counter_sig)
        status, out_a, out_b, detail = judge(e, INT, counter_sig, ModelCounter(), ResetRaises())
        assert (status, out_a, out_b) == ("harness_bug", None, None)
        assert detail == "reset_raises: reset raised RuntimeError: no reset"

    def test_a_reset_that_raises_on_side_a_leaves_side_b_untouched(self, counter_sig):
        calls = []

        class Watched(ModelCounter):
            def reset(self):
                calls.append("reset")

            def apply(self, op, args):
                calls.append(op)
                return super().apply(op, args)

        e = from_text("(get)", counter_sig)
        status, out_a, out_b, detail = judge(e, INT, counter_sig, ResetRaises(), Watched())
        assert (status, out_a, out_b) == ("harness_bug", None, None)
        assert detail == "reset_raises: reset raised RuntimeError: no reset"
        assert calls == []


class TestBench:
    def test_single_run_matches_campaign(self, bst_map_sig):
        first_failures = bench_trials_to_failure(
            bst_map_sig,
            get_implementation("bst_map", "correct"),
            get_implementation("bst_map", "b1"),
            runs=1,
            trial_cap=5_000,
            base_seed=0,
        )
        _, result = campaign(
            "bst_map", "correct", "b1", trials=5_000, stop_on_failure=True
        )
        assert result.trials_to_first_failure is not None
        assert first_failures == (result.trials_to_first_failure,)

    def test_correct_vs_correct_detects_nothing(self, finite_set_sig):
        first_failures = bench_trials_to_failure(
            finite_set_sig,
            get_implementation("finite_set", "listset"),
            get_implementation("finite_set", "bstset"),
            runs=5,
            trial_cap=300,
            base_seed=0,
        )
        assert first_failures == (None,) * 5

    def test_aggregates_over_runs(self, bst_map_sig):
        first_failures = bench_trials_to_failure(
            bst_map_sig,
            get_implementation("bst_map", "correct"),
            get_implementation("bst_map", "b1"),
            runs=20,
            trial_cap=2_000,
            base_seed=0,
        )
        assert len(first_failures) == 20
        assert all(first is not None and 1 <= first <= 2_000 for first in first_failures)
        for r in (0, 19):
            _, result = campaign(
                "bst_map", "correct", "b1", trials=2_000, stop_on_failure=True,
                cfg=GenConfig(seed=r),
            )
            assert first_failures[r] == result.trials_to_first_failure

    def test_deterministic(self, counter_sig):
        args = (
            counter_sig,
            get_implementation("counter", "int_counter"),
            get_implementation("counter", "saturating"),
        )
        first = bench_trials_to_failure(*args, runs=5, trial_cap=3_000, base_seed=7)
        second = bench_trials_to_failure(*args, runs=5, trial_cap=3_000, base_seed=7)
        assert first == second
