"""Differential campaigns, shrinking, and trials-to-failure measurement."""

from __future__ import annotations

from functools import partial

import pytest

import oracles
from specdiff import harness
from specdiff.generator import GenConfig
from specdiff.harness import (
    CampaignResult,
    _int_variants,
    bench_trials_to_failure,
    run_differential,
    shrink,
)
from specdiff.interp import Ok, VBool, interp, outcome_equal
from specdiff.sigdsl import INT, UNIT, parse_signature, render_ty, validate_signature
from specdiff.suite import get_implementation, get_suite, list_suites
from specdiff.symexpr import (
    Seq,
    VInt,
    VList,
    VSome,
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
        _, result = campaign("finite_set", "listset", "bstset", trials=9)
        want = [
            render_ty(ty)
            for ty in validate_signature(finite_set_sig).observable_types
        ]
        got = [render_ty(r.observable_type) for r in result.records]
        assert got == want * 3
        assert result.per_type_counts == {name: 3 for name in want}

    def test_detects_singleton_insert_quickly(self):
        # reference point only: this bug usually surfaces within tens of trials
        _, result = campaign("bst_map", "correct", "b1", trials=500)
        assert result.trials_to_first_failure is not None
        assert result.trials_to_first_failure <= 200

    def test_failure_records_disagree_and_replay(self, bst_map_sig):
        sig, result = campaign("bst_map", "correct", "b2", trials=500)
        assert result.failures
        for record, shrunk_text in result.failures:
            assert record.status == "failed"
            assert record.outcome_a != record.outcome_b
            for text in (record.expr_text, shrunk_text):
                e = from_text(text, sig)
                ty = type_of(e, sig)
                a, b = impls("bst_map", "correct", "b2")
                a.reset()
                b.reset()
                assert not outcome_equal(interp(e, a, sig), interp(e, b, sig), ty)

    def test_shrunk_never_exceeds_original(self):
        sig, result = campaign("bst_map", "correct", "b4", trials=2_000)
        assert result.failures
        for record, shrunk_text in result.failures:
            original = from_text(record.expr_text, sig)
            shrunk = from_text(shrunk_text, sig)
            assert size_of(shrunk) <= size_of(original)
            assert type_of(shrunk, sig) == type_of(original, sig)

    def test_deterministic_given_seed(self):
        _, first = campaign("finite_set", "listset", "insert_dup", trials=300)
        _, second = campaign("finite_set", "listset", "insert_dup", trials=300)
        assert first == second

    def test_different_seeds_differ(self):
        _, first = campaign("bst_map", "correct", "b3", trials=300)
        _, second = campaign(
            "bst_map", "correct", "b3", trials=300, cfg=GenConfig(seed=1)
        )
        assert [r.expr_text for r in first.records] != [
            r.expr_text for r in second.records
        ]

    def test_stop_on_failure_halts_the_campaign(self):
        _, result = campaign(
            "bst_map", "correct", "b1", trials=5_000, stop_on_failure=True
        )
        assert result.trials_to_first_failure is not None
        assert result.total_trials == result.trials_to_first_failure

    def test_light_mode_keeps_only_failures(self):
        _, result = campaign(
            "bst_map", "correct", "b1", trials=300, collect_records=False
        )
        assert result.records
        assert all(r.status != "passed" for r in result.records)
        assert result.per_type_counts  # counts still cover every trial
        assert sum(result.per_type_counts.values()) == 300

    def test_contract_violation_is_recorded_not_raised(self, finite_set_sig):
        class Liar(ModelSet):
            name = "liar"

            def apply(self, op, args):
                if op == "size":
                    return Ok(VBool(False))  # declared int
                return super().apply(op, args)

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
        assert all(r.status != "failed" or "size" not in r.expr_text for r in result.records)

    def test_exception_from_an_implementation_is_a_harness_bug(self, bst_map_sig):
        result = run_differential(
            bst_map_sig, ModelMap(), FindDividesByZero(), trials=600, cfg=GenConfig(seed=0)
        )
        assert result.harness_bugs > 0
        bugged = [r for r in result.records if r.status == "harness_bug"]
        assert len(bugged) == result.harness_bugs
        for r in bugged:
            assert r.detail.startswith("find_divides_by_zero: op 'find' raised ZeroDivisionError")
            assert "(find " in r.expr_text

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
        for _, shrunk_text in result.failures:
            shrunk = from_text(shrunk_text, counter_sig)
            assert any(
                type_of(s.first, counter_sig) != UNIT for s in _seq_nodes(shrunk)
            )


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
        assert list(_int_variants(VBool(True))) == []
        assert list(_int_variants(VSome(VInt(4)))) == [VSome(VInt(0)), VSome(VInt(2))]
        assert list(_int_variants(VList((VInt(3),)))) == [
            VList((VInt(0),)),
            VList((VInt(1),)),
        ]

    def test_bool_and_option_arguments_shrink(self):
        sig = parse_signature(TALLY_SIG)
        a, b = ModelTally(), TallyIgnoresFlag()
        e = from_text("(read (bump false (some 6) (bump true (some 2) (zero))))", sig)
        shrunk = shrink(e, type_of(e, sig), sig, a, b)
        assert to_text(shrunk) == "(read (bump false (some 1) (zero)))"

        result = run_differential(sig, a, b, 300, GenConfig(seed=0))
        assert result.failures
        for record, text in result.failures:
            candidate = from_text(text, sig)
            assert size_of(candidate) <= size_of(from_text(record.expr_text, sig))
            a.reset()
            b.reset()
            assert not outcome_equal(
                interp(candidate, a, sig), interp(candidate, b, sig), record.observable_type
            )


def _failures(sig, make_impls, seed):
    """(sig, make_impls, expr, type) of each failure of a default 1,000-trial
    campaign; make_impls() returns a fresh (a, b) pair."""
    result = run_differential(
        sig, *make_impls(), 1_000, GenConfig(seed=seed), shrink_failures=False
    )
    return [
        (sig, make_impls, from_text(record.expr_text, sig), record.observable_type)
        for record, _ in result.failures
    ]


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
    which no bundled suite has."""
    return [
        *_failures(counter_sig, lambda: (ModelCounter(), GetBumpsCounter()), 0),
        *_failures(parse_signature(TALLY_SIG), lambda: (ModelTally(), TallyIgnoresFlag()), 0),
        *_failures(parse_signature(MAPPED_SIG), lambda: (ModelMapped(), MappedSkipsFirst()), 0),
    ]


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

    def test_rejects_an_expression_of_another_type(self, finite_set_sig):
        a, b = impls("finite_set", "listset", "mem_strict")
        e = from_text("(mem 0 (insert 0 (empty)))", finite_set_sig)
        with pytest.raises(ValueError, match="does not have type int"):
            shrink(e, INT, finite_set_sig, a, b)


class TestBench:
    def test_single_run_matches_campaign(self, bst_map_sig):
        stats = bench_trials_to_failure(
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
        assert stats.first_failures == (result.trials_to_first_failure,)
        assert stats.min == stats.mean == stats.max == result.trials_to_first_failure

    def test_correct_vs_correct_detects_nothing(self, finite_set_sig):
        stats = bench_trials_to_failure(
            finite_set_sig,
            get_implementation("finite_set", "listset"),
            get_implementation("finite_set", "bstset"),
            runs=5,
            trial_cap=300,
            base_seed=0,
        )
        assert stats.detection_rate == 0.0
        assert stats.detected == 0
        assert stats.min is None and stats.mean is None and stats.max is None

    def test_aggregates_over_runs(self, bst_map_sig):
        stats = bench_trials_to_failure(
            bst_map_sig,
            get_implementation("bst_map", "correct"),
            get_implementation("bst_map", "b1"),
            runs=20,
            trial_cap=2_000,
            base_seed=0,
        )
        assert stats.runs == 20
        assert stats.detection_rate == 1.0
        assert len(stats.first_failures) == 20
        assert stats.min <= stats.mean <= stats.max
        assert stats.min == min(stats.first_failures)
        assert stats.max == max(stats.first_failures)

    def test_deterministic(self, counter_sig):
        args = (
            counter_sig,
            get_implementation("counter", "int_counter"),
            get_implementation("counter", "saturating"),
        )
        first = bench_trials_to_failure(*args, runs=5, trial_cap=3_000, base_seed=7)
        second = bench_trials_to_failure(*args, runs=5, trial_cap=3_000, base_seed=7)
        assert first == second
