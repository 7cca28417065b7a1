"""Bundled suites: registry, reference correctness, seeded-bug witnesses."""

from __future__ import annotations

import pytest

from specdiff.harness import run_differential
from specdiff.generator import GenConfig
from specdiff.interp import interp, outcome_equal
from specdiff.sigdsl import parse_signature, validate_signature
from specdiff.suite import UnknownNameError, get_implementation, get_suite, list_suites
from specdiff.symexpr import from_text, size_of, type_of

import models
from models import ModelCounter, ModelMap, ModelSet
from oracles import exprs_by_depth, find_witness

# one hand-picked disagreement per bug variant, exercised alongside the
# exhaustive search below
WITNESSES = {
    ("finite_set", "insert_dup"): "(size (insert 0 (insert 0 (empty))))",
    ("finite_set", "remove_left"): "(mem 1 (remove 1 (insert 1 (insert 0 (empty)))))",
    ("finite_set", "mem_strict"): "(mem 0 (insert 0 (empty)))",
    ("bst_map", "b1"): "(find 0 (insert 1 9 (insert 0 7 (empty))))",
    ("bst_map", "b2"): "(find 0 (insert 0 7 (insert 1 9 (empty))))",
    ("bst_map", "b3"): "(find 0 (insert 0 1 (insert 0 0 (empty))))",
    ("bst_map", "b4"): "(find 1 (delete 1 (insert 1 5 (insert 0 7 (empty)))))",
    ("bst_map", "b5"): "(find 1 (delete 0 (insert 1 5 (insert 0 7 (empty)))))",
    ("bst_map", "b6"): "(find 0 (union (insert 0 1 (empty)) (insert 0 2 (empty))))",
    ("bst_map", "b7"): "(find 0 (insert 1 7 (empty)))",
    ("bst_map", "b8"): "(keys (insert 0 0 (insert 1 0 (empty))))",
    ("counter", "saturating"): "(seq (add 11) (get))",
}

SEARCH_POOL = {
    "finite_set": (0, 1, 2),
    "bst_map": (0, 1, 2),
    "counter": (0, 2, 11),  # saturation needs sums past the cap
}


class TestRegistry:
    def test_suite_names(self):
        assert [e.name for e in list_suites()] == ["finite_set", "bst_map", "counter"]

    def test_finite_set_entry(self, finite_set_entry):
        assert set(finite_set_entry.implementations) == {"listset", "bstset"}
        assert set(finite_set_entry.bug_variants) == {
            "insert_dup",
            "remove_left",
            "mem_strict",
        }
        assert finite_set_entry.reference == "listset"

    def test_bst_map_entry(self, bst_map_entry):
        assert set(bst_map_entry.implementations) == {"correct"}
        assert set(bst_map_entry.bug_variants) == {f"b{i}" for i in range(1, 9)}

    def test_counter_entry(self, counter_entry):
        assert set(counter_entry.implementations) == {"int_counter", "list_counter"}
        assert set(counter_entry.bug_variants) == {"saturating"}

    def test_bug_variants_carry_descriptions(self):
        for entry in list_suites():
            for cls in entry.bug_variants.values():
                assert (cls.__doc__ or "").strip()  # a docstring is not inherited

    def test_each_class_is_registered_under_its_own_name(self):
        for entry in list_suites():
            assert entry.reference in entry.implementations
            for name in [*entry.implementations, *entry.bug_variants]:
                assert get_implementation(entry.name, name).name == name

    def test_signatures_validate(self):
        for entry in list_suites():
            validate_signature(entry.signature)

    def test_every_implementation_has_a_method_per_op(self):
        # a missing method is a harness bug on every trial that calls the op
        bases = {
            ModelSet: get_suite("finite_set").signature,
            ModelMap: get_suite("bst_map").signature,
            ModelCounter: get_suite("counter").signature,
            models.ModelTally: parse_signature(models.TALLY_SIG),
            models.ModelMapped: parse_signature(models.MAPPED_SIG),
        }
        classes = [
            (cls, entry.signature)
            for entry in list_suites()
            for cls in (*entry.implementations.values(), *entry.bug_variants.values())
        ]
        for cls in vars(models).values():
            if isinstance(cls, type) and issubclass(cls, tuple(bases)):
                base = next(base for base in cls.__mro__ if base in bases)
                classes.append((cls, bases[base]))
        assert len(classes) == 17 + 11  # every bundled class, every model
        for cls, sig in classes:
            for op in sig.ops:
                assert callable(getattr(cls, op.name, None)), (cls.__name__, op.name)

    def test_fresh_instances(self, counter_sig):
        a = get_implementation("counter", "int_counter")
        b = get_implementation("counter", "int_counter")
        assert a is not b
        interp(from_text("(incr)", counter_sig), a, counter_sig)
        out = interp(from_text("(get)", counter_sig), b, counter_sig)
        assert type(out) is int and out == 0

    def test_unknown_suite_lists_names(self):
        with pytest.raises(UnknownNameError, match="finite_set"):
            get_suite("red_black")

    def test_unknown_implementation_lists_names(self):
        with pytest.raises(UnknownNameError, match="listset"):
            get_implementation("finite_set", "avl")


def _set_handles(impl, text, sig):
    impl.reset()
    return interp(from_text(text, sig), impl, sig)


def _bst_ok(node, lo=None, hi=None, key_of=lambda n: n[0]):
    if node is None:
        return True
    k = key_of(node)
    if lo is not None and k <= lo:
        return False
    if hi is not None and k >= hi:
        return False
    left, right = node[-2], node[-1]
    return _bst_ok(left, lo, k, key_of) and _bst_ok(right, k, hi, key_of)


class TestReferences:
    def test_bst_set_keeps_search_invariant(self, finite_set_sig):
        impl = get_implementation("finite_set", "bstset")
        for text in [
            "(insert 5 (insert 2 (insert 8 (insert 5 (empty)))))",
            "(remove 2 (insert 2 (insert 1 (insert 3 (empty)))))",
            "(union (insert 1 (empty)) (insert 9 (insert 1 (empty))))",
        ]:
            handle = _set_handles(impl, text, finite_set_sig)
            assert _bst_ok(handle)

    def test_bst_map_keeps_search_invariant(self, bst_map_sig):
        impl = get_implementation("bst_map", "correct")
        for text in [
            "(insert 5 0 (insert 2 0 (insert 8 0 (insert 5 1 (empty)))))",
            "(delete 2 (insert 2 0 (insert 1 0 (insert 3 0 (empty)))))",
            "(union (insert 1 0 (empty)) (insert 9 0 (insert 1 5 (empty))))",
        ]:
            handle = _set_handles(impl, text, bst_map_sig)
            assert _bst_ok(handle)

    @pytest.mark.parametrize("variant", ["listset", "bstset"])
    def test_set_agrees_with_model(self, finite_set_sig, variant):
        impl = get_implementation("finite_set", variant)
        model = ModelSet()
        for ty in validate_signature(finite_set_sig):
            for e in exprs_by_depth(finite_set_sig, ty, 4, int_pool=(0, 1, 2)):
                impl.reset()
                model.reset()
                assert outcome_equal(
                    interp(e, impl, finite_set_sig),
                    interp(e, model, finite_set_sig),
                    ty,
                )

    def test_map_agrees_with_model(self, bst_map_sig):
        impl = get_implementation("bst_map", "correct")
        model = ModelMap()
        checked = 0
        for ty in validate_signature(bst_map_sig):
            for e in exprs_by_depth(bst_map_sig, ty, 4, int_pool=(0, 1, 2)):
                impl.reset()
                model.reset()
                assert outcome_equal(
                    interp(e, impl, bst_map_sig), interp(e, model, bst_map_sig), ty
                )
                checked += 1
        assert checked > 1_000

    @pytest.mark.parametrize("variant", ["int_counter", "list_counter"])
    def test_counter_agrees_with_model(self, counter_sig, variant):
        # depth 3 keeps the Seq combinatorics manageable
        impl = get_implementation("counter", variant)
        model = ModelCounter()
        for ty in validate_signature(counter_sig):
            for e in exprs_by_depth(counter_sig, ty, 3, int_pool=(0, 1, 11)):
                impl.reset()
                model.reset()
                assert outcome_equal(
                    interp(e, impl, counter_sig), interp(e, model, counter_sig), ty
                )

    @pytest.mark.parametrize(
        "suite_name,pair",
        [
            ("finite_set", ("listset", "bstset")),
            ("counter", ("int_counter", "list_counter")),
        ],
    )
    def test_reference_pairs_agree_under_campaign(self, suite_name, pair):
        entry = get_suite(suite_name)
        result = run_differential(
            entry.signature,
            get_implementation(suite_name, pair[0]),
            get_implementation(suite_name, pair[1]),
            trials=2_000,
            cfg=GenConfig(seed=0),
        )
        assert result.failures == []
        assert result.harness_bugs == 0


class TestBugWitnesses:
    @pytest.mark.parametrize("suite_name,variant", sorted(WITNESSES))
    def test_pinned_witness_disagrees(self, suite_name, variant):
        entry = get_suite(suite_name)
        sig = entry.signature
        e = from_text(WITNESSES[suite_name, variant], sig)
        ty = type_of(e, sig)
        ref = get_implementation(suite_name, entry.reference)
        bug = get_implementation(suite_name, variant)
        ref.reset()
        bug.reset()
        assert not outcome_equal(interp(e, ref, sig), interp(e, bug, sig), ty)

    @pytest.mark.parametrize("suite_name,variant", sorted(WITNESSES))
    def test_search_finds_witness_within_eight_nodes(self, suite_name, variant):
        # independent of random generation: size-ordered exhaustive search
        entry = get_suite(suite_name)
        witness = find_witness(
            entry.signature,
            get_implementation(suite_name, entry.reference),
            get_implementation(suite_name, variant),
            int_pool=SEARCH_POOL[suite_name],
            max_size=8,
        )
        assert witness is not None
        assert size_of(witness) <= 8

    def test_bug_variants_are_single_fault(self):
        # each bug class overrides exactly one method of its reference
        for entry in list_suites():
            for cls in entry.bug_variants.values():
                overridden = [
                    name
                    for name in vars(cls)
                    if not name.startswith("__") and callable(getattr(cls, name))
                ]
                assert len(overridden) == 1, (cls.__name__, overridden)
