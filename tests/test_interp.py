"""Interpretation over pluggable implementations and outcome comparison."""

from __future__ import annotations

import pickle

import pytest

from specdiff.generator import Rng, mix_seed, value_rules
from specdiff.harness import judge
from specdiff.interp import (
    ContractViolation,
    Failed,
    HarnessBug,
    Implementation,
    VChar,
    VNone,
    VSome,
    interp,
    outcome_equal,
    outcome_to_text,
)
from specdiff.sigdsl import (
    ABSTRACT,
    BOOL,
    CHAR,
    INT,
    STR,
    UNIT,
    FunTy,
    ListTy,
    OptionTy,
    parse_signature,
    render_ty,
)
from specdiff.suite import get_implementation
from specdiff.symexpr import Var, from_text

from models import ModelMap, ModelSet
from oracles import exprs_by_depth, oracle_interp, oracle_value_matches


class Wrapped:
    """A value in a wrapper, as apply's results once were."""

    def __init__(self, value):
        self.value = value


class Returns(Implementation):
    """Every op returns one fixed result, whatever the op's name."""

    name = "fixed"

    def __init__(self, result):
        self.result = result

    def apply(self, op, args):
        return self.result


def run(text, impl, sig):
    impl.reset()
    return interp(from_text(text, sig), impl, sig)


# (return type, a result outside it)
MALFORMED = [
    ("char", VChar(5)),
    ("string", VChar("a")),
    ("int", 0.5),
    ("int", True),
    ("bool", 1),
    ("int list", [1, 2]),
    # the return check keeps a stray handle from ever being compared
    ("int list", (frozenset(),)),
    ("char", "a"),
    ("char", VChar("ab")),
    ("int", None),
    ("unit", 3),
    ("string", 5),
    ("int list", (1, True)),
    ("int list", (1, "2")),
    ("int option", VSome(True)),
    ("int option", None),
    ("unit option", None),  # unit is None, so none is VNone()
    ("int option option", VSome(None)),
]


class TestInterp:
    def test_leaf_call_returns_abstract(self, finite_set_sig):
        for variant, handle in (("listset", ()), ("bstset", None)):
            out = run("(empty)", get_implementation("finite_set", variant), finite_set_sig)
            assert out == handle
        out = run("(insert 3 (empty))", get_implementation("finite_set", "bstset"), finite_set_sig)
        assert out == (3, None, None)

    def test_each_op_calls_the_method_of_its_name_with_its_arguments(self, bst_map_sig):
        calls = []

        class Recording(ModelMap):
            def apply(self, op, args):
                calls.append((op, tuple(args)))
                return super().apply(op, args)

        out = run("(find 4 (insert 4 7 (empty)))", Recording(), bst_map_sig)
        assert out == VSome(7)
        assert calls == [("empty", ()), ("insert", (4, 7, {})), ("find", (4, {4: 7}))]

    def test_membership_after_insert(self, finite_set_sig):
        for variant in ("listset", "bstset"):
            impl = get_implementation("finite_set", variant)
            out = run("(mem 3 (insert 3 (empty)))", impl, finite_set_sig)
            assert out is True

    def test_one_increment_observed(self, counter_sig):
        for variant in ("int_counter", "list_counter"):
            impl = get_implementation("counter", variant)
            out = run("(seq (incr) (get))", impl, counter_sig)
            assert type(out) is int and out == 1

    def test_seq_discards_first_value(self, counter_sig):
        impl = get_implementation("counter", "int_counter")
        assert run("(seq (get) (is_zero))", impl, counter_sig) is True

    def test_args_evaluated_left_to_right(self):
        sig = parse_signature(
            "signature T\nmutable\nabstract t\n"
            "op mark : int -> unit\nop get : int\nend"
        )

        class Recorder(Implementation):
            name = "recorder"

            def __init__(self):
                self.marks = []

            def reset(self):
                self.marks = []

            def mark(self, n):
                self.marks.append(n)

            def get(self):
                return len(self.marks)

        impl = Recorder()
        run("(seq (mark 1) (seq (mark 2) (get)))", impl, sig)
        assert impl.marks == [1, 2]

    def test_failed_short_circuits_argument_evaluation(self):
        sig = parse_signature(
            "signature P\nabstract t\nop boom : t\nop ok : t\n"
            "op pair : t -> t -> int\nend"
        )

        class Partial(Implementation):
            name = "partial"

            def __init__(self):
                self.applied = []

            def reset(self):
                self.applied = []

            def apply(self, op, args):
                self.applied.append(op)
                return super().apply(op, args)

            def boom(self):
                return Failed("boom")

            def ok(self):
                return 0

            def pair(self, a, b):
                return 0

        impl = Partial()
        impl.reset()
        out = interp(from_text("(pair (boom) (ok))", sig), impl, sig)
        assert out == Failed("boom")
        assert impl.applied == ["boom"]  # neither (ok) nor pair itself ran

    def test_failed_propagates_through_seq(self, counter_sig):
        class FailingCounter(Implementation):
            name = "failing"

            def __init__(self):
                self.applied = []

            def apply(self, op, args):
                self.applied.append(op)
                return super().apply(op, args)

            def incr(self):
                return Failed("stuck")

            def get(self):
                return 0

        impl = FailingCounter()
        out = interp(from_text("(seq (incr) (get))", counter_sig), impl, counter_sig)
        assert out == Failed("stuck")
        assert impl.applied == ["incr"]  # the second arm never ran

    @pytest.mark.parametrize(
        "ret,value", MALFORMED, ids=[f"{ret}-value{i}" for i, (ret, _) in enumerate(MALFORMED)]
    )
    def test_malformed_result_is_a_harness_bug(self, ret, value):
        sig = parse_signature(f"signature M\nabstract t\nop make : t\nop read : t -> {ret}\nend")

        class Malformed(Implementation):
            name = "malformed"

            def make(self):
                return 0

            def read(self, t):
                return value

        with pytest.raises(HarnessBug, match=f"malformed: op 'read' returned a value outside {ret}$"):
            run("(read (make))", Malformed(), sig)

    @pytest.mark.parametrize(
        "op,ty,result",
        [
            ("get", INT, None),
            ("is_zero", BOOL, 3),
            ("get", INT, [1]),
            ("get", INT, Wrapped(1)),
            ("get", INT, True),
            ("get", INT, 3.0),
            ("get", INT, "3"),
            ("incr", UNIT, 3),
            ("incr", UNIT, VNone()),
        ],
        ids=[
            "none", "bare-int", "python-list", "wrapped-value", "bool-from-int-op", "float",
            "string", "int-from-unit-op", "none-record-from-unit-op",
        ],
    )
    def test_a_result_outside_the_return_type_is_a_harness_bug(self, counter_sig, op, ty, result):
        e = from_text(f"({op})", counter_sig)
        reference = get_implementation("counter", "int_counter")
        got = judge(e, ty, counter_sig, reference, Returns(result))
        detail = f"fixed: op '{op}' returned a value outside {render_ty(ty)}"
        assert got == ("harness_bug", None, None, detail)

    def test_python_values_are_results(self):
        sig = parse_signature(
            "signature P\nabstract t\nop i : int\nop u : unit\nop l : int list\nend"
        )
        results = {"i": 3, "u": None, "l": (1, 2)}
        for op, ty in [("i", INT), ("u", UNIT), ("l", ListTy(INT))]:
            e = from_text(f"({op})", sig)
            out = interp(e, Returns(results[op]), sig)
            assert type(out) is type(results[op]) and out == results[op]
            got = judge(e, ty, sig, Returns(results[op]), Returns(results[op]))
            assert got == ("passed", results[op], results[op], None)

    @pytest.mark.parametrize("value", [VChar(5), VChar("ab")], ids=["int-payload", "two-chars"])
    def test_a_malformed_char_is_a_harness_bug_to_the_oracle_too(self, value):
        sig = parse_signature("signature C\nabstract t\nop c : char\nend")
        e = from_text("(c)", sig)
        for evaluate in (interp, oracle_interp):
            with pytest.raises(HarnessBug, match="fixed: op 'c' returned a value outside char$"):
                evaluate(e, Returns(value), sig)

    def test_function_argument_arrives_callable(self):
        sig = parse_signature(
            "signature F\nabstract t\nop empty : t\n"
            "op apply_at : (int -> int) -> int -> t -> int\nend"
        )

        class ApplyAt(Implementation):
            name = "apply_at"

            def empty(self):
                return ()

            def apply_at(self, f, k, t):
                return f(k)

        e = from_text("(apply_at (fn (mul var var)) 9 (empty))", sig)
        assert interp(e, ApplyAt(), sig) == 81

    def test_shape_mismatch_is_a_harness_bug(self, finite_set_sig):
        class Liar(ModelSet):
            def size(self, t):
                return False  # declared int

        with pytest.raises(HarnessBug, match="size"):
            interp(from_text("(size (empty))", finite_set_sig), Liar(), finite_set_sig)

    def test_self_equivalence_on_enumerated_exprs(self, finite_set_sig):
        a = get_implementation("finite_set", "listset")
        b = get_implementation("finite_set", "listset")
        for e in exprs_by_depth(finite_set_sig, BOOL, 3, int_pool=(0, 1)):
            a.reset()
            b.reset()
            assert outcome_equal(interp(e, a, finite_set_sig), interp(e, b, finite_set_sig), BOOL)

    def test_argument_order_invisible_without_mutation(self, finite_set_sig):
        # evaluating union's two subtrees in either order gives the same
        # outcome for the functional set implementations
        impl = get_implementation("finite_set", "bstset")
        text = "(to_list (union (insert 1 (empty)) (insert 2 (empty))))"
        e = from_text(text, finite_set_sig)
        swapped = from_text(
            "(to_list (union (insert 2 (empty)) (insert 1 (empty))))", finite_set_sig
        )
        impl.reset()
        lhs = interp(e, impl, finite_set_sig)
        impl.reset()
        rhs = interp(swapped, impl, finite_set_sig)
        assert lhs == rhs == (1, 2)


class TestValueMatches:
    VALUES = [
        1, True, VChar("a"), VChar("ab"), VChar(5), "x", "", "a", None, VNone(),
        VSome(1), VSome(True), VSome((2,)), VSome(None), VSome(VNone()), VSome(VSome(1)), (),
        (1, 2), (1, False), (VNone(),), (VSome(3),), (True,), (0,), Var(), frozenset(), 3,
        0.5, 1.0, [1, 2], [True], VSome([2]), (1, "2"), (frozenset(),),
        -(1 << 70), False,
    ]
    TYPES = [
        INT, BOOL, CHAR, STR, UNIT, FunTy(INT, INT), ListTy(INT), ListTy(BOOL),
        OptionTy(INT), OptionTy(ListTy(INT)), ListTy(OptionTy(INT)), OptionTy(UNIT),
        OptionTy(OptionTy(INT)),
    ]

    def test_agrees_with_isinstance_oracle(self):
        # compared by position: 1 == True, so lists of values would hide a mix-up
        for ty in self.TYPES:
            accepted = [i for i, v in enumerate(self.VALUES) if value_rules(ty).check(v)]
            want = [i for i, v in enumerate(self.VALUES) if oracle_value_matches(v, ty)]
            assert accepted == want, ty
            assert accepted  # every type accepts some listed value

    def test_each_type_accepts_its_python_values(self):
        accepted = {
            ty: [v for v in self.VALUES if value_rules(ty).check(v)] for ty in self.TYPES
        }
        assert [repr(v) for v in accepted[INT]] == ["1", "3", str(-(1 << 70))]
        assert [repr(v) for v in accepted[BOOL]] == ["True", "False"]
        assert accepted[STR] == ["x", "", "a"]
        assert accepted[UNIT] == [None]
        assert accepted[OptionTy(UNIT)] == [VNone(), VSome(None)]
        assert [repr(v) for v in accepted[ListTy(BOOL)]] == ["()", "(True,)"]

    def test_least_value_and_draws_pass_the_check(self):
        for ty in self.TYPES:
            rules = value_rules(ty)
            assert rules.check(rules.least), ty
            for i in range(200):
                v = rules.draw(i % 31, Rng(mix_seed(67, i)))
                assert rules.check(v), (ty, i, v)

    def test_any_value_is_a_handle(self, finite_set_sig):
        # an implementation's handles are its own: the plan checks none of them
        check = finite_set_sig.plan.ops["empty"].check
        assert all(check(v) for v in self.VALUES)
        assert all(oracle_value_matches(v, ABSTRACT) for v in self.VALUES)


class TestOutcomeEqual:
    def test_equal_ints(self):
        assert outcome_equal(5, 5, INT)
        assert outcome_equal(1 << 70, 1 << 70, INT)

    def test_unequal_bools(self):
        assert not outcome_equal(True, False, BOOL)

    def test_matching_failure_tags(self):
        a = Failed("empty_dequeue")
        b = Failed("empty_dequeue")
        assert outcome_equal(a, b, OptionTy(INT))

    def test_mismatched_failure_tags(self):
        assert not outcome_equal(Failed("a"), Failed("b"), INT)

    def test_ok_never_equals_failed(self):
        assert not outcome_equal(0, Failed("x"), INT)
        assert not outcome_equal(Failed("x"), 0, INT)
        assert not outcome_equal(Failed("x"), "x", STR)
        assert not outcome_equal("x", Failed("x"), STR)
        assert not outcome_equal(None, Failed("x"), UNIT)

    def test_unit_values_always_equal(self):
        assert outcome_equal(None, None, UNIT)

    def test_lists_elementwise(self):
        xs, ys, zs = (1, 2), (1, 2), (2, 1)
        assert outcome_equal(xs, ys, ListTy(INT))
        assert not outcome_equal(xs, zs, ListTy(INT))
        assert not outcome_equal(xs, (1,), ListTy(INT))
        assert outcome_equal((), (), ListTy(INT))

    def test_options_by_case(self):
        ty = OptionTy(INT)
        assert outcome_equal(VNone(), VNone(), ty)
        assert outcome_equal(VSome(3), VSome(3), ty)
        assert not outcome_equal(VNone(), VSome(3), ty)
        assert not outcome_equal(VSome(4), VSome(3), ty)
        assert not outcome_equal(VSome(None), VNone(), OptionTy(UNIT))

    def test_abstract_type_is_a_contract_violation(self):
        # an unpickled atom is another object, and still the abstract type
        for ty in (ABSTRACT, pickle.loads(pickle.dumps(ABSTRACT))):
            with pytest.raises(ContractViolation):
                outcome_equal(frozenset(), frozenset(), ty)



class TestOutcomeToText:
    def test_values_render_as_literals(self):
        assert outcome_to_text((1, VSome(True))) == "ok (list 1 (some true))"
        assert outcome_to_text('a"b') == r'ok "a\"b"'
        assert outcome_to_text(Failed("empty")) == "failed empty"
        assert outcome_to_text(None) == "ok unit"
        assert outcome_to_text(VSome(None)) == "ok (some unit)"
        assert outcome_to_text((False, 0)) == "ok (list false 0)"
        assert (outcome_to_text(VChar("a")), outcome_to_text("a")) == ("ok 'a'", 'ok "a"')

    def test_char_escapes_parse_back(self):
        assert outcome_to_text(VChar("'")) == r"ok '\''"
        assert outcome_to_text(VChar("\\")) == r"ok '\\'"
