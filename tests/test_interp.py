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
    VAbstract,
    VBool,
    VChar,
    VInt,
    VList,
    VNone,
    VSome,
    VStr,
    VUnit,
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
)
from specdiff.suite import get_implementation
from specdiff.symexpr import Var, from_text

from models import ModelSet
from oracles import exprs_by_depth, oracle_value_matches


class Wrapped:
    """A value in a wrapper, as apply's results once were."""

    def __init__(self, value):
        self.value = value


class Returns(Implementation):
    """Every op returns one fixed result."""

    name = "fixed"

    def __init__(self, result):
        self.result = result

    def apply(self, op, args):
        return self.result


def run(text, impl, sig):
    impl.reset()
    return interp(from_text(text, sig), impl, sig)


class TestInterp:
    def test_leaf_call_returns_abstract(self, finite_set_sig):
        out = run("(empty)", get_implementation("finite_set", "listset"), finite_set_sig)
        assert isinstance(out, VAbstract)

    def test_membership_after_insert(self, finite_set_sig):
        for variant in ("listset", "bstset"):
            impl = get_implementation("finite_set", variant)
            out = run("(mem 3 (insert 3 (empty)))", impl, finite_set_sig)
            assert out == VBool(True)

    def test_one_increment_observed(self, counter_sig):
        for variant in ("int_counter", "list_counter"):
            impl = get_implementation("counter", variant)
            assert run("(seq (incr) (get))", impl, counter_sig) == VInt(1)

    def test_seq_discards_first_value(self, counter_sig):
        impl = get_implementation("counter", "int_counter")
        assert run("(seq (get) (is_zero))", impl, counter_sig) == VBool(True)

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

            def apply(self, op, args):
                if op == "mark":
                    self.marks.append(args[0].value)
                    return VUnit()
                return VInt(len(self.marks))

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
                if op == "boom":
                    return Failed("boom")
                if op == "ok":
                    return VAbstract(0)
                return VInt(0)

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
                if op == "incr":
                    return Failed("stuck")
                return VInt(0)

        impl = FailingCounter()
        out = interp(from_text("(seq (incr) (get))", counter_sig), impl, counter_sig)
        assert out == Failed("stuck")
        assert impl.applied == ["incr"]  # the second arm never ran

    @pytest.mark.parametrize(
        "ret,value",
        [
            ("char", VChar(5)),
            ("string", VStr(5)),
            ("int", VInt(0.5)),
            ("int", VInt(True)),
            ("bool", VBool(1)),
            ("int list", VList((VInt(1), VInt("2")))),
            # the return check keeps a stray handle from ever being compared
            ("int list", VList((VAbstract(0),))),
        ],
    )
    def test_malformed_result_is_a_harness_bug(self, ret, value):
        sig = parse_signature(f"signature M\nabstract t\nop make : t\nop read : t -> {ret}\nend")

        class Malformed(Implementation):
            name = "malformed"

            def apply(self, op, args):
                return VAbstract(0) if op == "make" else value

        with pytest.raises(HarnessBug, match=f"malformed: op 'read' returned a value outside {ret}$"):
            run("(read (make))", Malformed(), sig)

    @pytest.mark.parametrize(
        "result",
        [None, 3, [VInt(1)], Wrapped(VInt(1)), VBool(True)],
        ids=["none", "bare-int", "python-list", "wrapped-value", "bool-from-int-op"],
    )
    def test_a_result_outside_the_return_type_is_a_harness_bug(self, counter_sig, result):
        e = from_text("(get)", counter_sig)
        reference = get_implementation("counter", "int_counter")
        got = judge(e, INT, counter_sig, reference, Returns(result))
        assert got == ("harness_bug", None, None, "fixed: op 'get' returned a value outside int")

    def test_function_argument_arrives_callable(self):
        sig = parse_signature(
            "signature F\nabstract t\nop empty : t\n"
            "op apply_at : (int -> int) -> int -> t -> int\nend"
        )

        class ApplyAt(Implementation):
            name = "apply_at"

            def apply(self, op, args):
                if op == "empty":
                    return VAbstract(())
                f, k = args[0], args[1].value
                return VInt(f(k))

        e = from_text("(apply_at (fn (mul var var)) 9 (empty))", sig)
        assert interp(e, ApplyAt(), sig) == VInt(81)

    def test_shape_mismatch_is_a_harness_bug(self, finite_set_sig):
        class Liar(ModelSet):
            def apply(self, op, args):
                if op == "size":
                    return VBool(False)  # declared int
                return super().apply(op, args)

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
        assert lhs == rhs == VList((VInt(1), VInt(2)))


class TestValueMatches:
    VALUES = [
        VInt(1), VBool(True), VChar("a"), VChar("ab"), VStr("x"), VUnit(), VNone(),
        VSome(VInt(1)), VSome(VBool(True)), VSome(VList((VInt(2),))), VList(()),
        VList((VInt(1), VInt(2))), VList((VInt(1), VBool(False))), VList((VNone(),)),
        VList((VSome(VInt(3)),)), Var(), VAbstract(0), 3, None,
        VInt(0.5), VInt(True), VBool(1), VSome(VInt(None)), VList((VBool(0),)),
        VList([VInt(1)]),  # a VList holds a tuple
    ]
    TYPES = [
        INT, BOOL, CHAR, STR, UNIT, ABSTRACT, FunTy(INT, INT), ListTy(INT), ListTy(BOOL),
        OptionTy(INT), OptionTy(ListTy(INT)), ListTy(OptionTy(INT)),
    ]

    def test_agrees_with_isinstance_oracle(self):
        for ty in self.TYPES:
            accepted = [v for v in self.VALUES if value_rules(ty).check(v)]
            assert accepted == [v for v in self.VALUES if oracle_value_matches(v, ty)], ty
            assert accepted  # every type accepts some listed value

    def test_least_value_and_draws_pass_the_check(self):
        for ty in [t for t in self.TYPES if t != ABSTRACT]:
            rules = value_rules(ty)
            assert rules.check(rules.least), ty
            for i in range(200):
                v = rules.draw(i % 31, Rng(mix_seed(67, i)))
                assert rules.check(v), (ty, i, v)
        assert value_rules(ABSTRACT).least is None


class TestOutcomeEqual:
    def test_equal_ints(self):
        assert outcome_equal(VInt(5), VInt(5), INT)

    def test_unequal_bools(self):
        assert not outcome_equal(VBool(True), VBool(False), BOOL)

    def test_matching_failure_tags(self):
        a = Failed("empty_dequeue")
        b = Failed("empty_dequeue")
        assert outcome_equal(a, b, OptionTy(INT))

    def test_mismatched_failure_tags(self):
        assert not outcome_equal(Failed("a"), Failed("b"), INT)

    def test_ok_never_equals_failed(self):
        assert not outcome_equal(VInt(0), Failed("x"), INT)
        assert not outcome_equal(Failed("x"), VInt(0), INT)

    def test_unit_values_always_equal(self):
        from specdiff.sigdsl import UNIT

        assert outcome_equal(VUnit(), VUnit(), UNIT)

    def test_lists_elementwise(self):
        xs = VList((VInt(1), VInt(2)))
        ys = VList((VInt(1), VInt(2)))
        zs = VList((VInt(2), VInt(1)))
        from specdiff.sigdsl import ListTy

        assert outcome_equal(xs, ys, ListTy(INT))
        assert not outcome_equal(xs, zs, ListTy(INT))
        assert not outcome_equal(xs, VList((VInt(1),)), ListTy(INT))

    def test_options_by_case(self):
        ty = OptionTy(INT)
        assert outcome_equal(VNone(), VNone(), ty)
        assert outcome_equal(VSome(VInt(3)), VSome(VInt(3)), ty)
        assert not outcome_equal(VNone(), VSome(VInt(3)), ty)
        assert not outcome_equal(VSome(VInt(4)), VSome(VInt(3)), ty)

    def test_abstract_type_is_a_contract_violation(self):
        # an unpickled atom is another object, and still the abstract type
        for ty in (ABSTRACT, pickle.loads(pickle.dumps(ABSTRACT))):
            with pytest.raises(ContractViolation):
                outcome_equal(VAbstract(1), VAbstract(1), ty)



class TestOutcomeToText:
    def test_values_render_as_literals(self):
        assert outcome_to_text(VList((VInt(1), VSome(VBool(True))))) == "ok (list 1 (some true))"
        assert outcome_to_text(VStr('a"b')) == r'ok "a\"b"'
        assert outcome_to_text(Failed("empty")) == "failed empty"

    def test_char_escapes_parse_back(self):
        assert outcome_to_text(VChar("'")) == r"ok '\''"
        assert outcome_to_text(VChar("\\")) == r"ok '\\'"
