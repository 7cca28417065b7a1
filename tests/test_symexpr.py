"""Expression terms: typing, metrics, serialization, function evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdiff.generator import GenConfig, Rng, gen_expr, gen_fn_ast, mix_seed
from specdiff.interp import Failed
from specdiff.sigdsl import ABSTRACT, BOOL, INT, ParseError, parse_signature
from specdiff.suite import get_suite
from specdiff.symexpr import (
    BinOp,
    Call,
    Const,
    ExprTypeError,
    Seq,
    Var,
    VChar,
    VNone,
    VSome,
    depth,
    eval_fn,
    from_text,
    num_seq,
    size_of,
    to_text,
    type_of,
    wrap_i64,
)

from models import MAPPED_SIG, TALLY_SIG
from oracles import fn_depth
from oracles import all_terms_by_depth, oracle_type_of

EMPTY = Call("empty", ())
MEM_CHAIN = Call("mem", (3, Call("insert", (3, EMPTY))))
SEQ_GET = Seq(Call("incr", ()), Call("get", ()))

# char and string in argument and result position
TEXT_SIG = """signature text
abstract t
op pair : char -> string -> t
op first : t -> char
op char_of : char -> char
op str_of : string -> string
op int_of : int -> int
end
"""


class TestTypeOf:
    def test_leaf_constructor(self, finite_set_sig):
        assert type_of(EMPTY, finite_set_sig) == ABSTRACT

    def test_nested_call(self, finite_set_sig):
        assert type_of(MEM_CHAIN, finite_set_sig) == BOOL

    def test_seq_takes_second_type(self, counter_sig):
        assert type_of(SEQ_GET, counter_sig) == INT

    def test_seq_rejected_when_not_mutable(self, finite_set_sig):
        e = Seq(EMPTY, EMPTY)
        with pytest.raises(ExprTypeError, match="mutable"):
            type_of(e, finite_set_sig)

    def test_unknown_op(self, finite_set_sig):
        with pytest.raises(ExprTypeError, match="unknown op"):
            type_of(Call("wibble", ()), finite_set_sig)

    def test_arity_mismatch(self, finite_set_sig):
        with pytest.raises(ExprTypeError, match="argument"):
            type_of(Call("mem", (3,)), finite_set_sig)

    def test_literal_where_abstract_expected(self, finite_set_sig):
        e = Call("mem", (3, 0))
        with pytest.raises(ExprTypeError):
            type_of(e, finite_set_sig)

    def test_wrong_literal_type(self, finite_set_sig):
        for value in (True, "3", None, VChar("3"), (3,), VSome(3)):
            e = Call("mem", (value, EMPTY))
            with pytest.raises(ExprTypeError):
                type_of(e, finite_set_sig)

    @pytest.mark.parametrize(
        "value", [frozenset(), Var(), VChar("ab")], ids=["abstract", "fun", "two_chars"]
    )
    def test_literal_must_be_a_concrete_value(self, value):
        sig = parse_signature(TEXT_SIG)
        for op in ("int_of", "char_of"):
            with pytest.raises(ExprTypeError, match="literal does not match"):
                type_of(Call(op, (value,)), sig)

    def test_agrees_with_enumeration_oracle(self, finite_set_sig):
        # every term of depth <= 2, ill-typed ones included
        terms = all_terms_by_depth(finite_set_sig, max_depth=2)
        assert len(terms) > 10_000
        for e in terms:
            try:
                got = type_of(e, finite_set_sig)
            except ExprTypeError:
                got = None
            assert got == oracle_type_of(e, finite_set_sig), to_text(e)


class TestMetrics:
    def test_depth_examples(self):
        assert depth(EMPTY) == 1
        assert depth(MEM_CHAIN) == 3
        assert depth(SEQ_GET) == 2

    def test_size_examples(self):
        assert size_of(EMPTY) == 1
        assert size_of(MEM_CHAIN) == 3
        five = Seq(Call("incr", ()), Seq(Call("incr", ()), Call("get", ())))
        assert size_of(five) == 5

    def test_num_seq(self):
        assert num_seq(EMPTY) == 0
        assert num_seq(SEQ_GET) == 1
        assert num_seq(Seq(Call("incr", ()), SEQ_GET)) == 2

    def test_lit_and_fn_args_contribute_nothing(self):
        sig = parse_signature(
            "signature G\nabstract t\nop empty : t\n"
            "op map : (int -> int) -> t -> t\nend"
        )
        e = Call("map", (BinOp("add", Var(), Const(2)), EMPTY))
        assert type_of(e, sig) == ABSTRACT
        assert depth(e) == 2
        assert size_of(e) == 2


class TestText:
    def test_render_examples(self):
        assert to_text(EMPTY) == "(empty)"
        assert to_text(MEM_CHAIN) == "(mem 3 (insert 3 (empty)))"
        assert to_text(SEQ_GET) == "(seq (incr) (get))"

    def test_render_function_arg(self):
        e = Call("map", (BinOp("add", Var(), Const(2)), EMPTY))
        assert to_text(e) == "(map (fn (add var 2)) (empty))"

    def test_render_literals(self):
        lits = [
            (True, "true"),
            (False, "false"),
            (0, "0"),
            (-7, "-7"),
            (VChar("c"), "'c'"),
            ('a"b', '"a\\"b"'),
            (None, "unit"),
            ((8, 12), "(list 8 12)"),
            ((), "(list)"),
            (VNone(), "none"),
            (VSome(5), "(some 5)"),
            (VSome(None), "(some unit)"),
            (VSome(VNone()), "(some none)"),
            (BinOp("add", Var(), Const(2)), "(fn (add var 2))"),
        ]
        for lit, want in lits:
            assert to_text(Call("k", (lit,))) == f"(k {want})"

    def test_round_trip_examples(self, finite_set_sig, counter_sig):
        for text, sig in [
            ("(empty)", finite_set_sig),
            ("(mem 3 (insert 3 (empty)))", finite_set_sig),
            ("(seq (incr) (seq (add -7) (get)))", counter_sig),
        ]:
            e = from_text(text, sig)
            assert to_text(e) == text

    @pytest.mark.parametrize(
        "e, text",
        [
            (Call("char_of", (VChar("'"),)), r"(char_of '\'')"),
            (Call("char_of", (VChar("\\"),)), r"(char_of '\\')"),
            (Call("str_of", ('a"b',)), r'(str_of "a\"b")'),
            (
                Call("first", (Call("pair", (VChar("'"), "\\")),)),
                r"""(first (pair '\'' "\\"))""",
            ),
            (Call("str_of", ("a\0b",)), '(str_of "a\0b")'),
        ],
    )
    def test_round_trip_char_and_string_escapes(self, e, text):
        sig = parse_signature(TEXT_SIG)
        assert to_text(e) == text
        assert from_text(text, sig) == e

    def test_a_char_and_a_one_character_string_stay_apart(self):
        sig = parse_signature(TEXT_SIG)
        char, string = from_text("(char_of 'a')", sig), from_text('(str_of "a")', sig)
        assert char.args == (VChar("a"),) and type(string.args[0]) is str
        assert char.args[0] != string.args[0] == "a"
        assert (to_text(char), to_text(string)) == ("(char_of 'a')", '(str_of "a")')
        assert to_text(Call("pair", (VChar("a"), "a"))) == "(pair 'a' \"a\")"
        for text in ('(char_of "a")', "(str_of 'a')"):
            with pytest.raises(ExprTypeError, match="literal does not match"):
                from_text(text, sig)

    def test_literals_parse_to_python_values(self):
        sig = parse_signature(MAPPED_SIG)
        e = from_text("(push_all (list 1 -2 0) (empty))", sig)
        assert repr(e.args[0]) == "(1, -2, 0)"
        sig = parse_signature(TALLY_SIG)
        e = from_text("(bump true none (bump false (some 0) (zero)))", sig)
        assert repr(e.args[:2]) == "(True, VNone())"
        assert repr(e.args[2].args[:2]) == "(False, VSome(value=0))"

    def test_from_text_type_error(self, finite_set_sig):
        with pytest.raises(ExprTypeError):
            from_text("(mem 3 (mem 3 (empty)))", finite_set_sig)

    def test_from_text_parse_errors(self, finite_set_sig):
        for bad in ["", "(", "(empty", "(empty))", "empty", "(mem 3 4"]:
            with pytest.raises(ParseError):
                from_text(bad, finite_set_sig)

    def test_deep_nesting_is_a_parse_error(self, counter_sig):
        text = "(seq (incr) " * 3000 + "(get)" + ")" * 3000
        with pytest.raises(ParseError, match="nested too deeply"):
            from_text(text, counter_sig)

    # the model signatures take bool, option, list and function arguments
    @pytest.mark.parametrize("suite_name", ["finite_set", "bst_map", "counter", "tally", "mapped"])
    @given(index=st.integers(0, 500))
    def test_round_trip_generated(self, suite_name, index):
        models = {"tally": TALLY_SIG, "mapped": MAPPED_SIG}
        if suite_name in models:
            sig = parse_signature(models[suite_name])
        else:
            sig = get_suite(suite_name).signature
        rng = Rng(mix_seed(99, index))
        ty = [op.ret for op in sig.ops][index % len(sig.ops)]
        e = gen_expr(ty, index % 13, sig, GenConfig(max_size=12), rng)
        back = from_text(to_text(e), sig)
        assert back == e and repr(back) == repr(e)  # the repr tells True from 1
        assert type_of(e, sig) == ty


class TestEvalFn:
    def test_identity(self):
        assert eval_fn(Var(), 7) == 7

    def test_arithmetic(self):
        assert eval_fn(BinOp("add", BinOp("mul", Var(), Const(2)), Const(1)), 5) == 11

    def test_wraps_at_64_bits(self):
        assert eval_fn(BinOp("mul", Const(1 << 62), Const(4)), 0) == 0
        assert eval_fn(BinOp("add", Const((1 << 63) - 1), Const(1)), 0) == -(1 << 63)

    @given(st.integers(-(1 << 63), (1 << 63) - 1), st.integers(0, 2**64))
    def test_matches_bigint_oracle(self, x, fuel):
        # structure derived from fuel bits, exercised against plain
        # arbitrary-precision arithmetic reduced mod 2^64
        def build(fuel, d=0):
            kind = fuel % 5 if d < 2 else fuel % 2
            fuel //= 5
            if kind == 0:
                return Var(), lambda v: v
            if kind == 1:
                k = wrap_i64(fuel)
                return Const(k), lambda v: k
            l, lf = build(fuel, d + 1)
            r, rf = build(fuel // 7, d + 1)
            if kind == 2:
                return BinOp("add", l, r), lambda v: lf(v) + rf(v)
            if kind == 3:
                return BinOp("sub", l, r), lambda v: lf(v) - rf(v)
            return BinOp("mul", l, r), lambda v: lf(v) * rf(v)

        fn, oracle = build(fuel)
        want = oracle(x) % (1 << 64)
        want = want - (1 << 64) if want >= 1 << 63 else want
        assert eval_fn(fn, x) == want

    def test_pure(self):
        fn = BinOp("sub", BinOp("mul", Var(), Var()), Const(3))
        assert eval_fn(fn, 9) == eval_fn(fn, 9) == 78

    @given(st.integers(0, 10_000))
    def test_generated_fn_depth_bound(self, seed):
        assert fn_depth(gen_fn_ast(10, Rng(seed))) <= 3


@given(st.integers(0, 300), st.sampled_from(["finite_set", "bst_map", "counter"]))
def test_depth_bounded_by_size(index, suite_name):
    sig = get_suite(suite_name).signature
    rng = Rng(mix_seed(5, index))
    ty = [op.ret for op in sig.ops][index % len(sig.ops)]
    e = gen_expr(ty, index % 20, sig, GenConfig(), rng)
    assert depth(e) <= size_of(e)


def test_a_function_ast_is_callable_and_wraps_at_64_bits():
    top = (1 << 63) - 1
    succ = BinOp("add", Var(), Const(1))
    assert succ(top) == eval_fn(succ, top) == -(1 << 63)
    square = BinOp("mul", Var(), Var())
    for x in (0, 3, -5, top, -(1 << 63), 1 << 40, 1 << 64):
        assert square(x) == eval_fn(square, x)
    assert Var()(1 << 64) == eval_fn(Var(), 1 << 64) == 0
    assert Const(5)(99) == eval_fn(Const(5), 99) == 5


class TestSlottedNodes:
    """Nodes, values and outcomes are slotted and still frozen, equal and hashed by value."""

    def build(self):
        return [
            Call("mem", (3, Call("insert", (3, Call("empty", ()))))),
            Seq(Call("incr", ()), Call("get", ())),
            VChar("a"), VNone(), VSome(2), VSome((1, VNone())), BinOp("add", Var(), Const(2)),
            Var(), Const(0), BinOp("sub", Var(), Var()),
            BinOp("mul", Const(2), Var()), Failed("empty"),
        ]

    def test_assigning_a_field_raises(self):
        for node in self.build():
            assert not hasattr(node, "__dict__"), node
            for name in type(node)._fields:
                with pytest.raises(AttributeError, match="cannot assign"):
                    setattr(node, name, None)
                with pytest.raises(AttributeError, match="cannot delete"):
                    delattr(node, name)
            with pytest.raises(AttributeError):
                node.extra = None

    def test_equality_hash_and_repr_are_by_value(self):
        for a, b in zip(self.build(), self.build()):
            assert a == b and hash(a) == hash(b)
        assert repr(MEM_CHAIN) == (
            "Call(op='mem', args=(3, Call(op='insert', args=(3, Call(op='empty', args=())))))"
        )
        assert repr(VSome(1)) == "VSome(value=1)"
        assert VChar("a") != "a" and Call("get", ()) != Seq(Call("get", ()), Call("get", ()))
