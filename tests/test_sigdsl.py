"""Signature IDL: parsing, validation, rendering."""

from __future__ import annotations

import keyword

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import RESERVED_WORDS, _contains_fun, oracle_check_op, oracle_validate
from specdiff.generator import GenConfig, Rng, gen_expr
from specdiff.interp import Implementation
from specdiff.sigdsl import (
    ABSTRACT,
    MAX_TYPE_NESTING,
    BOOL,
    CHAR,
    INT,
    STR,
    UNIT,
    FunTy,
    ListTy,
    OpDecl,
    OptionTy,
    ParseError,
    Signature,
    ValidationError,
    parse_signature,
    parse_ty,
    render_signature,
    render_ty,
    validate_signature,
)
from specdiff.symexpr import from_text, to_text

TRIVIAL = "signature S\nabstract t\nop empty : t\nop mem : int -> t -> bool\nend"


def sig_text(*decls: str, name: str = "X") -> str:
    return "\n".join([f"signature {name}", "abstract t", *decls, "end"])


# Op types with no values to draw or compare, as `op f : <type>` beside a
# leaf and an observer, and the message naming each.  The last two are
# return types with a function under a type constructor.
REJECTED = [
    ("(bool -> int) -> int", "function arguments must be (int -> int), got (bool -> int)"),
    (
        "(int -> int -> int) -> int",
        "function arguments must be (int -> int), got (int -> (int -> int))",
    ),
    ("t list -> int", "abstract type nested under a type constructor in t list"),
    ("t option -> int", "abstract type nested under a type constructor in t option"),
    ("t list option -> int", "abstract type nested under a type constructor in t list option"),
    ("t -> t list", "abstract type nested under a type constructor in t list"),
    (
        "(int -> int) list -> int",
        "function type nested under a type constructor in (int -> int) list",
    ),
    (
        "(int -> int) option list -> int",
        "function type nested under a type constructor in (int -> int) option list",
    ),
    (
        "t -> (bool -> int) list",
        "function type nested under a type constructor in (bool -> int) list",
    ),
    (
        "t -> (int -> int) option",
        "function type nested under a type constructor in (int -> int) option",
    ),
]


class TestParse:
    def test_minimal_signature(self):
        sig = parse_signature(TRIVIAL)
        assert sig == Signature(
            name="S",
            mutable=False,
            ops=(
                OpDecl("empty", (), ABSTRACT),
                OpDecl("mem", (INT, ABSTRACT), BOOL),
            ),
        )

    def test_ops_keep_source_order(self):
        sig = parse_signature(sig_text("op b : int", "op a : int", "op c : bool"))
        assert [op.name for op in sig.ops] == ["b", "a", "c"]

    def test_comments_and_blank_lines_ignored(self):
        src = "# header\nsignature S\n\nabstract t  # the carrier\n\nop empty : t\nend\n"
        assert parse_signature(src).ops == (OpDecl("empty", (), ABSTRACT),)

    def test_mutable_flag(self):
        assert parse_signature(sig_text("mutable", "op get : int")).mutable
        assert not parse_signature(sig_text("op get : int")).mutable

    def test_nullary_op_is_legal(self):
        (op,) = parse_signature(sig_text("op get : int")).ops
        assert op.args == () and op.ret == INT

    def test_curried_arrows_split_args_from_return(self):
        (op,) = parse_signature(sig_text("op f : int -> bool -> string -> unit")).ops
        assert op.args == (INT, BOOL, STR)
        assert op.ret == UNIT

    def test_parenthesized_arrow_is_function_argument(self):
        (op,) = parse_signature(sig_text("op map : (int -> int) -> t -> t")).ops
        assert op.args == (FunTy(INT, INT), ABSTRACT)
        assert op.ret == ABSTRACT

    def test_postfix_constructors(self):
        (op,) = parse_signature(sig_text("op f : int list option -> bool list")).ops
        assert op.args == (OptionTy(ListTy(INT)),)
        assert op.ret == ListTy(BOOL)

    def test_missing_abstract_declaration(self):
        with pytest.raises(ParseError, match="abstract t"):
            parse_signature("signature X\nop f : t -> t\nend")

    def test_duplicate_abstract_declaration(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_signature("signature X\nabstract t\nabstract t\nop f : int\nend")

    def test_missing_end(self):
        with pytest.raises(ParseError, match="missing 'end'"):
            parse_signature("signature X\nabstract t\nop f : int\n")

    # The next three rules are the plan's, not the parser's: the text
    # parses, and validation names the op, as for a signature built in Python.

    def test_duplicate_op_name(self):
        sig = parse_signature(sig_text("op f : int", "op f : bool"))
        with pytest.raises(ValidationError, match="^op 'f': duplicate op name$"):
            validate_signature(sig)

    def test_reserved_word_cannot_name_op(self):
        for word in ("seq", "fn", "some", "none", "list", "int", "end", "op"):
            sig = parse_signature(sig_text(f"op {word} : int"))
            with pytest.raises(ValidationError, match=f"^op '{word}': reserved word$"):
                validate_signature(sig)

    def test_function_type_in_return_position(self):
        sig = parse_signature(sig_text("op f : int -> (int -> int)"))
        with pytest.raises(ValidationError, match=r"^op 'f': function type in return position$"):
            validate_signature(sig)

    def test_unknown_type_name_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_signature("signature X\nabstract t\nop f : wibble\nend")
        assert exc.value.line == 3
        assert exc.value.col == 8
        assert str(exc.value).startswith("3:8: ")

    def test_trailing_garbage_after_end(self):
        with pytest.raises(ParseError, match="after 'end'"):
            parse_signature(sig_text("op f : int") + "\nop g : int")

    def test_deeply_nested_signature_is_a_parse_error(self):
        deep = "(" * 3000 + "int" + ")" * 3000
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_signature(sig_text("op e : t", f"op f : {deep} -> int"))

    def test_deeply_nested_type_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_ty("(" * 3000 + "int" + ")" * 3000)

    def test_long_postfix_chain_is_a_parse_error(self):
        # the postfix loop builds the type without recursing, so nothing
        # but the nesting bound stops it
        with pytest.raises(ParseError, match="type nested too deeply"):
            parse_ty("int" + " list" * 3000)
        with pytest.raises(ParseError, match="type nested too deeply"):
            parse_signature(sig_text("op e : t", "op f : int" + " option" * 3000 + " -> int"))

    def test_long_arrow_chain_is_a_parse_error(self):
        with pytest.raises(ParseError, match="type nested too deeply"):
            parse_ty("int -> " * 3000 + "int")
        with pytest.raises(ParseError, match="type nested too deeply"):
            parse_signature(sig_text("op e : t", "op f : (" + "int -> " * 3000 + "int) -> int"))

    def test_types_at_the_nesting_bound_parse_and_validate(self):
        deepest = "int" + " list" * (MAX_TYPE_NESTING - 1)
        ty = parse_ty(deepest)
        assert render_ty(ty) == deepest and hash(ty) == hash(parse_ty(deepest))
        sig = parse_signature(sig_text("op e : t", f"op f : {deepest} -> int"))
        validate_signature(sig)
        assert parse_ty("(" * MAX_TYPE_NESTING + "int" + ")" * MAX_TYPE_NESTING) == INT
        with pytest.raises(ParseError, match="type nested too deeply"):
            parse_ty(deepest + " option")
        with pytest.raises(ParseError, match="type nested too deeply"):
            parse_ty("(" * (MAX_TYPE_NESTING + 1) + "int" + ")" * (MAX_TYPE_NESTING + 1))


class TestValidate:
    def test_finite_set_observables(self, finite_set_sig):
        assert validate_signature(finite_set_sig) == (BOOL, INT, ListTy(INT))

    def test_finite_set_has_seven_ops(self, finite_set_sig):
        names = [op.name for op in finite_set_sig.ops]
        assert names == ["empty", "insert", "remove", "mem", "size", "union", "to_list"]

    def test_no_concrete_return_type(self):
        sig = parse_signature(sig_text("op id : t -> t", "op empty : t"))
        with pytest.raises(ValidationError, match="no concrete return type"):
            validate_signature(sig)

    def test_no_leaf_constructor(self):
        sig = parse_signature(sig_text("op id : t -> t", "op size : t -> int"))
        with pytest.raises(ValidationError, match="leaf constructor"):
            validate_signature(sig)

    def test_unit_return_is_observable(self):
        sig = parse_signature(sig_text("mutable", "op tick : unit", "op get : int"))
        assert validate_signature(sig) == (UNIT, INT)

    def test_function_argument_must_be_int_to_int(self):
        sig = parse_signature(sig_text("op f : (bool -> int) -> int"))
        with pytest.raises(ValidationError, match=r"\(int -> int\)"):
            validate_signature(sig)

    def test_multi_argument_function_rejected(self):
        sig = parse_signature(sig_text("op f : (int -> int -> int) -> int"))
        with pytest.raises(ValidationError):
            validate_signature(sig)

    def test_abstract_under_constructor_rejected(self):
        for ty in ("t list", "t option"):
            sig = parse_signature(sig_text(f"op f : {ty} -> int"))
            with pytest.raises(ValidationError, match="nested"):
                validate_signature(sig)

    def test_map_style_function_argument_is_valid(self):
        sig = parse_signature(
            sig_text("op empty : t", "op map : (int -> int) -> t -> t", "op size : t -> int")
        )
        assert validate_signature(sig) == (INT,)

    def test_unused_abstract_declaration_is_fine(self, counter_sig):
        # declared `abstract t` with no op touching it: nothing to construct,
        # so the leaf-constructor rule does not apply
        assert validate_signature(counter_sig) == (UNIT, INT, BOOL)

    def test_validation_does_not_mutate(self, finite_set_sig):
        before = render_signature(finite_set_sig)
        validate_signature(finite_set_sig)
        assert render_signature(finite_set_sig) == before

    @pytest.mark.parametrize("ty,message", REJECTED, ids=[ty for ty, _ in REJECTED])
    def test_rejected_op_type(self, ty, message):
        sig = parse_signature(sig_text("op e : t", "op g : t -> int", f"op f : {ty}"))
        with pytest.raises(ValidationError) as exc:
            validate_signature(sig)
        assert str(exc.value) == f"op 'f': {message}"

    @pytest.mark.parametrize("name", ["reset", "apply", "name", "if", "None", "__size"])
    def test_an_op_name_that_cannot_be_a_method_is_rejected(self, name):
        # reset would replace the harness's own hook, and an op reset : unit
        # would pass silently; a keyword can never be defined as a method
        sig = parse_signature(sig_text("op e : t", f"op {name} : t -> int"))
        with pytest.raises(ValidationError) as exc:
            validate_signature(sig)
        assert str(exc.value) == f"op {name!r}: cannot be the name of an implementation's method"

    @pytest.mark.parametrize(
        "name", ["__init__", "__size", "apply", "class", "some", "t", "signature", "e"]
    )
    def test_a_python_built_op_name_is_checked_too(self, name):
        # e repeats the leaf's name; the message is the one its text gets
        sig = Signature("P", False, (OpDecl("e", (), ABSTRACT), OpDecl(name, (ABSTRACT,), INT)))
        if name == "e":
            reason = "duplicate op name"
        elif name in RESERVED_WORDS:
            reason = "reserved word"
        else:
            reason = "cannot be the name of an implementation's method"
        with pytest.raises(ValidationError) as exc:
            validate_signature(sig)
        assert str(exc.value) == f"op {name!r}: {reason}"
        assert _verdict(validate_signature, parse_signature(render_signature(sig))) == str(exc.value)

    @pytest.mark.parametrize("at", ["argument", "return"])
    @pytest.mark.parametrize(
        "wrap", [ListTy, OptionTy, lambda ty: FunTy(INT, ty)], ids=["list", "option", "function"]
    )
    def test_a_python_built_type_past_the_nesting_bound_is_rejected(self, wrap, at):
        # no parser holds a type built in Python to the bound, so the plan
        # does, and measures it without recursing: 3,000 deep is an error
        def verdict(depth: int):
            ty = INT
            for _ in range(depth - 1):
                ty = wrap(ty)
            args, ret = ((ty, ABSTRACT), INT) if at == "argument" else ((ABSTRACT,), ty)
            sig = Signature("P", False, (OpDecl("e", (), ABSTRACT), OpDecl("f", args, ret)))
            return _verdict(validate_signature, sig)

        at_bound = verdict(MAX_TYPE_NESTING)
        assert isinstance(at_bound, tuple) or "nested too deeply" not in at_bound
        for depth in (MAX_TYPE_NESTING + 1, 3000):
            assert verdict(depth) == "op 'f': type nested too deeply"


class TestRender:
    @pytest.mark.parametrize(
        "text",
        ["int", "bool", "t", "int list", "int list option", "(int -> int)"],
    )
    def test_render_ty_round_trips(self, text):
        assert render_ty(parse_ty(text)) == text
        assert parse_ty(render_ty(parse_ty(text))) == parse_ty(text)

    def test_round_trip_bundled(self, finite_set_sig, bst_map_sig, counter_sig):
        for sig in (finite_set_sig, bst_map_sig, counter_sig):
            assert parse_signature(render_signature(sig)) == sig


# random but valid signatures, for the parse/render round-trip property
_atom = st.sampled_from([INT, BOOL, STR, UNIT, ABSTRACT])
_arg_ty = st.one_of(
    _atom,
    st.just(FunTy(INT, INT)),
    st.sampled_from([ListTy(INT), OptionTy(BOOL), ListTy(OptionTy(INT))]),
)
# op names: neither a reserved word nor a name no method can have
_name = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: s not in RESERVED_WORDS
    and not keyword.iskeyword(s)
    and not hasattr(Implementation, s)
)
_op = st.builds(
    OpDecl,
    name=_name,
    args=st.lists(_arg_ty, max_size=3).map(tuple),
    ret=_atom,
)
_signature = st.builds(
    Signature,
    name=st.just("Gen"),
    mutable=st.booleans(),
    ops=st.lists(_op, min_size=1, max_size=6, unique_by=lambda o: o.name).map(tuple),
)


@given(_signature)
def test_render_parse_round_trip(sig):
    assert parse_signature(render_signature(sig)) == sig


@given(_signature)
def test_lookup_tables_agree_with_ops_and_are_not_fields(sig):
    before = (repr(sig), hash(sig), render_signature(sig))
    plan = sig.plan
    assert {name: (p.args, p.ret) for name, p in plan.ops.items()} == {
        op.name: (op.args, op.ret) for op in sig.ops
    }
    for ret, target in plan.targets.items():
        assert target.ty == ret
        assert [p.name for p in target.ops] == [op.name for op in sig.ops if op.ret == ret]
        assert [p.name for p in target.leaves] == [
            op.name for op in sig.ops if op.ret == ret and ABSTRACT not in op.args
        ]
    assert sum(len(target.ops) for target in plan.targets.values()) == len(sig.ops)
    assert [target.ty for target in plan.effects] == [op.ret for op in sig.ops]
    assert {name: p.subexprs for name, p in plan.ops.items()} == {
        op.name: tuple(i for i, a in enumerate(op.args) if a == ABSTRACT) for op in sig.ops
    }
    assert (repr(sig), hash(sig), render_signature(sig)) == before
    assert sig == Signature(sig.name, sig.mutable, sig.ops)


# any type up to 3 deep, function types of every shape included
def _any_ty(depth: int = 3):
    atoms = st.sampled_from([INT, BOOL, CHAR, STR, UNIT, ABSTRACT, FunTy(INT, INT)])
    if depth == 1:
        return atoms
    inner = _any_ty(depth - 1)
    return st.one_of(
        atoms, st.builds(ListTy, inner), st.builds(OptionTy, inner), st.builds(FunTy, inner, inner)
    )


# half the types are valid ones, so that some ops with a bad type are the
# only bad op of their signature; names may be reserved words, and f and g
# are drawn often enough to repeat
_any_op = st.builds(
    OpDecl,
    name=st.one_of(_name, st.sampled_from(sorted(RESERVED_WORDS)), st.sampled_from(["f", "g"])),
    args=st.lists(st.one_of(_arg_ty, _any_ty()), max_size=3).map(tuple),
    ret=st.one_of(_atom, _any_ty()),
)
_any_signature = st.builds(
    Signature,
    name=st.just("Any"),
    mutable=st.booleans(),
    ops=st.lists(_any_op, min_size=1, max_size=4).map(tuple),
)


def _verdict(validate, arg):
    """What validate returns for arg, or its ValidationError's message."""
    try:
        return validate(arg)
    except ValidationError as exc:
        return str(exc)


@given(_any_signature, st.integers(0, 8), st.integers(0, 2**64 - 1))
def test_any_signature_is_rejected_or_generates(sig, size, seed):
    """validate_signature gives oracle_validate's verdict, but for two
    differences: an op whose return type has a function nested under list
    or option is rejected, where the oracle passes it, and a function
    holding t under list or option is named a function type nested there,
    where the oracle names an abstract type.  Each valid signature
    generates at every observable type, and the text round-trips."""
    want = _verdict(oracle_validate, sig)
    names = set()
    for op in sig.ops:
        if op.name in names or isinstance(_verdict(oracle_check_op, op), str):
            break
        names.add(op.name)
        if isinstance(op.ret, (ListTy, OptionTy)) and _contains_fun(op.ret):
            nested = f"function type nested under a type constructor in {render_ty(op.ret)}"
            want = f"op {op.name!r}: {nested}"
            break
    got = _verdict(validate_signature, sig)
    if isinstance(want, str) and got != want:
        assert got == want.replace(": abstract type nested", ": function type nested", 1)
        assert " -> " in got.split(" in ", 1)[1]
    else:
        assert got == want
    if isinstance(got, tuple):
        cfg = GenConfig(seed=seed)
        for ty in got:
            e = gen_expr(ty, size, sig, cfg, Rng(seed))
            assert from_text(to_text(e), sig) == e
