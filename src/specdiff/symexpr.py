"""Symbolic expressions over a signature.

An expression is a tree of operation calls.  A call's argument is either
a subexpression, at an abstract-typed position, or the runtime value the
implementation receives there (see *Values* below).  A function argument
is such a value too: its arithmetic AST (``Var``, ``Const``, ``BinOp``),
which is callable.  ``seq`` nodes chain two expressions for effect on
mutable signatures, returning the second's value.

Expressions serialize to s-expressions, e.g.::

    (mem 3 (insert 3 (empty)))
    (seq (incr) (get))
    (map (fn (add var 2)) (empty))
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

from .record import record
from .sigdsl import ABSTRACT, ParseError, Signature, Token, Ty, expected, render_ty, scan

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1


def wrap_i64(n: int) -> int:
    """Reduce to a 64-bit two's-complement value (wrap-around semantics)."""
    n &= _U64 - 1
    return n - _U64 if n > _I64_MAX else n


class ExprTypeError(Exception):
    """Raised when an expression does not type-check against a signature."""


# --------------------------------------------------------------------------
# Function ASTs (unary int -> int arguments)


class FnAst:
    """A unary integer function over one variable; calling it is eval_fn."""

    __slots__ = ()

    def __call__(self, x: int) -> int:
        return eval_fn(self, x)


@record
class Var(FnAst):
    """The single function parameter."""


@record
class Const(FnAst):
    value: int


@record
class BinOp(FnAst):
    """``(op left right)``, where op is "add", "sub" or "mul"."""

    op: str
    left: FnAst
    right: FnAst


_BIN_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def eval_fn(f: FnAst, x: int) -> int:
    """Evaluate at x with 64-bit wrap-around; total and deterministic."""
    if isinstance(f, Var):
        return wrap_i64(x)
    if isinstance(f, Const):
        return wrap_i64(f.value)
    return wrap_i64(_BIN_OPS[f.op](eval_fn(f.left, x), eval_fn(f.right, x)))


# --------------------------------------------------------------------------
# Values
#
# Runtime values, handed to and returned by implementations.  The
# non-subexpression arguments of an expression hold them too.  At an int,
# bool, string, unit or list type a value is the Python value itself: an
# int (never a bool), a bool, a str, None, or a tuple of element values.
# At t a value is the implementation's own handle, which only its own ops
# read, and which is never rendered or compared.  Three record kinds
# remain, each for a reason:
#
# - VChar, because the text form is rendered without types, and 'a' must
#   differ from "a";
# - VNone and VSome, because unit is None, and an int option option needs
#   (some none);
# - FnAst, above, for (int -> int).
#
# Every value but a handle is immutable, so the tree and the
# implementations can share them.  Values compare and hash as Python values
# do, and two values of one type are of the same Python types, so == between
# them is exact.  What each concrete type's values are is generator.value_rules.


@record
class VChar:
    value: str  # exactly one character


@record
class VNone:
    pass


@record
class VSome:
    value: "Value"


Value = int | bool | str | None | tuple | VChar | VNone | VSome | FnAst


# --------------------------------------------------------------------------
# Expressions


class Expr:
    __slots__ = ()


@record
class Call(Expr):
    """An op applied to its arguments: subexpressions and runtime values."""

    op: str
    args: tuple[Expr | Value, ...]


@record
class Seq(Expr):
    """Evaluate first for effect, discard its value, return second's."""

    first: Expr
    second: Expr


def type_of(e: Expr, sig: Signature) -> Ty:
    """Return the expression's type under sig, or raise ExprTypeError."""
    if isinstance(e, Seq):
        if not sig.mutable:
            raise ExprTypeError("seq is only allowed for mutable signatures")
        type_of(e.first, sig)
        return type_of(e.second, sig)
    if not isinstance(e, Call):
        raise ExprTypeError(f"not an expression: {e!r}")
    decl = sig.plan.ops.get(e.op)
    if decl is None:
        raise ExprTypeError(f"unknown op {e.op!r}")
    if len(e.args) != len(decl.args):
        raise ExprTypeError(
            f"op {e.op!r} expects {len(decl.args)} arguments, got {len(e.args)}"
        )
    for i, (arg, want, check) in enumerate(zip(e.args, decl.args, decl.arg_checks)):
        if check is None:
            if not isinstance(arg, Expr):
                raise ExprTypeError(
                    f"op {e.op!r} argument {i}: expected a subexpression of type t"
                )
            got = type_of(arg, sig)
            if got != ABSTRACT:
                raise ExprTypeError(
                    f"op {e.op!r} argument {i}: expected type t, got {render_ty(got)}"
                )
        elif not check(arg):
            raise ExprTypeError(
                f"op {e.op!r} argument {i}: literal does not match {render_ty(want)}"
            )
    return decl.ret


def depth(e: Expr) -> int:
    """1 + max depth over child expressions; a lone call has depth 1."""
    if type(e) is Seq:
        return 1 + max(depth(e.first), depth(e.second))
    best = 0
    for a in e.args:
        t = type(a)
        if t is Call or t is Seq:
            d = depth(a)
            if d > best:
                best = d
    return 1 + best


def size_of(e: Expr) -> int:
    """Total count of call and seq nodes."""
    if type(e) is Seq:
        return 1 + size_of(e.first) + size_of(e.second)
    n = 1
    for a in e.args:
        t = type(a)
        if t is Call or t is Seq:
            n += size_of(a)
    return n


def num_seq(e: Expr) -> int:
    if type(e) is Seq:
        return 1 + num_seq(e.first) + num_seq(e.second)
    n = 0
    for a in e.args:
        t = type(a)
        if t is Call or t is Seq:
            n += num_seq(a)
    return n


# --------------------------------------------------------------------------
# Serialization

_STR_ESCAPES = {"\\": "\\\\", '"': '\\"'}
_CHAR_ESCAPES = {"\\": "\\\\", "'": "\\'"}


def value_to_text(v: Value) -> str:
    """Readable one-line rendering; literal syntax where one exists."""
    t = type(v)
    if t is int:
        return str(v)
    if t is bool:
        return "true" if v else "false"
    if t is str:
        body = "".join(_STR_ESCAPES.get(c, c) for c in v)
        return f'"{body}"'
    if v is None:
        return "unit"
    if t is tuple:
        return "(list" + "".join(" " + value_to_text(x) for x in v) + ")"
    if t is VChar:
        return f"'{_CHAR_ESCAPES.get(v.value, v.value)}'"
    if t is VNone:
        return "none"
    if t is VSome:
        return f"(some {value_to_text(v.value)})"
    return f"(fn {_fn_text(v)})"


def _fn_text(f: FnAst) -> str:
    if isinstance(f, Var):
        return "var"
    if isinstance(f, Const):
        return str(f.value)
    return f"({f.op} {_fn_text(f.left)} {_fn_text(f.right)})"


def to_text(e: Expr) -> str:
    """Canonical s-expression form."""
    if type(e) is Seq:
        return f"(seq {to_text(e.first)} {to_text(e.second)})"
    text = "(" + e.op
    for a in e.args:
        t = type(a)
        text += " " + (to_text(a) if t is Call or t is Seq else value_to_text(a))
    return text + ")"


# Words this reader gives a meaning, so specdiff.plan lets no op be named by
# one; add, sub and mul never clash, as they are read only inside (fn ...).
EXPRESSION_WORDS = frozenset({"seq", "fn", "some", "none", "var", "true", "false"})

# Separators are what \s matches; there are no comments.
_EXPR_TOKENS = re.compile(
    r"""(?P<skip>\s+) | (?P<lparen>\() | (?P<rparen>\)) |
        (?P<int>-?[0-9]+) |
        (?P<char>'(?:\\.|[^'\\])') |
        (?P<str>"(?:\\.|[^"\\])*") |
        (?P<atom>[A-Za-z_][A-Za-z0-9_]*)""",
    re.VERBOSE,
)


class _Form(NamedTuple):
    """A parenthesized form: the fields of its '(' token, so that it reads
    as that token, and the tokens and forms inside, its ')' the last."""

    kind: str  # "lparen"
    text: str
    line: int
    col: int
    items: list


def _read(s: str) -> _Form:
    """The one form that s holds, with nothing after it; no recursion."""
    tokens = scan(s, _EXPR_TOKENS)
    if tokens[0].kind != "lparen":
        expected("'('", tokens[0])
    outer = _Form(*tokens[0], [])
    unclosed = [outer]
    i = 1
    while unclosed:
        tok = tokens[i]
        i += 1
        if tok.kind == "eof":
            expected("')'", tok)
        if tok.kind == "lparen":
            form = _Form(*tok, [])
            unclosed[-1].items.append(form)
            unclosed.append(form)
        else:
            unclosed[-1].items.append(tok)
            if tok.kind == "rparen":
                unclosed.pop()
    if tokens[i].kind != "eof":
        expected("end of input", tokens[i])
    return outer


def _rest(form: _Form, n: int, what: str) -> list:
    """The n items between a form's head and its ')'."""
    rest = form.items[1:-1]
    if len(rest) < n:
        expected(what, form.items[-1])
    if len(rest) > n:
        expected("')'", rest[n])
    return rest


def _expr(item) -> Expr:
    """``(seq expr expr)`` or ``(op arg ...)``."""
    if item.kind != "lparen":
        expected("'('", item)
    head = item.items[0]
    if head.kind != "atom":
        expected("an op name", head)
    if head.text == "seq":
        first, second = _rest(item, 2, "'('")
        return Seq(_expr(first), _expr(second))
    return Call(head.text, tuple(map(_arg, item.items[1:-1])))


def _arg(item) -> Expr | Value:
    """A literal, a function ``(fn body)`` or a subexpression."""
    if item.kind != "lparen":
        return _literal(item)
    head = item.items[0].text
    if head in ("some", "list"):
        return _literal(item)
    if head == "fn":
        (body,) = _rest(item, 1, "a function body")
        return _fn(body)
    return _expr(item)


_LITERAL_ATOMS = {"true": True, "false": False, "none": VNone(), "unit": None}


def _literal(item) -> Value:
    """An int, char, string, true, false, none or unit, or a
    ``(some literal)`` or ``(list literal ...)`` form."""
    kind = item.kind
    if kind == "int":
        return _int(item)
    if kind == "char":
        return VChar(_unescape(item.text[1:-1]))
    if kind == "str":
        return _unescape(item.text[1:-1])
    if kind == "atom" and item.text in _LITERAL_ATOMS:
        return _LITERAL_ATOMS[item.text]
    if kind != "lparen":
        expected("a literal", item)
    head = item.items[0]
    if head.text == "some":
        (inner,) = _rest(item, 1, "a literal")
        return VSome(_literal(inner))
    if head.text != "list":
        expected("some or list", head)
    return tuple(map(_literal, item.items[1:-1]))


def _fn(item) -> FnAst:
    """``var``, an int, or ``(add|sub|mul body body)``."""
    if item.kind == "int":
        return Const(_int(item))
    if item.kind == "atom" and item.text == "var":
        return Var()
    if item.kind != "lparen":
        expected("a function body", item)
    head = item.items[0]
    if head.text not in _BIN_OPS:
        expected("add, sub or mul", head)
    left, right = _rest(item, 2, "a function body")
    return BinOp(head.text, _fn(left), _fn(right))


def _int(tok: Token) -> int:
    """An int token's value, wrapped to 64 bits; ParseError past int()'s digit limit."""
    try:
        return wrap_i64(int(tok.text))
    except ValueError:
        raise ParseError("integer literal has too many digits", tok.line, tok.col) from None


_ESCAPE = re.compile(r"""\\([\\'"])""")


def _unescape(body: str) -> str:
    return _ESCAPE.sub(r"\1", body)


def from_text(s: str, sig: Signature) -> Expr:
    """Parse an s-expression and type-check it against sig.

    Raises ParseError on malformed input, including input nested too deeply
    to parse or type-check, and ExprTypeError on a well-formed but
    ill-typed expression.
    """
    form = _read(s)
    try:
        e = _expr(form)
        type_of(e, sig)
    except RecursionError:
        raise ParseError("expression nested too deeply", form.line, form.col) from None
    return e
