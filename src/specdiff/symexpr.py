"""Symbolic expressions over a signature.

An expression is a tree of operation calls.  A call's argument is either
a subexpression, at an abstract-typed position, or the runtime value the
implementation receives there (the ``V*`` classes below).  A function
argument is such a value too: a ``VFun`` over a small arithmetic AST in
one variable.  ``seq`` nodes chain two expressions for effect on mutable
signatures, returning the second's value.

Expressions serialize to s-expressions, e.g.::

    (mem 3 (insert 3 (empty)))
    (seq (incr) (get))
    (map (fn (add var 2)) (empty))
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from .sigdsl import (
    AbstractTy,
    BoolTy,
    CharTy,
    FunTy,
    IntTy,
    ListTy,
    OptionTy,
    ParseError,
    Signature,
    StrTy,
    Ty,
    UnitTy,
    render_ty,
)

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
    __slots__ = ()


@dataclass(frozen=True)
class Var(FnAst):
    """The single function parameter."""


@dataclass(frozen=True)
class Const(FnAst):
    value: int


@dataclass(frozen=True)
class Add(FnAst):
    left: FnAst
    right: FnAst


@dataclass(frozen=True)
class Sub(FnAst):
    left: FnAst
    right: FnAst


@dataclass(frozen=True)
class Mul(FnAst):
    left: FnAst
    right: FnAst


def eval_fn(f: FnAst, x: int) -> int:
    """Evaluate at x with 64-bit wrap-around; total and deterministic."""
    if isinstance(f, Var):
        return wrap_i64(x)
    if isinstance(f, Const):
        return wrap_i64(f.value)
    l = eval_fn(f.left, x)
    r = eval_fn(f.right, x)
    if isinstance(f, Add):
        return wrap_i64(l + r)
    if isinstance(f, Sub):
        return wrap_i64(l - r)
    if isinstance(f, Mul):
        return wrap_i64(l * r)
    raise AssertionError(f"unhandled node {f!r}")


def fn_depth(f: FnAst) -> int:
    if isinstance(f, (Var, Const)):
        return 1
    return 1 + max(fn_depth(f.left), fn_depth(f.right))


# --------------------------------------------------------------------------
# Values
#
# Runtime values, handed to and returned by implementations.  The
# non-subexpression arguments of an expression hold them too; every class
# is frozen over immutable fields, so the tree and the implementations can
# share them.


@dataclass(frozen=True)
class VInt:
    value: int


@dataclass(frozen=True)
class VBool:
    value: bool


@dataclass(frozen=True)
class VChar:
    value: str  # exactly one character


@dataclass(frozen=True)
class VStr:
    value: str


@dataclass(frozen=True)
class VUnit:
    pass


@dataclass(frozen=True)
class VList:
    elems: tuple["Value", ...]


@dataclass(frozen=True)
class VNone:
    pass


@dataclass(frozen=True)
class VSome:
    value: "Value"


@dataclass(frozen=True)
class VFun:
    """A unary integer function, applied via its AST."""

    fn: FnAst

    def __call__(self, x: int) -> int:
        return eval_fn(self.fn, x)


@dataclass(frozen=True)
class VAbstract:
    """An opaque value of the abstract type; handle is implementation-private."""

    handle: Any


Value = (
    VInt | VBool | VChar | VStr | VUnit | VList | VNone | VSome | VFun | VAbstract
)


def value_matches(v: Value, ty: Ty) -> bool:
    """Shape check: does the value inhabit the type?"""
    return _VALUE_CHECKS.get(type(ty), _matches_nothing)(v, ty)


def _matches_nothing(v: Value, ty: Ty) -> bool:
    return False


def _list_matches(v: Value, ty: ListTy) -> bool:
    if not isinstance(v, VList):
        return False
    for x in v.elems:
        if not value_matches(x, ty.elem):
            return False
    return True


def _option_matches(v: Value, ty: OptionTy) -> bool:
    if isinstance(v, VNone):
        return True
    return isinstance(v, VSome) and value_matches(v.value, ty.elem)


_VALUE_CHECKS = {
    IntTy: lambda v, ty: isinstance(v, VInt),
    BoolTy: lambda v, ty: isinstance(v, VBool),
    CharTy: lambda v, ty: isinstance(v, VChar) and len(v.value) == 1,
    StrTy: lambda v, ty: isinstance(v, VStr),
    UnitTy: lambda v, ty: isinstance(v, VUnit),
    AbstractTy: lambda v, ty: isinstance(v, VAbstract),
    FunTy: lambda v, ty: isinstance(v, VFun),
    ListTy: _list_matches,
    OptionTy: _option_matches,
}


# --------------------------------------------------------------------------
# Expressions


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Call(Expr):
    """An op applied to its arguments: subexpressions and runtime values."""

    op: str
    args: tuple[Expr | Value, ...]


@dataclass(frozen=True)
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
    decl = sig.op_by_name.get(e.op)
    if decl is None:
        raise ExprTypeError(f"unknown op {e.op!r}")
    if len(e.args) != len(decl.args):
        raise ExprTypeError(
            f"op {e.op!r} expects {len(decl.args)} arguments, got {len(e.args)}"
        )
    for i, (arg, want) in enumerate(zip(e.args, decl.args)):
        if isinstance(want, AbstractTy):
            if not isinstance(arg, Expr):
                raise ExprTypeError(
                    f"op {e.op!r} argument {i}: expected a subexpression of type t"
                )
            got = type_of(arg, sig)
            if not isinstance(got, AbstractTy):
                raise ExprTypeError(
                    f"op {e.op!r} argument {i}: expected type t, got {render_ty(got)}"
                )
        elif not value_matches(arg, want):
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
        if isinstance(a, Expr):
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
        if isinstance(a, Expr):
            n += size_of(a)
    return n


def num_seq(e: Expr) -> int:
    if type(e) is Seq:
        return 1 + num_seq(e.first) + num_seq(e.second)
    n = 0
    for a in e.args:
        if isinstance(a, Expr):
            n += num_seq(a)
    return n


# --------------------------------------------------------------------------
# Serialization

_STR_ESCAPES = {"\\": "\\\\", '"': '\\"'}
_CHAR_ESCAPES = {"\\": "\\\\", "'": "\\'"}


def value_to_text(v: Value) -> str:
    """Readable one-line rendering; literal syntax where one exists."""
    if isinstance(v, VInt):
        return str(v.value)
    if isinstance(v, VBool):
        return "true" if v.value else "false"
    if isinstance(v, VChar):
        return f"'{_CHAR_ESCAPES.get(v.value, v.value)}'"
    if isinstance(v, VStr):
        body = "".join(_STR_ESCAPES.get(c, c) for c in v.value)
        return f'"{body}"'
    if isinstance(v, VUnit):
        return "unit"
    if isinstance(v, VList):
        return "(list" + "".join(" " + value_to_text(x) for x in v.elems) + ")"
    if isinstance(v, VNone):
        return "none"
    if isinstance(v, VSome):
        return f"(some {value_to_text(v.value)})"
    if isinstance(v, VFun):
        return f"(fn {_fn_text(v.fn)})"
    return "<abstract>"


def _fn_text(f: FnAst) -> str:
    if isinstance(f, Var):
        return "var"
    if isinstance(f, Const):
        return str(f.value)
    op = {Add: "add", Sub: "sub", Mul: "mul"}[type(f)]
    return f"({op} {_fn_text(f.left)} {_fn_text(f.right)})"


def to_text(e: Expr) -> str:
    """Canonical s-expression form."""
    if isinstance(e, Seq):
        return f"(seq {to_text(e.first)} {to_text(e.second)})"
    parts = [e.op]
    for a in e.args:
        parts.append(to_text(a) if isinstance(a, Expr) else value_to_text(a))
    return "(" + " ".join(parts) + ")"


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\() | (?P<rparen>\)) |
        (?P<int>-?[0-9]+) |
        (?P<char>'(?:\\.|[^'\\])') |
        (?P<str>"(?:\\.|[^"\\])*") |
        (?P<atom>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)


def _sexp_tokens(s: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            rest = s[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"bad token near {rest[:10]!r}", 1, pos + 1)
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


_LIT_HEADS = {"some", "list"}


class _SexpParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, 1, self.pos + 1)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            self.error(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> Expr:
        self.expect("(")
        head = self.next()
        if head == "seq":
            first = self.parse_expr()
            second = self.parse_expr()
            self.expect(")")
            return Seq(first, second)
        if not _IDENT_OK.match(head):
            self.error(f"expected an op name, got {head!r}")
        args: list[Expr | Value] = []
        while self.peek() != ")":
            args.append(self.parse_arg())
        self.expect(")")
        return Call(head, tuple(args))

    def parse_arg(self) -> Expr | Value:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        if tok != "(":
            lit = self.parse_simple_literal()
            if lit is not None:
                return lit
            self.error(f"unexpected token {tok!r}")
        head = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        if head in _LIT_HEADS:
            return self.parse_literal()
        if head == "fn":
            self.next()  # (
            self.next()  # fn
            fn = self.parse_fn()
            self.expect(")")
            return VFun(fn)
        return self.parse_expr()

    def parse_simple_literal(self) -> Value | None:
        tok = self.peek()
        assert tok is not None
        if tok == "true":
            self.next()
            return VBool(True)
        if tok == "false":
            self.next()
            return VBool(False)
        if tok == "none":
            self.next()
            return VNone()
        if tok == "unit":
            self.next()
            return VUnit()
        if _INT_OK.match(tok):
            self.next()
            return VInt(wrap_i64(int(tok)))
        if tok.startswith("'"):
            self.next()
            return VChar(_unescape(tok[1:-1]))
        if tok.startswith('"'):
            self.next()
            return VStr(_unescape(tok[1:-1]))
        return None

    def parse_literal(self) -> Value:
        tok = self.peek()
        if tok != "(":
            lit = self.parse_simple_literal()
            if lit is None:
                self.error(f"expected a literal, got {tok!r}")
            return lit
        self.next()
        head = self.next()
        if head == "some":
            inner = self.parse_literal()
            self.expect(")")
            return VSome(inner)
        if head == "list":
            elems = []
            while self.peek() != ")":
                elems.append(self.parse_literal())
            self.expect(")")
            return VList(tuple(elems))
        self.error(f"expected a literal form, got {head!r}")
        raise AssertionError  # unreachable

    def parse_fn(self) -> FnAst:
        tok = self.next()
        if tok == "var":
            return Var()
        if _INT_OK.match(tok):
            return Const(wrap_i64(int(tok)))
        if tok == "(":
            head = self.next()
            ctor = {"add": Add, "sub": Sub, "mul": Mul}.get(head)
            if ctor is None:
                self.error(f"expected add/sub/mul, got {head!r}")
            left = self.parse_fn()
            right = self.parse_fn()
            self.expect(")")
            return ctor(left, right)
        self.error(f"expected a function body, got {tok!r}")
        raise AssertionError  # unreachable


_IDENT_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_OK = re.compile(r"-?[0-9]+\Z")


def _unescape(body: str) -> str:
    return body.replace("\\\\", "\0").replace("\\'", "'").replace('\\"', '"').replace(
        "\0", "\\"
    )


def from_text(s: str, sig: Signature) -> Expr:
    """Parse an s-expression and type-check it against sig.

    Raises ParseError on malformed input, including input nested too deeply
    to parse or type-check, and ExprTypeError on a well-formed but
    ill-typed expression.
    """
    parser = _SexpParser(_sexp_tokens(s))
    try:
        e = parser.parse_expr()
        if parser.peek() is not None:
            parser.error(f"trailing input {parser.peek()!r}")
        type_of(e, sig)
    except RecursionError:
        raise ParseError("expression nested too deeply", 1, parser.pos + 1) from None
    return e
