"""Signature IDL: parsing, validation and pretty-printing.

A signature file declares one abstract type ``t`` and a list of operations
over it, e.g.::

    signature finite_set
    abstract t
    op empty : t
    op mem : int -> t -> bool
    end

Arrow types are curried: ``a -> b -> c`` declares arguments ``[a, b]`` and
return type ``c``.  A parenthesized arrow in argument position, such as
``(int -> int)``, is a function-valued argument.  Parentheses, and the
constructors of a type, nest at most ``MAX_TYPE_NESTING`` deep.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from .record import record

if TYPE_CHECKING:
    from .plan import SigPlan


class ParseError(Exception):
    """Raised on malformed signature source; carries a 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    """A scanned token: its kind, its text and the 1-based position of its
    first character."""

    kind: str
    text: str
    line: int
    col: int


def scan(source: str, pattern: re.Pattern) -> list[Token]:
    """Split source into tokens, the last of kind ``eof``.

    Each named group of pattern is a token kind, tried in order at every
    position; a ``skip`` group matches separators, which are dropped.  Only
    LF starts a new line.  Raises ParseError at a character that starts no
    token.
    """
    tokens = []
    match = pattern.match
    line, line_start, pos, end = 1, 0, 0, len(source)
    while pos < end:
        m = match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        text = m.group()
        if m.lastgroup != "skip":
            tokens.append(Token(m.lastgroup, text, line, pos - line_start + 1))
        if "\n" in text:
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def expected(what: str, tok: Token) -> NoReturn:
    """Raise ParseError at tok, or at anything else with a token's text,
    line and col: expected what, got its text."""
    raise ParseError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.line, tok.col)


class ValidationError(Exception):
    """Raised when a parsed signature violates a structural invariant."""


# --------------------------------------------------------------------------
# Types


class Ty:
    """Base class for types appearing in operation declarations."""

    __slots__ = ()


@record
class AtomTy(Ty):
    """A base type or ``t``, by its IDL name: one of the six constants below.
    Compare with ``==``: an unpickled or hand-built atom is another object."""

    name: str


@record
class ListTy(Ty):
    elem: Ty


@record
class OptionTy(Ty):
    elem: Ty


@record
class FunTy(Ty):
    """A function-valued argument type; only ``(int -> int)`` is accepted."""

    arg: Ty
    ret: Ty


INT = AtomTy("int")
BOOL = AtomTy("bool")
CHAR = AtomTy("char")
STR = AtomTy("string")
UNIT = AtomTy("unit")
ABSTRACT = AtomTy("t")  # the signature's single opaque type


@record
class OpDecl:
    name: str
    args: tuple[Ty, ...]
    ret: Ty


@record
class Signature:
    """A parsed signature.

    Its plan is built on first use and cached in the instance's
    ``__dict__``.  It is not a field, so equality, hashing and repr see
    only name, mutable and ops.
    """

    __slots__ = ("__dict__",)

    name: str
    mutable: bool
    ops: tuple[OpDecl, ...]

    @cached_property
    def plan(self) -> SigPlan:
        """Each op's generation and evaluation plan (see specdiff.plan)."""
        from .plan import build_plan  # deferred: plan imports modules that import this one

        return build_plan(self)


def render_ty(ty: Ty) -> str:
    if isinstance(ty, ListTy):
        return f"{render_ty(ty.elem)} list"
    if isinstance(ty, OptionTy):
        return f"{render_ty(ty.elem)} option"
    if isinstance(ty, FunTy):
        return f"({render_ty(ty.arg)} -> {render_ty(ty.ret)})"
    return ty.name


def render_signature(sig: Signature) -> str:
    """Pretty-print back to the IDL; re-parsing yields an equal Signature."""
    lines = [f"signature {sig.name}"]
    if sig.mutable:
        lines.append("mutable")
    lines.append("abstract t")
    for op in sig.ops:
        parts = [render_ty(a) for a in op.args] + [render_ty(op.ret)]
        lines.append(f"op {op.name} : {' -> '.join(parts)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Parsing

_TYPE_ATOMS = {ty.name: ty for ty in (INT, BOOL, CHAR, STR, UNIT, ABSTRACT)}

_POSTFIX = ("list", "option")

# Every pass over a type (validation, rendering, hashing, generation)
# recurses once per level, and so does parsing a parenthesis; this bound
# keeps them all far from the interpreter's recursion limit.  The parser
# holds what it reads to it, and specdiff.plan every op type.
MAX_TYPE_NESTING = 100

_DECL_KEYWORDS = {"signature", "mutable", "abstract", "op", "end"}

# The words this language gives a meaning; specdiff.plan lets no op be
# named by one, nor by one of symexpr.EXPRESSION_WORDS.
SIGNATURE_WORDS = frozenset(_DECL_KEYWORDS | _TYPE_ATOMS.keys() | set(_POSTFIX))


# Separators are space, tab, CR, LF and comments from '#' to the end of the line.
_SIGNATURE_TOKENS = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|\#[^\n]*)+)|(?P<lparen>\()|(?P<rparen>\))|(?P<colon>:)"
    r"|(?P<arrow>->)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.open_parens = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_ident(self, what: str) -> Token:
        tok = self.advance()
        if tok.kind != "ident":
            expected(what, tok)
        return tok

    def expect_keyword(self, word: str):
        tok = self.advance()
        if tok.kind != "ident" or tok.text != word:
            expected(repr(word), tok)

    def arrow_type(self, atoms: list[Ty]) -> Ty:
        """Fold an arrow chain right-associatively: a -> b -> c is a -> (b -> c)."""
        ty = atoms[-1]
        for a in reversed(atoms[:-1]):
            ty = FunTy(a, ty)
        return ty

    def bounded(self, ty: Ty, tok: Token) -> Ty:
        """ty, or ParseError at tok if it nests deeper than MAX_TYPE_NESTING."""
        if ty_depth(ty) > MAX_TYPE_NESTING:
            self.fail("type nested too deeply", tok)
        return ty

    def parse_standalone_ty(self) -> Ty:
        start = self.peek()
        atoms = self.parse_arrow_chain()
        trailing = self.peek()
        if trailing.kind != "eof":
            self.fail(f"unexpected input after type: {trailing.text!r}", trailing)
        return self.bounded(self.arrow_type(atoms), start)

    def parse_sigfile(self) -> Signature:
        self.expect_keyword("signature")
        name = self.expect_ident("signature name")
        mutable = False
        abstract_decls = 0
        ops: list[OpDecl] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("missing 'end'", tok)
            if tok.kind != "ident":
                self.fail(f"expected a declaration, got {tok.text!r}", tok)
            if tok.text == "end":
                self.advance()
                break
            if tok.text == "mutable":
                self.advance()
                mutable = True
            elif tok.text == "abstract":
                self.advance()
                self.expect_keyword("t")
                abstract_decls += 1
                if abstract_decls > 1:
                    self.fail("duplicate 'abstract t' declaration", tok)
            elif tok.text == "op":
                self.advance()
                ops.append(self.parse_op())
            else:
                self.fail(f"expected a declaration, got {tok.text!r}", tok)
        trailing = self.peek()
        if trailing.kind != "eof":
            self.fail(f"unexpected input after 'end': {trailing.text!r}", trailing)
        if abstract_decls == 0:
            raise ParseError("no 'abstract t' declaration", 1, 1)
        return Signature(name=name.text, mutable=mutable, ops=tuple(ops))

    def parse_op(self) -> OpDecl:
        name = self.expect_ident("operation name")
        tok = self.advance()
        if tok.kind != "colon":
            expected("':'", tok)
        atoms = self.parse_arrow_chain()
        return OpDecl(name=name.text, args=tuple(atoms[:-1]), ret=atoms[-1])

    def parse_arrow_chain(self) -> list[Ty]:
        atoms = [self.parse_atom()]
        while self.peek().kind == "arrow":
            self.advance()
            atoms.append(self.parse_atom())
        return atoms

    def parse_atom(self) -> Ty:
        tok = self.advance()
        if tok.kind == "lparen":
            if self.open_parens == MAX_TYPE_NESTING:
                self.fail("type nested too deeply", tok)
            self.open_parens += 1
            inner = self.parse_arrow_chain()
            close = self.advance()
            if close.kind != "rparen":
                expected("')'", close)
            self.open_parens -= 1
            ty = self.arrow_type(inner)
        elif tok.kind == "ident" and tok.text in _TYPE_ATOMS:
            ty = _TYPE_ATOMS[tok.text]
        elif tok.kind == "ident" and tok.text not in _DECL_KEYWORDS:
            self.fail(f"unknown type name {tok.text!r}", tok)
        else:
            expected("a type", tok)
        while self.peek().kind == "ident" and self.peek().text in _POSTFIX:
            ty = ListTy(ty) if self.advance().text == "list" else OptionTy(ty)
        return self.bounded(ty, tok)


def ty_depth(ty: Ty) -> int:
    """Levels of type constructors, 1 for a base type or t; found without
    recursion, so any depth is measured."""
    deepest, todo = 0, [(ty, 1)]
    while todo:
        ty, depth = todo.pop()
        if type(ty) is FunTy:
            todo += (ty.arg, depth + 1), (ty.ret, depth + 1)
        elif type(ty) is ListTy or type(ty) is OptionTy:
            todo.append((ty.elem, depth + 1))
        elif depth > deepest:
            deepest = depth
    return deepest


def parse_signature(source: str) -> Signature:
    """Parse IDL source into a Signature, or raise ParseError."""
    return _Parser(scan(source, _SIGNATURE_TOKENS)).parse_sigfile()


def parse_ty(source: str) -> Ty:
    """Parse a standalone type, e.g. ``bool`` or ``int list``."""
    return _Parser(scan(source, _SIGNATURE_TOKENS)).parse_standalone_ty()


# --------------------------------------------------------------------------
# Validation


def validate_signature(sig: Signature) -> tuple[Ty, ...]:
    """Check structural invariants; return the observable types.

    The observable types are the distinct concrete return types, in first
    occurrence order: the types at which two implementations can be
    compared.

    Raises ValidationError naming the violated invariant.  Each op is
    checked as the signature's plan is built (see specdiff.plan); the
    two rules here are about the signature as a whole.  The
    leaf-constructor requirement applies only when some op takes an
    argument of the abstract type: an op returning ``t`` without one is a
    leaf itself, and signatures whose ops never touch ``t`` (global-state
    style) have nothing to construct.
    """
    plan = sig.plan
    if any(op.subexprs for op in plan.ops.values()) and not plan.abstract.leaves:
        raise ValidationError("no leaf constructor for the abstract type")
    # the plan's targets are keyed by return type in first-occurrence order
    observable = tuple(ty for ty in plan.targets if ty != ABSTRACT)
    if not observable:
        raise ValidationError("no concrete return type")
    return observable
