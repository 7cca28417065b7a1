"""Evaluation of expressions against an implementation, and outcome comparison.

An implementation maps op names to behavior over runtime values.  The
interpreter owns evaluation order (arguments strictly left to right) and
failure propagation, so every implementation sees the same call sequence
for the same expression.  Outcomes are compared only at concrete types;
abstract values never cross the comparison boundary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
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
    Signature,
    StrTy,
    Ty,
    UnitTy,
    render_ty,
)
from .symexpr import (
    Call,
    Expr,
    ExprArg,
    FnArg,
    FnAst,
    LBool,
    LChar,
    LInt,
    LitArg,
    Literal,
    LList,
    LNone,
    LSome,
    LStr,
    LUnit,
    Seq,
    eval_fn,
)


class HarnessBug(Exception):
    """An implementation broke its contract; distinct from a test failure."""


class ContractViolation(Exception):
    """A comparison touched a type it is not defined at."""


@dataclass(frozen=True)
class VInt:
    value: int


@dataclass(frozen=True)
class VBool:
    value: bool


@dataclass(frozen=True)
class VChar:
    value: str


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


@dataclass(frozen=True)
class Ok:
    value: Value


@dataclass(frozen=True)
class Failed:
    """A domain error surfaced by an implementation, named by a stable tag."""

    tag: str


Outcome = Ok | Failed


class Implementation(ABC):
    """One side of a differential test.

    Mutable implementations keep per-instance state and honor reset();
    purely functional ones thread state through VAbstract handles and may
    leave reset() as the default no-op.
    """

    name: str = "?"

    def reset(self) -> None:
        return None

    @abstractmethod
    def apply(self, op: str, args: list[Value]) -> Outcome:
        """Run one op on already-evaluated arguments."""


def literal_to_value(lit: Literal) -> Value:
    if isinstance(lit, LInt):
        return VInt(lit.value)
    if isinstance(lit, LBool):
        return VBool(lit.value)
    if isinstance(lit, LChar):
        return VChar(lit.value)
    if isinstance(lit, LStr):
        return VStr(lit.value)
    if isinstance(lit, LUnit):
        return VUnit()
    if isinstance(lit, LList):
        return VList(tuple(literal_to_value(x) for x in lit.elems))
    if isinstance(lit, LNone):
        return VNone()
    if isinstance(lit, LSome):
        return VSome(literal_to_value(lit.value))
    raise TypeError(f"not a literal: {lit!r}")


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


def interp(e: Expr, impl: Implementation, sig: Signature) -> Outcome:
    """Evaluate an expression against one implementation.

    Requires e to be well-typed under sig.  Failed outcomes short-circuit:
    a failing argument or first seq arm becomes the whole result.  A result
    whose shape contradicts the op's declared return type raises HarnessBug.
    """
    if type(e) is Seq:
        first = interp(e.first, impl, sig)
        if isinstance(first, Failed):
            return first
        return interp(e.second, impl, sig)
    decl = sig.op_by_name[e.op]
    values: list[Value] = []
    for arg in e.args:
        kind = type(arg)
        if kind is ExprArg:
            out = interp(arg.expr, impl, sig)
            if isinstance(out, Failed):
                return out
            values.append(out.value)
        elif kind is LitArg:
            values.append(literal_to_value(arg.value))
        else:
            values.append(VFun(arg.fn))
    out = impl.apply(e.op, values)
    if isinstance(out, Ok):
        if not value_matches(out.value, decl.ret):
            raise HarnessBug(
                f"{impl.name}: op {e.op!r} returned a value outside "
                f"{render_ty(decl.ret)}"
            )
    elif not isinstance(out, Failed):
        raise HarnessBug(f"{impl.name}: op {e.op!r} returned a non-outcome")
    return out


def value_equal(a: Value, b: Value) -> bool:
    """Structural equality over concrete values.

    Raises ContractViolation on abstract or function values: neither has
    observable structure to compare.
    """
    if isinstance(a, VAbstract) or isinstance(b, VAbstract):
        raise ContractViolation("abstract values cannot be compared")
    if isinstance(a, VFun) or isinstance(b, VFun):
        raise ContractViolation("function values cannot be compared")
    if type(a) is not type(b):
        return False
    if isinstance(a, (VInt, VBool, VChar, VStr)):
        return a.value == b.value
    if isinstance(a, (VUnit, VNone)):
        return True
    if isinstance(a, VSome):
        return value_equal(a.value, b.value)
    if isinstance(a, VList):
        if len(a.elems) != len(b.elems):
            return False
        return all(value_equal(x, y) for x, y in zip(a.elems, b.elems))
    raise ContractViolation(f"cannot compare {type(a).__name__}")


def outcome_equal(a: Outcome, b: Outcome, ty: Ty) -> bool:
    """Compare two outcomes observed at a concrete type.

    Two Failed outcomes agree when their tags match; Ok and Failed never
    agree.  Raises ContractViolation when ty is the abstract type.
    """
    if isinstance(ty, AbstractTy):
        raise ContractViolation("outcomes are never compared at the abstract type")
    if isinstance(a, Failed) or isinstance(b, Failed):
        return isinstance(a, Failed) and isinstance(b, Failed) and a.tag == b.tag
    return value_equal(a.value, b.value)


def value_to_text(v: Value) -> str:
    """Readable one-line rendering; mirrors literal syntax where one exists."""
    if isinstance(v, VInt):
        return str(v.value)
    if isinstance(v, VBool):
        return "true" if v.value else "false"
    if isinstance(v, VChar):
        return f"'{v.value}'"
    if isinstance(v, VStr):
        escaped = v.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, VUnit):
        return "unit"
    if isinstance(v, VNone):
        return "none"
    if isinstance(v, VSome):
        return f"(some {value_to_text(v.value)})"
    if isinstance(v, VList):
        if not v.elems:
            return "(list)"
        return "(list " + " ".join(value_to_text(x) for x in v.elems) + ")"
    if isinstance(v, VFun):
        return "<fun>"
    return "<abstract>"


def outcome_to_text(o: Outcome) -> str:
    if isinstance(o, Ok):
        return f"ok {value_to_text(o.value)}"
    return f"failed {o.tag}"
