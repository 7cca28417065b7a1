"""Evaluation of expressions against an implementation, and outcome comparison.

An implementation maps op names to behavior over runtime values.  The
interpreter owns evaluation order (arguments strictly left to right) and
failure propagation, so every implementation sees the same call sequence
for the same expression.  Outcomes are compared only at concrete types;
abstract values never cross the comparison boundary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from .record import record
from .sigdsl import AbstractTy, Signature, Ty, render_ty

# The value classes live in symexpr, below this module; implementations
# import them from here.
from .symexpr import (
    Expr,
    Seq,
    Value,
    VAbstract,
    VBool,
    VChar,
    VFun,
    VInt,
    VList,
    VNone,
    VSome,
    VStr,
    VUnit,
    value_to_text,
)

if TYPE_CHECKING:
    from .plan import OpPlan


class HarnessBug(Exception):
    """An implementation broke its contract; distinct from a test failure."""


class ContractViolation(Exception):
    """A comparison touched a type it is not defined at."""


@record
class Ok:
    value: Value


@record
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


def interp(e: Expr, impl: Implementation, sig: Signature) -> Outcome:
    """Evaluate an expression against one implementation.

    Requires e to be well-typed under sig.  Failed outcomes short-circuit:
    a failing argument or first seq arm becomes the whole result.  An
    exception raised by impl.apply, or a result whose shape contradicts the
    op's declared return type, raises HarnessBug.
    """
    return _eval(e, impl, sig.plan.ops)


def _eval(e: Expr, impl: Implementation, plans: dict[str, OpPlan]) -> Outcome:
    if type(e) is Seq:
        first = _eval(e.first, impl, plans)
        if isinstance(first, Failed):
            return first
        return _eval(e.second, impl, plans)
    op = e.op
    plan = plans[op]
    values = list(e.args)
    for i in plan.subexprs:
        out = _eval(values[i], impl, plans)
        if isinstance(out, Failed):
            return out
        values[i] = out.value
    try:
        out = impl.apply(op, values)
    except Exception as exc:
        raise HarnessBug(
            f"{impl.name}: op {op!r} raised {type(exc).__name__}: {exc}"
        ) from exc
    if isinstance(out, Ok):
        if not plan.check(out.value):
            raise HarnessBug(
                f"{impl.name}: op {op!r} returned a value outside {render_ty(plan.ret)}"
            )
    elif not isinstance(out, Failed):
        raise HarnessBug(f"{impl.name}: op {op!r} returned a non-outcome")
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


def outcome_to_text(o: Outcome) -> str:
    if isinstance(o, Ok):
        return f"ok {value_to_text(o.value)}"
    return f"failed {o.tag}"
