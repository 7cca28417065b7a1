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
    leave reset() as the default no-op.  apply returns Ok over a value of
    the op's declared return type, built from the frozen V* records (a
    VList's elements in a tuple), or Failed; anything else is a harness
    bug.
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


def outcome_equal(a: Outcome, b: Outcome, ty: Ty) -> bool:
    """Compare two outcomes observed at a concrete type.

    Outcomes and values are records, so they compare field by field: two
    Failed outcomes agree when their tags match, Ok and Failed never agree,
    and two values agree when they are of one class with equal fields.  A
    value that interp returns has passed its op's return check, so it is
    made of the type's frozen values (a VList's elements in a tuple) and
    holds no abstract handle.  Raises ContractViolation when ty is the
    abstract type.
    """
    if isinstance(ty, AbstractTy):
        raise ContractViolation("outcomes are never compared at the abstract type")
    return a == b


def outcome_to_text(o: Outcome) -> str:
    if isinstance(o, Ok):
        return f"ok {value_to_text(o.value)}"
    return f"failed {o.tag}"
