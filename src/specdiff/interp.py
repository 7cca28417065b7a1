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
from .sigdsl import ABSTRACT, Signature, Ty, render_ty

# The value records live in symexpr, below this module; implementations
# import them from here.
from .symexpr import Expr, Seq, Value, VAbstract, VChar, VNone, VSome, value_to_text

if TYPE_CHECKING:
    from .plan import OpPlan


class HarnessBug(Exception):
    """An implementation broke its contract; distinct from a test failure."""


class ContractViolation(Exception):
    """A comparison touched a type it is not defined at."""


@record
class Failed:
    """A domain error surfaced by an implementation, named by a stable tag."""

    tag: str


Outcome = Value | Failed


class Implementation(ABC):
    """One side of a differential test.

    apply returns a value of the op's declared return type, or a Failed;
    anything else is a harness bug.  Arguments and results are the same
    values: at int, bool, string, unit and list types the Python value
    itself (an int, a bool, a str, None, a tuple of elements), a VChar at
    char, a VNone or VSome at an option type, and a VAbstract at t.  A
    function argument arrives as its FnAst, callable on an int.  Mutable
    implementations keep per-instance state and honor reset(); purely
    functional ones thread state through VAbstract handles and may leave
    reset() as the default no-op.
    """

    name: str = "?"

    def reset(self) -> None:
        return None

    @abstractmethod
    def apply(self, op: str, args: list[Value]) -> Outcome:
        """Run one op on already-evaluated arguments."""


def interp(e: Expr, impl: Implementation, sig: Signature) -> Outcome:
    """Evaluate an expression against one implementation.

    Requires e to be well-typed under sig.  Returns e's value, or the
    first Failed: a failing argument or first seq arm is the whole result.
    An exception raised by impl.apply, or a result that is neither a
    Failed nor a value of the op's return type, raises HarnessBug.
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
        values[i] = out
    try:
        out = impl.apply(op, values)
    except Exception as exc:
        raise HarnessBug(
            f"{impl.name}: op {op!r} raised {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(out, Failed) and not plan.check(out):
        raise HarnessBug(
            f"{impl.name}: op {op!r} returned a value outside {render_ty(plan.ret)}"
        )
    return out


def outcome_equal(a: Outcome, b: Outcome, ty: Ty) -> bool:
    """Compare two outcomes observed at a concrete type.

    Outcomes compare with ==: two Failed outcomes agree when their tags
    match, a value and a Failed never agree, and two values agree when
    they are equal.  A value that interp returns has passed its op's
    return check at ty, so both values are made of ty's exact Python types
    (an int is never a bool, a list is a tuple) and hold no abstract
    handle, and == between them is exact.  Raises ContractViolation when ty
    is the abstract type.
    """
    if ty == ABSTRACT:
        raise ContractViolation("outcomes are never compared at the abstract type")
    return a == b


def outcome_to_text(o: Outcome) -> str:
    if isinstance(o, Failed):
        return f"failed {o.tag}"
    return f"ok {value_to_text(o)}"
