"""Per-op plans: what generation and evaluation need to know about each op.

Generation and evaluation visit every node of every trial, and an op's
declared types answer the same questions at each visit: which arguments
are subexpressions, how to draw the others, and which returned values are
well formed.  build_plan answers them once per signature, and
Signature.plan caches the answer, so the per-node work is a lookup.

Building the plan is also where each op is checked: an argument or
return type that generator.value_rules has no rules for, a function
return type, or a name no implementation's method can have (a Python
keyword, a __name, which a class body mangles, or an attribute of
Implementation, such as reset) raises ValidationError naming the op.
"""

from __future__ import annotations

import keyword
from typing import Callable

from .generator import Drawer, value_rules
from .interp import Implementation
from .record import record
from .sigdsl import ABSTRACT, FunTy, OpDecl, Signature, Ty, ValidationError
from .symexpr import Call, Expr, Value


@record
class OpPlan:
    """One op, planned."""

    name: str
    args: tuple[Ty, ...]  # the declared argument types
    ret: Ty
    subexprs: tuple[int, ...]  # positions of the abstract-typed arguments
    draws: tuple[Drawer | None, ...]  # per argument: None at a subexpression
    arg_checks: tuple[Callable[[Value], bool] | None, ...]  # per argument: None at a subexpression
    check: Callable[[Value], bool]  # does a returned value inhabit ret?  Any handle does at t
    node: Call | None  # the op's only expression, when it takes no arguments


@record
class Target:
    """The ops that return one type, as generation chooses among them."""

    ty: Ty
    ops: tuple[OpPlan, ...]  # in declaration order
    leaves: tuple[OpPlan, ...]  # those with no subexpression; chosen from at size 0


@record
class SigPlan:
    """Every op of a signature, planned."""

    ops: dict[str, OpPlan]  # by name
    targets: dict[Ty, Target]  # by return type
    effects: tuple[Target, ...]  # each op's return type's target, in declaration order
    abstract: Target  # the abstract type's; empty when no op returns it
    abstract_leaf: Expr | None  # the cheapest call producing an abstract value, if any


def build_plan(sig: Signature) -> SigPlan:
    """Plan every op of sig.  Signature.plan caches the result."""
    planned = [_plan_op(op) for op in sig.ops]
    by_ret: dict[Ty, list[OpPlan]] = {}
    for op in planned:
        by_ret.setdefault(op.ret, []).append(op)
    targets = {
        ret: Target(ret, tuple(ops), tuple(op for op in ops if not op.subexprs))
        for ret, ops in by_ret.items()
    }
    abstract = targets.get(ABSTRACT, Target(ABSTRACT, (), ()))
    # the first leaf with fewest arguments; it takes no t, so each argument has a least value
    best = min(abstract.leaves, key=lambda op: len(op.args), default=None)
    return SigPlan(
        ops={op.name: op for op in planned},
        targets=targets,
        effects=tuple(targets[op.ret] for op in planned),
        abstract=abstract,
        abstract_leaf=best and Call(best.name, tuple(value_rules(a).least for a in best.args)),
    )


def _plan_op(op: OpDecl) -> OpPlan:
    try:  # the name, the argument types, then the return type
        if keyword.iskeyword(op.name) or op.name[:2] == "__" or hasattr(Implementation, op.name):
            raise ValidationError("cannot be the name of an implementation's method")
        rules = [None if a == ABSTRACT else value_rules(a) for a in op.args]
        if type(op.ret) is FunTy:
            raise ValidationError("function type in return position")
        check = (lambda v: True) if op.ret == ABSTRACT else value_rules(op.ret).check
    except ValidationError as exc:
        raise ValidationError(f"op {op.name!r}: {exc}") from None
    return OpPlan(
        name=op.name,
        args=op.args,
        ret=op.ret,
        subexprs=tuple(i for i, r in enumerate(rules) if r is None),
        draws=tuple(None if r is None else r.draw for r in rules),
        arg_checks=tuple(None if r is None else r.check for r in rules),
        check=check,
        node=None if op.args else Call(op.name, ()),
    )
