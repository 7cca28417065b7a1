"""Per-op plans: what generation and evaluation need to know about each op.

Generation and evaluation visit every node of every trial, and an op's
declared types answer the same questions at each visit: which arguments
are subexpressions, how to draw the others, and which returned values are
well formed.  build_plan answers them once per signature, and
Signature.plan caches the answer, so the per-node work is a lookup.
"""

from __future__ import annotations

from typing import Callable

from .generator import Drawer, value_rules
from .record import record
from .sigdsl import ABSTRACT, AbstractTy, OpDecl, Signature, Ty
from .symexpr import Call, Value


@record
class OpPlan:
    """One op, planned."""

    name: str
    args: tuple[Ty, ...]  # the declared argument types
    ret: Ty
    subexprs: tuple[int, ...]  # positions of the abstract-typed arguments
    draws: tuple[Drawer | None, ...]  # per argument: None at a subexpression
    arg_checks: tuple[Callable[[Value], bool] | None, ...]  # per argument: None at a subexpression
    check: Callable[[Value], bool]  # does a returned value inhabit ret?
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
    return SigPlan(
        ops={op.name: op for op in planned},
        targets=targets,
        effects=tuple(targets[op.ret] for op in planned),
        abstract=targets.get(ABSTRACT, Target(ABSTRACT, (), ())),
    )


def _plan_op(op: OpDecl) -> OpPlan:
    rules = [None if isinstance(a, AbstractTy) else value_rules(a) for a in op.args]
    return OpPlan(
        name=op.name,
        args=op.args,
        ret=op.ret,
        subexprs=tuple(i for i, r in enumerate(rules) if r is None),
        draws=tuple(None if r is None else r.draw for r in rules),
        arg_checks=tuple(None if r is None else r.check for r in rules),
        check=value_rules(op.ret).check,
        node=None if op.args else Call(op.name, ()),
    )
