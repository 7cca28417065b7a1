"""Per-op plans: what generation and evaluation need to know about each op.

Generation and evaluation visit every node of every trial, and an op's
declared types answer the same questions at each visit: which arguments
are subexpressions, how to draw the others, and which returned values are
well formed.  build_plan answers them once per signature, and
Signature.plan caches the answer, so the per-node work is a lookup.
"""

from __future__ import annotations

from typing import Callable

from .generator import Drawer, arg_drawer
from .record import record
from .sigdsl import ABSTRACT, AbstractTy, OpDecl, Signature, Ty
from .symexpr import Call, Value, value_check


@record
class OpPlan:
    """One op, planned."""

    name: str
    ret: Ty
    subexprs: tuple[int, ...]  # positions of the abstract-typed arguments
    draws: tuple[Drawer | None, ...]  # per argument: None at a subexpression
    check: Callable[[Value], bool]  # does a returned value inhabit ret?
    node: Call | None  # the op's only expression, when it takes no arguments


@record
class Target:
    """The ops that return one type, as generation chooses among them."""

    ty: Ty
    ops: tuple[OpPlan, ...]  # in declaration order
    leaves: tuple[OpPlan, ...]  # the leaf ops among them; chosen from at size 0


@record
class SigPlan:
    """Every op of a signature, planned."""

    ops: dict[str, OpPlan]  # by name
    targets: dict[Ty, Target]  # by return type
    effects: tuple[Target, ...]  # each op's return type's target, in declaration order
    abstract: Target  # the abstract type's; empty when no op returns it


def build_plan(sig: Signature) -> SigPlan:
    """Plan every op of sig.  Signature.plan caches the result."""
    planned = {op: _plan_op(op) for op in sig.ops}
    leaves = sig.leaves_by_ret
    targets = {
        ret: Target(
            ret,
            tuple(map(planned.__getitem__, group)),
            tuple(map(planned.__getitem__, leaves.get(ret, ()))),
        )
        for ret, group in sig.ops_by_ret.items()
    }
    return SigPlan(
        ops={op.name: planned[op] for op in sig.ops},
        targets=targets,
        effects=tuple(targets[op.ret] for op in sig.ops),
        abstract=targets.get(ABSTRACT, Target(ABSTRACT, (), ())),
    )


def _plan_op(op: OpDecl) -> OpPlan:
    abstract = [isinstance(a, AbstractTy) for a in op.args]
    return OpPlan(
        name=op.name,
        ret=op.ret,
        subexprs=tuple(i for i, sub in enumerate(abstract) if sub),
        draws=tuple(None if sub else arg_drawer(a) for a, sub in zip(op.args, abstract)),
        check=value_check(op.ret),
        node=None if op.args else Call(op.name, ()),
    )
