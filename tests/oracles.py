"""Brute-force oracles, independent of the random generator.

Three tools live here:

* ``oracle_type_of``: a second, direct implementation of the typing
  judgment, for cross-checking ``symexpr.type_of``.
* ``all_terms_by_depth`` / ``exprs_by_depth``: exhaustive enumeration of
  terms up to a depth bound, the former including ill-typed ones.
* ``find_witness``: size-ordered search for the smallest expression on
  which two implementations disagree.
* ``oracle_value_matches``: the shape check as a plain isinstance chain,
  for cross-checking ``interp.value_matches``; ``oracle_type_of`` uses it
  for literal arguments.

The enumerators only cover argument types that actually occur in the
bundled signatures (int and the abstract type); anything else raises.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from specdiff.interp import (
    HarnessBug,
    Implementation,
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
    interp,
    outcome_equal,
)
from specdiff.sigdsl import (
    ABSTRACT,
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
    validate_signature,
)
from specdiff.symexpr import (
    Arg,
    Call,
    Expr,
    ExprArg,
    FnArg,
    LitArg,
    Seq,
    Var,
)


def oracle_value_matches(v, ty: Ty) -> bool:
    """Does the runtime value inhabit the type?"""
    if isinstance(ty, IntTy):
        return isinstance(v, VInt)
    if isinstance(ty, BoolTy):
        return isinstance(v, VBool)
    if isinstance(ty, CharTy):
        return isinstance(v, VChar) and len(v.value) == 1
    if isinstance(ty, StrTy):
        return isinstance(v, VStr)
    if isinstance(ty, UnitTy):
        return isinstance(v, VUnit)
    if isinstance(ty, AbstractTy):
        return isinstance(v, VAbstract)
    if isinstance(ty, FunTy):
        return isinstance(v, VFun)
    if isinstance(ty, ListTy):
        return isinstance(v, VList) and all(oracle_value_matches(x, ty.elem) for x in v.elems)
    if isinstance(ty, OptionTy):
        if isinstance(v, VNone):
            return True
        return isinstance(v, VSome) and oracle_value_matches(v.value, ty.elem)
    return False


def oracle_type_of(e: Expr, sig: Signature) -> Ty | None:
    """The type of ``e``, or None when it is ill-typed.

    Deliberately re-derived from the declared signature rather than
    shared with ``symexpr.type_of``.
    """
    ops = {o.name: o for o in sig.ops}

    def check(e: Expr) -> Ty | None:
        if isinstance(e, Seq):
            if not sig.mutable:
                return None
            if check(e.first) is None:
                return None
            return check(e.second)
        decl = ops.get(e.op)
        if decl is None or len(e.args) != len(decl.args):
            return None
        for arg, want in zip(e.args, decl.args):
            if isinstance(want, AbstractTy):
                ok = isinstance(arg, ExprArg) and isinstance(
                    check(arg.expr), AbstractTy
                )
            elif isinstance(want, FunTy):
                ok = isinstance(arg, FnArg)
            else:
                ok = isinstance(arg, LitArg) and oracle_value_matches(arg.value, want)
            if not ok:
                return None
        return decl.ret
    return check(e)


def all_terms_by_depth(sig: Signature, max_depth: int) -> list[Expr]:
    """Every Call term of depth <= max_depth, ill-typed ones included.

    Argument slots are filled from a small fixed universe of literals
    plus the identity function and any shallower term, so wrong-kind
    and wrong-type arguments both appear.
    """
    seeds: list[Arg] = [
        LitArg(VInt(0)),
        LitArg(VInt(1)),
        LitArg(VBool(True)),
        LitArg(VUnit()),
        FnArg(Var()),
    ]
    layer: list[Expr] = []
    terms: list[Expr] = []
    for _ in range(max_depth):
        universe = seeds + [ExprArg(t) for t in layer]
        layer = [
            Call(op.name, tuple(combo))
            for op in sig.ops
            for combo in product(universe, repeat=len(op.args))
        ]
        terms.extend(layer)
    return terms


def exprs_by_depth(
    sig: Signature, target: Ty, max_depth: int, int_pool: Iterable[int]
) -> list[Expr]:
    """All well-typed exprs of ``target`` type with depth <= max_depth.

    Int argument slots range over ``int_pool``; mutable signatures also
    get Seq nodes.  Other concrete argument types are not supported.
    """
    pool = tuple(int_pool)
    rets = list(dict.fromkeys(op.ret for op in sig.ops))
    memo: dict[tuple[Ty, int], list[Expr]] = {}

    def args_for(want: Ty, d: int) -> list[Arg]:
        if isinstance(want, IntTy):
            return [LitArg(VInt(k)) for k in pool]
        if isinstance(want, AbstractTy):
            return [ExprArg(t) for t in of(ABSTRACT, d)]
        raise NotImplementedError(f"no argument pool for {want}")

    def of(ty: Ty, d: int) -> list[Expr]:
        if d <= 0:
            return []
        if (ty, d) in memo:
            return memo[ty, d]
        out: list[Expr] = []
        for op in sig.ops:
            if op.ret != ty:
                continue
            slots = [args_for(want, d - 1) for want in op.args]
            out.extend(Call(op.name, tuple(combo)) for combo in product(*slots))
        if sig.mutable and d >= 2:
            for first_ty in rets:
                for first in of(first_ty, d - 1):
                    out.extend(Seq(first, second) for second in of(ty, d - 1))
        memo[ty, d] = out
        return out

    return of(target, max_depth)


def _exprs_exact(
    sig: Signature,
    ty: Ty,
    size: int,
    pool: tuple[int, ...],
    memo: dict[tuple[Ty, int], list[Expr]],
) -> list[Expr]:
    """All well-typed exprs of ``ty`` with exactly ``size`` Call/Seq nodes."""
    if size <= 0:
        return []
    if (ty, size) in memo:
        return memo[ty, size]
    out: list[Expr] = []
    rets = list(dict.fromkeys(op.ret for op in sig.ops))
    for op in sig.ops:
        if op.ret != ty:
            continue
        subs = [i for i, want in enumerate(op.args) if isinstance(want, AbstractTy)]
        lit_slots = [
            [LitArg(VInt(k)) for k in pool]
            for want in op.args
            if isinstance(want, IntTy)
        ]
        if len(lit_slots) + len(subs) != len(op.args):
            raise NotImplementedError(f"no argument pool for {op.name}")
        budget = size - 1
        for split in _compositions(budget, len(subs)):
            sub_choices = [
                [ExprArg(t) for t in _exprs_exact(sig, ABSTRACT, s, pool, memo)]
                for s in split
            ]
            for sub_combo in product(*sub_choices):
                for lits in product(*lit_slots):
                    sub_iter, lit_iter = iter(sub_combo), iter(lits)
                    args = tuple(
                        next(sub_iter) if isinstance(want, AbstractTy)
                        else next(lit_iter)
                        for want in op.args
                    )
                    out.append(Call(op.name, args))
    if sig.mutable and size >= 3:
        for s1 in range(1, size - 1):
            s2 = size - 1 - s1
            for first_ty in rets:
                for first in _exprs_exact(sig, first_ty, s1, pool, memo):
                    out.extend(
                        Seq(first, second)
                        for second in _exprs_exact(sig, ty, s2, pool, memo)
                    )
    memo[ty, size] = out
    return out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positives."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def find_witness(
    sig: Signature,
    ref: Implementation,
    alt: Implementation,
    int_pool: Iterable[int],
    max_size: int = 8,
) -> Expr | None:
    """Smallest expr (by node count) where ``ref`` and ``alt`` disagree.

    Enumerates observable-typed exprs in increasing size and stops at
    the first disagreement; a HarnessBug from either side also counts.
    """
    pool = tuple(int_pool)
    observables = validate_signature(sig).observable_types
    memo: dict[tuple[Ty, int], list[Expr]] = {}
    for size in range(1, max_size + 1):
        for ty in observables:
            for e in _exprs_exact(sig, ty, size, pool, memo):
                ref.reset()
                alt.reset()
                try:
                    same = outcome_equal(interp(e, ref, sig), interp(e, alt, sig), ty)
                except HarnessBug:
                    same = False
                if not same:
                    return e
    return None
