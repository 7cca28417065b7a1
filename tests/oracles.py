"""Brute-force oracles, independent of the random generator.

Five tools live here:

* ``oracle_type_of``: a second, direct implementation of the typing
  judgment, for cross-checking ``symexpr.type_of``.
* ``all_terms_by_depth`` / ``exprs_by_depth``: exhaustive enumeration of
  terms up to a depth bound, the former including ill-typed ones.
* ``find_witness``: size-ordered search for the smallest expression on
  which two implementations disagree.
* ``oracle_value_matches``: the shape check as a plain isinstance chain,
  for cross-checking ``interp.value_matches``; ``oracle_type_of`` uses it
  for every argument that is not a subexpression.
* ``oracle_shrink``: the greedy shrinker written plainly, with its own
  copies of the candidate rules: it evaluates every candidate it meets,
  repeats included, and types every node with ``type_of``.
  ``harness.shrink`` must evaluate the same candidates in the same
  order, each once, and return the same expression.

The enumerators only cover argument types that actually occur in the
bundled signatures (int and the abstract type); anything else raises.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from specdiff.interp import (
    ContractViolation,
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
    render_ty,
    validate_signature,
)
from specdiff.symexpr import (
    Call,
    Const,
    Expr,
    Seq,
    Value,
    Var,
    size_of,
    type_of,
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
                ok = isinstance(arg, (Call, Seq)) and isinstance(check(arg), AbstractTy)
            else:
                ok = oracle_value_matches(arg, want)
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
    seeds: list = [VInt(0), VInt(1), VBool(True), VUnit(), VFun(Var())]
    layer: list[Expr] = []
    terms: list[Expr] = []
    for _ in range(max_depth):
        universe = seeds + layer
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

    def args_for(want: Ty, d: int) -> list:
        if isinstance(want, IntTy):
            return [VInt(k) for k in pool]
        if isinstance(want, AbstractTy):
            return of(ABSTRACT, d)
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
        lit_slots = [[VInt(k) for k in pool] for want in op.args if isinstance(want, IntTy)]
        if len(lit_slots) + len(subs) != len(op.args):
            raise NotImplementedError(f"no argument pool for {op.name}")
        budget = size - 1
        for split in _compositions(budget, len(subs)):
            sub_choices = [_exprs_exact(sig, ABSTRACT, s, pool, memo) for s in split]
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


def oracle_shrink(
    e: Expr,
    ty: Ty,
    sig: Signature,
    impl_a: Implementation,
    impl_b: Implementation,
    max_steps: int = 1000,
) -> Expr:
    """Greedy first-improvement shrinking to a fixpoint.

    Candidate order per round: same-typed descendants (smallest first),
    seq-arm drops, abstract subtrees collapsed to the minimal leaf call,
    integer literals toward zero, function arguments toward Var/Const 0.
    A candidate is accepted only if the outcomes still differ; both
    implementations are reset before every candidate evaluation.
    """
    leaf = _minimal_abstract_leaf(sig)

    def still_fails(candidate: Expr) -> bool:
        impl_a.reset()
        impl_b.reset()
        try:
            out_a = interp(candidate, impl_a, sig)
            out_b = interp(candidate, impl_b, sig)
            return not outcome_equal(out_a, out_b, ty)
        except (HarnessBug, ContractViolation):
            return False

    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _shrink_candidates(e, ty, sig, leaf):
            if still_fails(candidate):
                e = candidate
                steps += 1
                improved = True
                break
    return e


def _shrink_candidates(e: Expr, ty: Ty, sig: Signature, leaf: Expr | None):
    same_typed = [d for d in _descendants(e) if type_of(d, sig) == ty]
    same_typed.sort(key=size_of)
    yield from same_typed

    def seq_rule(node: Expr):
        if isinstance(node, Seq):
            yield node.second
            if type_of(node.first, sig) == type_of(node.second, sig):
                yield node.first

    yield from _rewrite_one(e, seq_rule)

    if leaf is not None:

        def leaf_rule(node: Expr):
            if node != leaf and isinstance(type_of(node, sig), AbstractTy):
                yield leaf

        yield from _rewrite_one(e, leaf_rule)

    yield from _rewrite_one(e, _int_rule)
    yield from _rewrite_one(e, _fn_rule)


def _descendants(e: Expr) -> list[Expr]:
    """Strict descendants in preorder, through seq arms and subexpr args."""
    out: list[Expr] = []

    def walk(node: Expr) -> None:
        out.append(node)
        if isinstance(node, Seq):
            walk(node.first)
            walk(node.second)
        else:
            for a in node.args:
                if isinstance(a, (Call, Seq)):
                    walk(a)

    if isinstance(e, Seq):
        walk(e.first)
        walk(e.second)
    else:
        for a in e.args:
            if isinstance(a, (Call, Seq)):
                walk(a)
    return out


def _rewrite_one(e: Expr, rule):
    """Candidates with `rule` applied at exactly one node of e."""
    yield from rule(e)
    if isinstance(e, Seq):
        for c in _rewrite_one(e.first, rule):
            yield Seq(c, e.second)
        for c in _rewrite_one(e.second, rule):
            yield Seq(e.first, c)
    else:
        for i, a in enumerate(e.args):
            if isinstance(a, (Call, Seq)):
                for c in _rewrite_one(a, rule):
                    args = list(e.args)
                    args[i] = c
                    yield Call(e.op, tuple(args))


def _int_rule(node: Expr):
    if isinstance(node, Seq):
        return
    for i, a in enumerate(node.args):
        if isinstance(a, (Call, Seq, VFun)):
            continue
        for lit in _int_variants(a):
            args = list(node.args)
            args[i] = lit
            yield Call(node.op, tuple(args))


def _int_variants(v: Value):
    """One integer inside the literal value moved toward zero."""
    if isinstance(v, VInt):
        k = v.value
        half = k // 2 if k >= 0 else -((-k) // 2)
        for smaller in (0, half):
            if smaller != k:
                yield VInt(smaller)
    elif isinstance(v, VSome):
        for x in _int_variants(v.value):
            yield VSome(x)
    elif isinstance(v, VList):
        for i, x in enumerate(v.elems):
            for y in _int_variants(x):
                elems = list(v.elems)
                elems[i] = y
                yield VList(tuple(elems))


def _fn_rule(node: Expr):
    if isinstance(node, Seq):
        return
    for i, a in enumerate(node.args):
        if not isinstance(a, VFun):
            continue
        replacements = []
        if a.fn != Var():
            replacements.append(Var())
        if a.fn not in (Var(), Const(0)):
            replacements.append(Const(0))
        for fn in replacements:
            args = list(node.args)
            args[i] = VFun(fn)
            yield Call(node.op, tuple(args))


def _minimal_abstract_leaf(sig: Signature) -> Expr | None:
    """The cheapest call producing an abstract value, if the type is used."""
    leaves = sig.leaves_by_ret.get(ABSTRACT)
    if not leaves:
        return None
    # leaves are in declaration order and min keeps the first of equal keys
    best = min(leaves, key=lambda op: len(op.args))
    return Call(best.name, tuple(_minimal_literal(a) for a in best.args))


_MINIMAL_LITERALS = {
    IntTy: VInt(0),
    BoolTy: VBool(False),
    CharTy: VChar("a"),
    StrTy: VStr(""),
    UnitTy: VUnit(),
    ListTy: VList(()),
    OptionTy: VNone(),
    FunTy: VFun(Var()),
}


def _minimal_literal(ty: Ty) -> Value:
    v = _MINIMAL_LITERALS.get(type(ty))
    if v is None:
        raise ValueError(f"no minimal literal at {render_ty(ty)}")
    return v
