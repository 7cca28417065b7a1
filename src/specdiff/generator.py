"""Type-directed random generation of well-typed expressions.

Generation is size-bounded: every recursive step shrinks the budget, so
expressions stay finite for any signature that passes validation.  All
randomness flows through a single Rng so that a (seed, target, size)
triple pins down the generated expression exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .sigdsl import (
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
)
from .symexpr import (
    Add,
    Call,
    Const,
    Expr,
    FnAst,
    Mul,
    Seq,
    Sub,
    Value,
    Var,
    VBool,
    VChar,
    VFun,
    VInt,
    VList,
    VNone,
    VSome,
    VStr,
    VUnit,
)

_MASK64 = (1 << 64) - 1

MIN_STR_CHAR = "a"
MAX_STR_LEN = 6
MAX_LIST_LEN = 5
NONE_PROBABILITY = 0.25
MAX_FN_DEPTH = 3


@dataclass(frozen=True)
class GenConfig:
    """Knobs for a generation campaign."""

    max_size: int = 30
    seq_probability: float = 0.25
    seed: int = 0


def mix_seed(seed: int, index: int) -> int:
    """Derive a per-trial 64-bit seed from a campaign seed and trial index.

    Splitmix64 finalizer over the seed advanced by a golden-ratio stride;
    nearby (seed, index) pairs land far apart in the output space.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic random source over random.Random(seed).

    Draw for draw, int_in(lo, hi) equals randint(lo, hi), choice(xs) equals
    xs[randrange(len(xs))] and bernoulli(p) equals random() < p.  int_in and
    choice run the rejection loop over getrandbits(n.bit_length()) that
    random.Random itself uses for randrange, without its argument checks.
    """

    __slots__ = ("_getrandbits", "_random")

    def __init__(self, seed: int) -> None:
        r = random.Random(seed & _MASK64)
        self._getrandbits = r.getrandbits
        self._random = r.random

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return lo + self._below(hi - lo + 1)

    def bernoulli(self, p: float) -> bool:
        return self._random() < p

    def choice(self, items):
        """Uniform choice from a non-empty sequence."""
        return items[self._below(len(items))]

    def _below(self, n: int) -> int:
        """Uniform integer in [0, n); ValueError when n <= 0."""
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            if n <= 0:
                raise ValueError("empty range")
            r = self._getrandbits(k)
        return r


def size_schedule(index: int, cfg: GenConfig) -> int:
    """Size budget for the trial at 0-based index: cycles 0, 1, ..., max_size, 0, 1, ..."""
    return index % (cfg.max_size + 1)


def gen_fn_ast(size: int, rng: Rng, _depth: int = 1) -> FnAst:
    """Generate a unary integer function AST of depth at most MAX_FN_DEPTH."""
    if _depth < MAX_FN_DEPTH:
        kind = rng.choice(("var", "const", "add", "sub", "mul"))
    else:
        kind = rng.choice(("var", "const"))
    if kind == "var":
        return Var()
    if kind == "const":
        return Const(rng.int_in(0, max(size, 1)))
    left = gen_fn_ast(size, rng, _depth + 1)
    right = gen_fn_ast(size, rng, _depth + 1)
    if kind == "add":
        return Add(left, right)
    if kind == "sub":
        return Sub(left, right)
    return Mul(left, right)


def gen_expr(target: Ty, size: int, sig: Signature, cfg: GenConfig, rng: Rng) -> Expr:
    """Generate a well-typed expression of the target type within the budget.

    For mutable signatures a node becomes, with probability
    cfg.seq_probability, a seq whose effect arm has the return type of an
    op drawn uniformly from sig.ops, so every op, command or query, is
    equally likely to head it.

    Raises ValueError when no op of sig can produce the target type.
    """
    by_ret = sig.ops_by_ret
    leaves = sig.leaves_by_ret
    arity = sig.abstract_arity

    def gen(target: Ty, size: int) -> Expr:
        if sig.mutable and size >= 2 and rng.bernoulli(cfg.seq_probability):
            first = gen(rng.choice(sig.ops).ret, size // 2)
            second = gen(target, size // 2)
            return Seq(first, second)
        candidates = by_ret.get(target)
        if not candidates:
            raise ValueError(f"no op of {sig.name} returns {render_ty(target)}")
        if size == 0 and target in leaves:
            candidates = leaves[target]
        op = rng.choice(candidates)
        abstract_arity = arity[op.name]
        sub_size = (size - 1) // abstract_arity if abstract_arity and size > 0 else 0
        args = []
        for want in op.args:
            if isinstance(want, AbstractTy):
                args.append(gen(ABSTRACT, sub_size))
            elif isinstance(want, FunTy):
                args.append(VFun(gen_fn_ast(size, rng)))
            else:
                args.append(gen_literal(want, size, rng))
        return Call(op.name, tuple(args))

    return gen(target, size)


def gen_literal(ty: Ty, size: int, rng: Rng) -> Value:
    """Generate a literal value of a concrete first-order type."""
    if isinstance(ty, IntTy):
        return VInt(rng.int_in(0, size))
    if isinstance(ty, BoolTy):
        return VBool(rng.int_in(0, 1) == 1)
    if isinstance(ty, CharTy):
        return VChar(chr(ord(MIN_STR_CHAR) + rng.int_in(0, 25)))
    if isinstance(ty, StrTy):
        n = rng.int_in(0, min(size, MAX_STR_LEN))
        return VStr("".join(chr(ord(MIN_STR_CHAR) + rng.int_in(0, 25)) for _ in range(n)))
    if isinstance(ty, UnitTy):
        return VUnit()
    if isinstance(ty, ListTy):
        n = rng.int_in(0, min(size, MAX_LIST_LEN))
        return VList(tuple(gen_literal(ty.elem, size, rng) for _ in range(n)))
    if isinstance(ty, OptionTy):
        if rng.bernoulli(NONE_PROBABILITY):
            return VNone()
        return VSome(gen_literal(ty.elem, size, rng))
    raise ValueError(f"cannot generate a literal of type {render_ty(ty)}")
