"""Type-directed random generation of well-typed expressions.

Generation is size-bounded: every recursive step shrinks the budget, so
expressions stay finite for any signature that passes validation.  All
randomness flows through a single Rng so that a (seed, target, size)
triple pins down the generated expression exactly.
"""

from __future__ import annotations

import _random
from typing import TYPE_CHECKING, Any, Callable

from .record import record
from .sigdsl import (
    ABSTRACT,
    BOOL,
    CHAR,
    INT,
    STR,
    UNIT,
    FunTy,
    ListTy,
    OptionTy,
    Signature,
    Ty,
    ValidationError,
    render_ty,
)
from .symexpr import (
    _BIN_OPS,
    BinOp,
    Call,
    Const,
    Expr,
    FnAst,
    Seq,
    Value,
    Var,
    VAbstract,
    VBool,
    VChar,
    VInt,
    VList,
    VNone,
    VSome,
    VStr,
    VUnit,
)

if TYPE_CHECKING:
    from .plan import Target

_MASK64 = (1 << 64) - 1

MIN_STR_CHAR = "a"
MAX_STR_LEN = 6
MAX_LIST_LEN = 5
NONE_PROBABILITY = 0.25
# A top-level int argument repeats an int drawn earlier in its trial with
# this probability, so keys collide far more often than uniform draws do.
INT_REUSE_PROBABILITY = 0.5
# A fresh top-level int argument is its call's whole size budget with this
# probability, so ints large enough to add up past a bound turn up more often.
INT_TOP_PROBABILITY = 0.25
MAX_FN_DEPTH = 3


@record
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
    """Deterministic random source over a Mersenne Twister seeded with seed.

    Draw for draw, int_in(lo, hi) equals randint(lo, hi), choice(xs) equals
    xs[randrange(len(xs))] and bernoulli(p) equals random() < p.  int_in and
    choice run the rejection loop over getrandbits(n.bit_length()) that
    random.Random itself uses for randrange, without its argument checks.
    """

    __slots__ = ("_getrandbits", "_random")

    def __init__(self, seed: int) -> None:
        # random.Random's C base class: the same seeding and the same stream,
        # without the Python-level seed() that random.Random adds.
        r = _random.Random(seed & _MASK64)
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


# draw(size, rng): a value for an argument position, drawn within the budget
Drawer = Callable[[int, Rng], Value]


def size_schedule(index: int, cfg: GenConfig) -> int:
    """Size budget for the trial at 0-based index: cycles 0, 1, ..., max_size, 0, 1, ..."""
    return index % (cfg.max_size + 1)


_FN_LEAF_KINDS = ("var", "const")
_FN_KINDS = (*_FN_LEAF_KINDS, *_BIN_OPS)


def gen_fn_ast(size: int, rng: Rng, _depth: int = 1) -> FnAst:
    """Generate a unary integer function AST of depth at most MAX_FN_DEPTH."""
    if _depth < MAX_FN_DEPTH:
        kind = rng.choice(_FN_KINDS)
    else:
        kind = rng.choice(_FN_LEAF_KINDS)
    if kind == "var":
        return Var()
    if kind == "const":
        return Const(rng.int_in(0, max(size, 1)))
    return BinOp(kind, gen_fn_ast(size, rng, _depth + 1), gen_fn_ast(size, rng, _depth + 1))


def gen_expr(target: Ty, size: int, sig: Signature, cfg: GenConfig, rng: Rng) -> Expr:
    """Generate a well-typed expression of the target type within the budget.

    For mutable signatures a node becomes, with probability
    cfg.seq_probability, a seq whose effect arm has the return type of an
    op drawn uniformly from sig.ops, so every op, command or query, is
    equally likely to head it.  Each op's arguments are drawn as its plan
    says (see specdiff.plan), except for int arguments.  Once an int
    argument has been drawn, an int argument is with probability
    INT_REUSE_PROBABILITY one of the ints freshly drawn so far, chosen
    uniformly.  Otherwise it is fresh: size itself with probability
    INT_TOP_PROBABILITY, else uniform in [0, size].  In draw order: the
    reuse coin (only once an int has been drawn), the pick among the drawn
    ints, or the top coin and then, unless it came up, the uniform draw.

    Raises ValueError when no op of sig can produce the target type.
    """
    plan = sig.plan
    start = plan.targets.get(target)
    if start is None:
        raise ValueError(f"no op of {sig.name} returns {render_ty(target)}")
    abstract = plan.abstract
    effects = plan.effects
    mutable = sig.mutable
    seq_probability = cfg.seq_probability
    random = rng._random
    getrandbits = rng._getrandbits
    below = rng._below
    drawn: list[VInt] = []  # this trial's fresh int arguments, in draw order

    # The choice of op inlines Rng._below's rejection loop (n >= 1 there),
    # and int arguments inline _draw_int: they are most of the draws.
    def gen(t: Target, size: int) -> Expr:
        if mutable and size >= 2 and random() < seq_probability:
            first = gen(effects[below(len(effects))], size // 2)
            return Seq(first, gen(t, size // 2))
        ops = t.leaves if size == 0 and t.leaves else t.ops
        n = len(ops)
        if not n:
            raise ValueError(f"no op of {sig.name} returns {render_ty(t.ty)}")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        op = ops[r]
        if op.node is not None:
            return op.node
        n = len(op.subexprs)
        sub_size = (size - 1) // n if n and size > 0 else 0
        args = []
        for draw in op.draws:
            if draw is None:
                args.append(gen(abstract, sub_size))
            elif draw is _draw_int:
                if drawn and random() < INT_REUSE_PROBABILITY:
                    args.append(drawn[below(len(drawn))])
                else:
                    r = size if random() < INT_TOP_PROBABILITY else below(size + 1)
                    v = _SMALL_INTS[r] if r < len(_SMALL_INTS) else VInt(r)
                    drawn.append(v)
                    args.append(v)
            else:
                args.append(draw(size, rng))
        return Call(op.name, tuple(args))

    return gen(start, size)


@record
class ValueRules:
    """What the values of one type are, as one record per type."""

    check: Callable[[Any], bool]  # does a value inhabit the type?
    draw: Drawer  # how gen_expr draws an argument of the type
    least: Value | None  # the value shrinking puts in such an argument; None for t


def value_rules(ty: Ty) -> ValueRules:
    """The rules for the values of ty, built once per type and called often.

    check(v) says whether v inhabits ty.  A scalar must carry a payload of
    its Python type: a VInt an int (not a bool), a VBool a bool, a VChar a
    one-character string and a VStr a string.  A VList holds its elements
    in a tuple, so that every value is frozen and compares as a record.

    draw(size, rng) makes the same draws as the type-by-type rules always
    have, so a stream gives the same value.  Small integers, the two
    booleans, unit and none are shared values, and the drawer of the
    abstract type raises ValueError when it is called.

    These rules alone say which types have values: ValidationError, naming
    ty, is raised for a function type other than (int -> int), and for t or
    a function type under list or option.
    """
    if type(ty) is ListTy or type(ty) is OptionTy:
        inner = ty.elem
        while type(inner) is ListTy or type(inner) is OptionTy:
            inner = inner.elem
        if inner == ABSTRACT or type(inner) is FunTy:
            kind = "abstract" if inner == ABSTRACT else "function"
            raise ValidationError(f"{kind} type nested under a type constructor in {render_ty(ty)}")
        elem = value_rules(ty.elem)
        check, draw = elem.check, elem.draw
    if type(ty) is ListTy:
        return ValueRules(
            lambda v: (
                isinstance(v, VList) and isinstance(v.elems, tuple) and all(map(check, v.elems))
            ),
            lambda size, rng: VList(
                tuple(draw(size, rng) for _ in range(rng.int_in(0, min(size, MAX_LIST_LEN))))
            ),
            VList(()),
        )
    if type(ty) is OptionTy:
        return ValueRules(
            lambda v: isinstance(v, VNone) or (isinstance(v, VSome) and check(v.value)),
            lambda size, rng: _NONE if rng.bernoulli(NONE_PROBABILITY) else VSome(draw(size, rng)),
            _NONE,
        )
    if ty not in _SCALAR_RULES:  # a function type other than (int -> int)
        raise ValidationError(f"function arguments must be (int -> int), got {render_ty(ty)}")
    return _SCALAR_RULES[ty]


# Shared literal values; a value is frozen, so one instance can sit in any
# number of expressions.
_SMALL_INTS = tuple(VInt(n) for n in range(256))
_BOOLS = (VBool(False), VBool(True))
_UNIT = VUnit()
_NONE = VNone()


def _draw_int(size: int, rng: Rng) -> VInt:
    n = rng._below(size + 1)
    return _SMALL_INTS[n] if n < len(_SMALL_INTS) else VInt(n)


def _draw_char(rng: Rng) -> str:
    return chr(ord(MIN_STR_CHAR) + rng._below(26))


def _draw_abstract(size: int, rng: Rng) -> Value:
    raise ValueError("cannot generate a literal of type t")


_SCALAR_RULES = {
    INT: ValueRules(
        lambda v: isinstance(v, VInt) and type(v.value) is int, _draw_int, _SMALL_INTS[0]
    ),
    BOOL: ValueRules(
        lambda v: isinstance(v, VBool) and type(v.value) is bool,
        lambda size, rng: _BOOLS[rng._below(2)],
        _BOOLS[0],
    ),
    CHAR: ValueRules(
        lambda v: isinstance(v, VChar) and isinstance(v.value, str) and len(v.value) == 1,
        lambda size, rng: VChar(_draw_char(rng)),
        VChar(MIN_STR_CHAR),
    ),
    STR: ValueRules(
        lambda v: isinstance(v, VStr) and isinstance(v.value, str),
        lambda size, rng: VStr(
            "".join(_draw_char(rng) for _ in range(rng.int_in(0, min(size, MAX_STR_LEN))))
        ),
        VStr(""),
    ),
    UNIT: ValueRules(lambda v: isinstance(v, VUnit), lambda size, rng: _UNIT, _UNIT),
    FunTy(INT, INT): ValueRules(lambda v: isinstance(v, FnAst), gen_fn_ast, Var()),
    ABSTRACT: ValueRules(lambda v: isinstance(v, VAbstract), _draw_abstract, None),
}
