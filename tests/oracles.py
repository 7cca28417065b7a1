"""Oracles: plain, independent re-implementations to cross-check the program.

Nine tools live here:

* ``oracle_type_of``: a second, direct implementation of the typing
  judgment, for cross-checking ``symexpr.type_of``.
* ``all_terms_by_depth`` / ``exprs_by_depth``: exhaustive enumeration of
  terms up to a depth bound, the former including ill-typed ones.
* ``find_witness``: size-ordered search for the smallest expression on
  which two implementations disagree.
* ``oracle_value_matches``: the shape check as a plain chain of type
  tests, for cross-checking ``generator.value_rules``; ``oracle_type_of``
  uses it for every argument that is not a subexpression.
* ``oracle_shrink``: the greedy shrinker written plainly, with its own
  copies of the candidate rules: it evaluates every candidate it meets,
  repeats included, and types every node with ``type_of``.
  ``harness.shrink`` must evaluate the same candidates in the same
  order, each once, and return the same expression.
* ``oracle_gen_expr`` / ``oracle_gen_literal`` / ``oracle_interp``:
  generation and evaluation as they were before ops were planned once
  per signature, re-deciding everything from the declared types at every
  node; ``oracle_gen_expr`` also reuses earlier int arguments by its own
  copy of the rule.  ``gen_expr`` and ``value_rules`` must draw the
  same values from the same stream, and ``interp`` must give the same
  outcome.
* ``oracle_tokenize`` / ``oracle_from_text``: the signature tokenizer
  and the expression parser as they were before both languages shared
  ``sigdsl.scan``.  ``parse_signature`` must see the same tokens, and
  ``from_text`` must accept the same texts, build the same expressions
  and raise the same exception classes.
* ``fn_depth``: the depth of a function AST, for checking the
  generator's bound.
* ``oracle_validate`` / ``oracle_check_op``: signature validation as it
  was when ``sigdsl`` checked each op's types itself, before the plan
  build did it through ``generator.value_rules``.

The enumerators only cover argument types that actually occur in the
bundled signatures (int and the abstract type); anything else raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from specdiff.generator import (
    INT_REUSE_PROBABILITY,
    INT_TOP_PROBABILITY,
    MAX_LIST_LEN,
    MAX_STR_LEN,
    MIN_STR_CHAR,
    NONE_PROBABILITY,
    GenConfig,
    Rng,
    gen_fn_ast,
)
from specdiff.interp import (
    ContractViolation,
    Failed,
    HarnessBug,
    Implementation,
    Outcome,
    VChar,
    VNone,
    VSome,
    interp,
    outcome_equal,
)
from specdiff.sigdsl import (
    ABSTRACT,
    BOOL,
    CHAR,
    INT,
    STR,
    UNIT,
    FunTy,
    ListTy,
    OpDecl,
    OptionTy,
    ParseError,
    Signature,
    Ty,
    ValidationError,
    render_ty,
    validate_signature,
)
from specdiff.symexpr import (
    BinOp,
    Call,
    Const,
    Expr,
    FnAst,
    Seq,
    Value,
    Var,
    size_of,
    type_of,
    wrap_i64,
)


def oracle_value_matches(v, ty: Ty) -> bool:
    """Does the runtime value inhabit the type?  Python's own types by
    exact type, so that a bool is no int, and a char only over one
    character of a str."""
    if ty == INT:
        return type(v) is int
    if ty == BOOL:
        return type(v) is bool
    if ty == CHAR:
        return isinstance(v, VChar) and type(v.value) is str and len(v.value) == 1
    if ty == STR:
        return type(v) is str
    if ty == UNIT:
        return v is None
    if ty == ABSTRACT:
        return True  # any handle the implementation made
    if isinstance(ty, FunTy):
        return isinstance(v, FnAst)
    if isinstance(ty, ListTy):
        return type(v) is tuple and all(oracle_value_matches(x, ty.elem) for x in v)
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
            if want == ABSTRACT:
                ok = isinstance(arg, (Call, Seq)) and check(arg) == ABSTRACT
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
    seeds: list = [0, 1, True, None, Var()]
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
        if want == INT:
            return list(pool)
        if want == ABSTRACT:
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
        subs = [i for i, want in enumerate(op.args) if want == ABSTRACT]
        lit_slots = [pool for want in op.args if want == INT]
        if len(lit_slots) + len(subs) != len(op.args):
            raise NotImplementedError(f"no argument pool for {op.name}")
        budget = size - 1
        for split in _compositions(budget, len(subs)):
            sub_choices = [_exprs_exact(sig, ABSTRACT, s, pool, memo) for s in split]
            for sub_combo in product(*sub_choices):
                for lits in product(*lit_slots):
                    sub_iter, lit_iter = iter(sub_combo), iter(lits)
                    args = tuple(
                        next(sub_iter) if want == ABSTRACT
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
    observables = validate_signature(sig)
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
    hoist: bool = True,
) -> Expr:
    """Greedy first-improvement shrinking to a fixpoint.

    Candidate order per round: same-typed descendants (smallest first),
    seq-arm drops, abstract subtrees collapsed to the minimal leaf call,
    each inner node replaced by one of its descendants of the node's type
    (smallest first), integer literals toward zero, function arguments
    toward Var/Const 0.  A candidate is accepted only if the outcomes still
    differ; both implementations are reset before every candidate
    evaluation.  hoist=False leaves out the inner-node rule, as the
    shrinker was before it had one.
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
        for candidate in _shrink_candidates(e, ty, sig, leaf, hoist):
            if still_fails(candidate):
                e = candidate
                steps += 1
                improved = True
                break
    return e


def _shrink_candidates(e: Expr, ty: Ty, sig: Signature, leaf: Expr | None, hoist: bool):
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
            if node != leaf and type_of(node, sig) == ABSTRACT:
                yield leaf

        yield from _rewrite_one(e, leaf_rule)

    def hoist_rule(node: Expr):
        if hoist and node is not e:
            ret = type_of(node, sig)
            same = [d for d in _descendants(node) if type_of(d, sig) == ret]
            yield from sorted(same, key=size_of)

    yield from _rewrite_one(e, hoist_rule)
    yield from _rewrite_one(e, _literal_rule)
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


def _literal_rule(node: Expr):
    if isinstance(node, Seq):
        return
    for i, a in enumerate(node.args):
        if isinstance(a, (Call, Seq, FnAst)):
            continue
        for lit in _literal_variants(a):
            args = list(node.args)
            args[i] = lit
            yield Call(node.op, tuple(args))


def _literal_variants(v: Value):
    """The literal value shortened, or one integer inside it moved toward
    zero.  A list or string drops each single element in turn, then keeps
    its front half if it has 3 or more; then come the element moves."""
    if type(v) is int:  # a bool has no variants
        half = v // 2 if v >= 0 else -((-v) // 2)
        for smaller in (0, half):
            if smaller != v:
                yield smaller
    elif isinstance(v, VSome):
        for x in _literal_variants(v.value):
            yield VSome(x)
    elif isinstance(v, tuple):
        n = len(v)
        for i in range(n):
            yield tuple(x for j, x in enumerate(v) if j != i)
        if n >= 3:
            yield v[: n // 2]
        for i, x in enumerate(v):
            for y in _literal_variants(x):
                elems = list(v)
                elems[i] = y
                yield tuple(elems)
    elif isinstance(v, str):
        n = len(v)
        for i in range(n):
            yield "".join(c for j, c in enumerate(v) if j != i)
        if n >= 3:
            yield v[: n // 2]


def _fn_rule(node: Expr):
    if isinstance(node, Seq):
        return
    for i, a in enumerate(node.args):
        if not isinstance(a, FnAst):
            continue
        replacements = []
        if a != Var():
            replacements.append(Var())
        if a not in (Var(), Const(0)):
            replacements.append(Const(0))
        for fn in replacements:
            args = list(node.args)
            args[i] = fn
            yield Call(node.op, tuple(args))


def _minimal_abstract_leaf(sig: Signature) -> Expr | None:
    """The cheapest call producing an abstract value, if the type is used."""
    leaves = _leaves_by_ret(sig).get(ABSTRACT)
    if not leaves:
        return None
    # leaves are in declaration order and min keeps the first of equal keys
    best = min(leaves, key=lambda op: len(op.args))
    return Call(best.name, tuple(_minimal_literal(a) for a in best.args))


_MINIMAL_LITERALS = {
    INT: 0,
    BOOL: False,
    CHAR: VChar("a"),
    STR: "",
    UNIT: None,
    FunTy(INT, INT): Var(),
}


def _minimal_literal(ty: Ty) -> Value:
    if isinstance(ty, ListTy):
        return ()
    if isinstance(ty, OptionTy):
        return VNone()
    if ty not in _MINIMAL_LITERALS:
        raise ValueError(f"no minimal literal at {render_ty(ty)}")
    return _MINIMAL_LITERALS[ty]


def _by_ret(ops: Iterable[OpDecl]) -> dict[Ty, list[OpDecl]]:
    """ops grouped by return type, each group in declaration order."""
    groups: dict[Ty, list[OpDecl]] = {}
    for op in ops:
        groups.setdefault(op.ret, []).append(op)
    return groups


def _leaves_by_ret(sig: Signature) -> dict[Ty, list[OpDecl]]:
    """The ops with no abstract-typed argument, grouped by return type."""
    return _by_ret(op for op in sig.ops if not any(a == ABSTRACT for a in op.args))


def oracle_gen_expr(target: Ty, size: int, sig: Signature, cfg: GenConfig, rng: Rng) -> Expr:
    """gen_expr as it was before per-op plans: the same draws, in the same order.

    Copied verbatim, except that it counts each op's abstract arguments
    itself and calls oracle_gen_literal, and that an int argument, once
    the trial has drawn one, repeats one of the trial's fresh ints with
    probability INT_REUSE_PROBABILITY, and a fresh int argument is the
    size budget itself with probability INT_TOP_PROBABILITY.
    """
    by_ret = _by_ret(sig.ops)
    leaves = _leaves_by_ret(sig)
    arity = {op.name: sum(a == ABSTRACT for a in op.args) for op in sig.ops}
    fresh: list[Value] = []  # the int arguments drawn anew, in order

    def gen(target: Ty, size: int) -> Expr:
        if sig.mutable and size >= 2 and rng.random() < cfg.seq_probability:
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
            if want == ABSTRACT:
                args.append(gen(ABSTRACT, sub_size))
            elif isinstance(want, FunTy):
                args.append(gen_fn_ast(size, rng))
            elif want == INT and fresh and rng.random() < INT_REUSE_PROBABILITY:
                args.append(rng.choice(fresh))
            elif want == INT:
                if rng.random() < INT_TOP_PROBABILITY:
                    fresh.append(size)
                else:
                    fresh.append(oracle_gen_literal(want, size, rng))
                args.append(fresh[-1])
            else:
                args.append(oracle_gen_literal(want, size, rng))
        return Call(op.name, tuple(args))

    return gen(target, size)


def oracle_gen_literal(ty: Ty, size: int, rng: Rng) -> Value:
    """gen_literal as it was before per-op plans, copied verbatim."""
    if ty == INT:
        return rng.randint(0, size)
    if ty == BOOL:
        return rng.randint(0, 1) == 1
    if ty == CHAR:
        return VChar(chr(ord(MIN_STR_CHAR) + rng.randint(0, 25)))
    if ty == STR:
        n = rng.randint(0, min(size, MAX_STR_LEN))
        return "".join(chr(ord(MIN_STR_CHAR) + rng.randint(0, 25)) for _ in range(n))
    if ty == UNIT:
        return None
    if isinstance(ty, ListTy):
        n = rng.randint(0, min(size, MAX_LIST_LEN))
        return tuple(oracle_gen_literal(ty.elem, size, rng) for _ in range(n))
    if isinstance(ty, OptionTy):
        if rng.random() < NONE_PROBABILITY:
            return VNone()
        return VSome(oracle_gen_literal(ty.elem, size, rng))
    raise ValueError(f"cannot generate a literal of type {render_ty(ty)}")


def oracle_interp(e: Expr, impl: Implementation, sig: Signature) -> Outcome:
    """interp as it was before per-op plans.

    Copied verbatim, except that results are checked with
    oracle_value_matches, and that an implementation returns a value or a
    Failed, with no wrapper around the value.
    """
    if type(e) is Seq:
        first = oracle_interp(e.first, impl, sig)
        if isinstance(first, Failed):
            return first
        return oracle_interp(e.second, impl, sig)
    decl = next(op for op in sig.ops if op.name == e.op)
    values: list[Value] = []
    for arg in e.args:
        if isinstance(arg, Expr):
            out = oracle_interp(arg, impl, sig)
            if isinstance(out, Failed):
                return out
            values.append(out)
        else:
            values.append(arg)
    try:
        out = impl.apply(e.op, values)
    except Exception as exc:
        raise HarnessBug(
            f"{impl.name}: op {e.op!r} raised {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(out, Failed) and not oracle_value_matches(out, decl.ret):
        raise HarnessBug(
            f"{impl.name}: op {e.op!r} returned a value outside {render_ty(decl.ret)}"
        )
    return out


def fn_depth(f: FnAst) -> int:
    """Levels of a function AST; a variable or constant is 1."""
    if isinstance(f, (Var, Const)):
        return 1
    return 1 + max(fn_depth(f.left), fn_depth(f.right))


# --------------------------------------------------------------------------
# The two front ends as they were before they shared sigdsl.scan, copied
# verbatim but for the names of oracle_tokenize (sigdsl._tokenize) and
# oracle_from_text (symexpr.from_text).


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "arrow" | "lparen" | "rparen" | "colon" | "eof"
    text: str
    line: int
    col: int


def oracle_tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif c == "(":
            tokens.append(_Token("lparen", "(", line, col))
            i += 1
            col += 1
        elif c == ")":
            tokens.append(_Token("rparen", ")", line, col))
            i += 1
            col += 1
        elif c == ":":
            tokens.append(_Token("colon", ":", line, col))
            i += 1
            col += 1
        elif source.startswith("->", i):
            tokens.append(_Token("arrow", "->", line, col))
            i += 2
            col += 2
        else:
            m = _IDENT_RE.match(source, i)
            if not m:
                raise ParseError(f"unexpected character {c!r}", line, col)
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\() | (?P<rparen>\)) |
        (?P<int>-?[0-9]+) |
        (?P<char>'(?:\\.|[^'\\])') |
        (?P<str>"(?:\\.|[^"\\])*") |
        (?P<atom>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)


def _sexp_tokens(s: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            rest = s[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"bad token near {rest[:10]!r}", 1, pos + 1)
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


_LIT_HEADS = {"some", "list"}


class _SexpParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, 1, self.pos + 1)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            self.error(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> Expr:
        self.expect("(")
        head = self.next()
        if head == "seq":
            first = self.parse_expr()
            second = self.parse_expr()
            self.expect(")")
            return Seq(first, second)
        if not _IDENT_OK.match(head):
            self.error(f"expected an op name, got {head!r}")
        args: list[Expr | Value] = []
        while self.peek() != ")":
            args.append(self.parse_arg())
        self.expect(")")
        return Call(head, tuple(args))

    def parse_arg(self) -> Expr | Value:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        if tok != "(":
            lit = self.parse_simple_literal()
            if lit is not _NOT_A_LITERAL:
                return lit
            self.error(f"unexpected token {tok!r}")
        head = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        if head in _LIT_HEADS:
            return self.parse_literal()
        if head == "fn":
            self.next()  # (
            self.next()  # fn
            fn = self.parse_fn()
            self.expect(")")
            return fn
        return self.parse_expr()

    def parse_simple_literal(self):
        """The literal at the current token, or _NOT_A_LITERAL (unit is None)."""
        tok = self.peek()
        assert tok is not None
        if tok == "true":
            self.next()
            return True
        if tok == "false":
            self.next()
            return False
        if tok == "none":
            self.next()
            return VNone()
        if tok == "unit":
            self.next()
            return None
        if _INT_OK.match(tok):
            self.next()
            return wrap_i64(int(tok))
        if tok.startswith("'"):
            self.next()
            return VChar(_unescape(tok[1:-1]))
        if tok.startswith('"'):
            self.next()
            return _unescape(tok[1:-1])
        return _NOT_A_LITERAL

    def parse_literal(self) -> Value:
        tok = self.peek()
        if tok != "(":
            lit = self.parse_simple_literal()
            if lit is _NOT_A_LITERAL:
                self.error(f"expected a literal, got {tok!r}")
            return lit
        self.next()
        head = self.next()
        if head == "some":
            inner = self.parse_literal()
            self.expect(")")
            return VSome(inner)
        if head == "list":
            elems = []
            while self.peek() != ")":
                elems.append(self.parse_literal())
            self.expect(")")
            return tuple(elems)
        self.error(f"expected a literal form, got {head!r}")
        raise AssertionError  # unreachable

    def parse_fn(self) -> FnAst:
        tok = self.next()
        if tok == "var":
            return Var()
        if _INT_OK.match(tok):
            return Const(wrap_i64(int(tok)))
        if tok == "(":
            head = self.next()
            if head not in ("add", "sub", "mul"):
                self.error(f"expected add/sub/mul, got {head!r}")
            left = self.parse_fn()
            right = self.parse_fn()
            self.expect(")")
            return BinOp(head, left, right)
        self.error(f"expected a function body, got {tok!r}")
        raise AssertionError  # unreachable


_NOT_A_LITERAL = object()
_IDENT_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_OK = re.compile(r"-?[0-9]+\Z")


def _unescape(body: str) -> str:
    return body.replace("\\\\", "\0").replace("\\'", "'").replace('\\"', '"').replace(
        "\0", "\\"
    )


def oracle_from_text(s: str, sig: Signature) -> Expr:
    """Parse an s-expression and type-check it against sig.

    Raises ParseError on malformed input, including input nested too deeply
    to parse or type-check, and ExprTypeError on a well-formed but
    ill-typed expression.
    """
    parser = _SexpParser(_sexp_tokens(s))
    try:
        e = parser.parse_expr()
        if parser.peek() is not None:
            parser.error(f"trailing input {parser.peek()!r}")
        type_of(e, sig)
    except RecursionError:
        raise ParseError("expression nested too deeply", 1, parser.pos + 1) from None
    return e


# Signature validation as sigdsl did it before the plan build checked the
# ops' types; the three helpers are sigdsl's, verbatim.


def _contains_abstract(ty: Ty) -> bool:
    if ty == ABSTRACT:
        return True
    if isinstance(ty, (ListTy, OptionTy)):
        return _contains_abstract(ty.elem)
    if isinstance(ty, FunTy):
        return _contains_abstract(ty.arg) or _contains_abstract(ty.ret)
    return False


def _contains_fun(ty: Ty) -> bool:
    if isinstance(ty, FunTy):
        return True
    if isinstance(ty, (ListTy, OptionTy)):
        return _contains_fun(ty.elem)
    return False


def _check_arg_ty(op: OpDecl, ty: Ty):
    if isinstance(ty, FunTy):
        if ty != FunTy(INT, INT):
            raise ValidationError(
                f"op {op.name!r}: function arguments must be (int -> int), "
                f"got {render_ty(ty)}"
            )
        return
    if isinstance(ty, (ListTy, OptionTy)):
        if _contains_abstract(ty):
            raise ValidationError(
                f"op {op.name!r}: abstract type nested under a type "
                f"constructor in {render_ty(ty)}"
            )
        if _contains_fun(ty):
            raise ValidationError(
                f"op {op.name!r}: function type nested under a type "
                f"constructor in {render_ty(ty)}"
            )
        return
    # base types and bare t are always fine


def oracle_check_op(op: OpDecl) -> None:
    """Raise ValidationError if one op's declared types break a rule."""
    for a in op.args:
        _check_arg_ty(op, a)
    if isinstance(op.ret, FunTy):
        raise ValidationError(f"op {op.name!r}: function type in return position")
    if isinstance(op.ret, (ListTy, OptionTy)) and _contains_abstract(op.ret):
        raise ValidationError(
            f"op {op.name!r}: abstract type nested under a type "
            f"constructor in {render_ty(op.ret)}"
        )


def oracle_validate(sig: Signature) -> tuple[Ty, ...]:
    """The observable types, or ValidationError: each op checked in
    declaration order, then the leaf-constructor and concrete-return rules,
    all decided from the declared types without a plan."""
    for op in sig.ops:
        oracle_check_op(op)
    takes_abstract = any(a == ABSTRACT for op in sig.ops for a in op.args)
    if takes_abstract and ABSTRACT not in _leaves_by_ret(sig):
        raise ValidationError("no leaf constructor for the abstract type")
    observable = tuple(dict.fromkeys(op.ret for op in sig.ops if op.ret != ABSTRACT))
    if not observable:
        raise ValidationError("no concrete return type")
    return observable
