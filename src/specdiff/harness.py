"""The differential test driver.

Each trial generates one well-typed expression at a round-robin
observable type, evaluates it against both implementations from a reset
state, and compares outcomes at that concrete type.  Per-trial sub-seeds
are mixed from (campaign seed, trial index), so trials are independent
and a campaign is reproducible from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generator import GenConfig, Rng, gen_expr, mix_seed, size_schedule
from .interp import (
    ContractViolation,
    HarnessBug,
    Implementation,
    interp,
    outcome_equal,
    outcome_to_text,
)
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
    validate_signature,
)
from .symexpr import (
    Call,
    Const,
    Expr,
    ExprArg,
    FnArg,
    LitArg,
    Seq,
    Value,
    Var,
    VBool,
    VChar,
    VInt,
    VList,
    VNone,
    VSome,
    VStr,
    VUnit,
    depth,
    num_seq,
    size_of,
    to_text,
    type_of,
)


@dataclass
class TrialRecord:
    """Everything needed to understand and replay one trial."""

    trial_index: int
    observable_type: Ty
    expr_text: str
    depth: int
    size_of: int
    num_seq: int
    seed: int
    status: str  # "passed" | "failed" | "harness_bug"
    outcome_a: str | None = None
    outcome_b: str | None = None
    shrunk_text: str | None = None
    detail: str | None = None


@dataclass
class CampaignResult:
    signature_name: str
    total_trials: int
    records: list[TrialRecord]
    failures: list[tuple[TrialRecord, str]]
    trials_to_first_failure: int | None
    per_type_counts: dict[str, int]
    seed: int
    harness_bugs: int = 0


def run_differential(
    sig: Signature,
    impl_a: Implementation,
    impl_b: Implementation,
    trials: int,
    cfg: GenConfig,
    *,
    stop_on_failure: bool = False,
    shrink_failures: bool = True,
    collect_records: bool = True,
) -> CampaignResult:
    """Run a differential campaign and collect per-trial records.

    collect_records=False keeps only failing and harness_bug records,
    which bench mode uses to stay light over millions of trials.
    """
    observables = validate_signature(sig).observable_types
    records: list[TrialRecord] = []
    failures: list[tuple[TrialRecord, str]] = []
    per_type = {render_ty(t): 0 for t in observables}
    first_failure: int | None = None
    harness_bugs = 0
    executed = 0

    for i in range(trials):
        ty = observables[i % len(observables)]
        size = size_schedule(i, cfg)
        sub_seed = mix_seed(cfg.seed, i)
        e = gen_expr(ty, size, sig, cfg, Rng(sub_seed))

        impl_a.reset()
        impl_b.reset()
        status = "passed"
        out_a = out_b = None
        detail = None
        try:
            out_a = interp(e, impl_a, sig)
            out_b = interp(e, impl_b, sig)
            if not outcome_equal(out_a, out_b, ty):
                status = "failed"
        except HarnessBug as bug:
            status = "harness_bug"
            detail = str(bug)
            harness_bugs += 1

        executed = i + 1
        per_type[render_ty(ty)] += 1
        record = TrialRecord(
            trial_index=i,
            observable_type=ty,
            expr_text=to_text(e),
            depth=depth(e),
            size_of=size_of(e),
            num_seq=num_seq(e),
            seed=sub_seed,
            status=status,
            detail=detail,
        )
        if status == "failed":
            record.outcome_a = outcome_to_text(out_a)
            record.outcome_b = outcome_to_text(out_b)
            if first_failure is None:
                first_failure = i + 1
            shrunk = shrink(e, ty, sig, impl_a, impl_b) if shrink_failures else e
            record.shrunk_text = to_text(shrunk)
            failures.append((record, record.shrunk_text))
        if collect_records or status != "passed":
            records.append(record)
        if status == "failed" and stop_on_failure:
            break

    return CampaignResult(
        signature_name=sig.name,
        total_trials=executed,
        records=records,
        failures=failures,
        trials_to_first_failure=first_failure,
        per_type_counts=per_type,
        seed=cfg.seed,
        harness_bugs=harness_bugs,
    )


@dataclass(frozen=True)
class BenchStats:
    """Trials-to-first-failure aggregated over repeated campaigns."""

    runs: int
    detected: int
    min: int | None
    mean: float | None
    max: int | None
    detection_rate: float
    first_failures: tuple[int | None, ...]


def bench_trials_to_failure(
    sig: Signature,
    impl_correct: Implementation,
    impl_buggy: Implementation,
    runs: int,
    trial_cap: int,
    base_seed: int,
    *,
    max_size: int = 30,
    seq_probability: float = 0.25,
) -> BenchStats:
    """How many trials until the pairing first disagrees, over many seeds.

    Run r uses campaign seed base_seed + r and stops at the first failure
    or at trial_cap; runs that never fail count against detection_rate.
    """
    firsts: list[int | None] = []
    for r in range(runs):
        cfg = GenConfig(max_size=max_size, seq_probability=seq_probability, seed=base_seed + r)
        result = run_differential(
            sig,
            impl_correct,
            impl_buggy,
            trial_cap,
            cfg,
            stop_on_failure=True,
            shrink_failures=False,
            collect_records=False,
        )
        firsts.append(result.trials_to_first_failure)
    detecting = [f for f in firsts if f is not None]
    return BenchStats(
        runs=runs,
        detected=len(detecting),
        min=min(detecting) if detecting else None,
        mean=sum(detecting) / len(detecting) if detecting else None,
        max=max(detecting) if detecting else None,
        detection_rate=len(detecting) / runs if runs else 0.0,
        first_failures=tuple(firsts),
    )


MAX_SHRINK_STEPS = 1000


def shrink(
    e: Expr,
    ty: Ty,
    sig: Signature,
    impl_a: Implementation,
    impl_b: Implementation,
    max_steps: int = MAX_SHRINK_STEPS,
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
                if isinstance(a, ExprArg):
                    walk(a.expr)

    if isinstance(e, Seq):
        walk(e.first)
        walk(e.second)
    else:
        for a in e.args:
            if isinstance(a, ExprArg):
                walk(a.expr)
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
            if isinstance(a, ExprArg):
                for c in _rewrite_one(a.expr, rule):
                    args = list(e.args)
                    args[i] = ExprArg(c)
                    yield Call(e.op, tuple(args))


def _int_rule(node: Expr):
    if isinstance(node, Seq):
        return
    for i, a in enumerate(node.args):
        if not isinstance(a, LitArg):
            continue
        for lit in _int_variants(a.value):
            args = list(node.args)
            args[i] = LitArg(lit)
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
        if not isinstance(a, FnArg):
            continue
        replacements = []
        if a.fn != Var():
            replacements.append(Var())
        if a.fn not in (Var(), Const(0)):
            replacements.append(Const(0))
        for fn in replacements:
            args = list(node.args)
            args[i] = FnArg(fn)
            yield Call(node.op, tuple(args))


def _minimal_abstract_leaf(sig: Signature) -> Expr | None:
    """The cheapest call producing an abstract value, if the type is used."""
    leaves = sig.leaves_by_ret.get(ABSTRACT)
    if not leaves:
        return None
    # leaves are in declaration order and min keeps the first of equal keys
    best = min(leaves, key=lambda op: len(op.args))
    return Call(best.name, tuple(_minimal_arg(a) for a in best.args))


def _minimal_arg(ty: Ty):
    if isinstance(ty, FunTy):
        return FnArg(Var())
    return LitArg(_minimal_literal(ty))


_MINIMAL_LITERALS = {
    IntTy: VInt(0),
    BoolTy: VBool(False),
    CharTy: VChar("a"),
    StrTy: VStr(""),
    UnitTy: VUnit(),
    ListTy: VList(()),
    OptionTy: VNone(),
}


def _minimal_literal(ty: Ty) -> Value:
    v = _MINIMAL_LITERALS.get(type(ty))
    if v is None:
        raise ValueError(f"no minimal literal at {render_ty(ty)}")
    return v
