"""The differential test driver.

Each trial generates one well-typed expression at a round-robin
observable type, evaluates it against both implementations from a reset
state, and compares outcomes at that concrete type.  Per-trial sub-seeds
are mixed from (campaign seed, trial index), so trials are independent
and a campaign is reproducible from its seed alone.
"""

from __future__ import annotations

from .generator import GenConfig, Rng, gen_expr, mix_seed, size_schedule
from .interp import (
    ContractViolation,
    HarnessBug,
    Implementation,
    interp,
    outcome_equal,
    outcome_to_text,
)
from .record import record
from .report import ReportLine, property_name
from .sigdsl import (
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
    Seq,
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
    depth,
    num_seq,
    size_of,
    to_text,
    type_of,
)


@record
class CampaignResult:
    total_trials: int
    records: list[ReportLine]
    failures: list[ReportLine]
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
    collect_records: bool = True,
) -> CampaignResult:
    """Run a differential campaign and collect per-trial records.

    collect_records=False keeps only failing and harness_bug records and
    does not shrink failures, so a failure's shrunk form is its
    representation; bench mode uses it to stay light over millions of
    trials.
    """
    observables = validate_signature(sig).observable_types
    names = [render_ty(t) for t in observables]
    properties = [property_name(sig.name, name) for name in names]
    records: list[ReportLine] = []
    failures: list[ReportLine] = []
    per_type = dict.fromkeys(names, 0)
    first_failure: int | None = None
    harness_bugs = 0
    executed = 0

    for i in range(trials):
        k = i % len(observables)
        ty = observables[k]
        size = size_schedule(i, cfg)
        sub_seed = mix_seed(cfg.seed, i)
        e = gen_expr(ty, size, sig, cfg, Rng(sub_seed))

        status = "passed"
        out_a = out_b = None
        detail = None
        try:
            _reset(impl_a, impl_b)
            out_a = interp(e, impl_a, sig)
            out_b = interp(e, impl_b, sig)
            if not outcome_equal(out_a, out_b, ty):
                status = "failed"
        except HarnessBug as bug:
            status = "harness_bug"
            detail = str(bug)
            harness_bugs += 1

        executed = i + 1
        per_type[names[k]] += 1
        text, e_depth, e_size, e_seqs = to_text(e), depth(e), size_of(e), num_seq(e)
        if status == "passed" and not collect_records:
            continue
        record = ReportLine(
            property=properties[k],
            status=status,
            representation=text,
            depth=e_depth,
            size=e_size,
            num_seq=e_seqs,
            seed=sub_seed,
            trial=executed,
            detail=detail,
        )
        if status == "failed":
            record.outcome_a = outcome_to_text(out_a)
            record.outcome_b = outcome_to_text(out_b)
            if first_failure is None:
                first_failure = executed
            shrunk = shrink(e, ty, sig, impl_a, impl_b) if collect_records else e
            record.shrunk = to_text(shrunk)
            failures.append(record)
        records.append(record)
        if status == "failed" and stop_on_failure:
            break

    return CampaignResult(
        total_trials=executed,
        records=records,
        failures=failures,
        trials_to_first_failure=first_failure,
        per_type_counts=per_type,
        seed=cfg.seed,
        harness_bugs=harness_bugs,
    )


def _reset(*impls: Implementation) -> None:
    """Reset each implementation; an exception from reset() raises HarnessBug."""
    for impl in impls:
        try:
            impl.reset()
        except Exception as exc:
            raise HarnessBug(
                f"{impl.name}: reset raised {type(exc).__name__}: {exc}"
            ) from exc


def bench_trials_to_failure(
    sig: Signature,
    impl_correct: Implementation,
    impl_buggy: Implementation,
    runs: int,
    trial_cap: int,
    base_seed: int,
) -> tuple[int | None, ...]:
    """How many trials until the pairing first disagrees, over many seeds.

    Run r uses campaign seed base_seed + r and stops at the first failure
    or at trial_cap.  Returns, per run, the 1-based trial of its first
    failure, or None for a run that never failed.
    """
    return tuple(
        run_differential(
            sig,
            impl_correct,
            impl_buggy,
            trial_cap,
            GenConfig(seed=base_seed + r),
            stop_on_failure=True,
            collect_records=False,
        ).trials_to_first_failure
        for r in range(runs)
    )


MAX_SHRINK_STEPS = 1000


def shrink(
    e: Expr,
    ty: Ty,
    sig: Signature,
    impl_a: Implementation,
    impl_b: Implementation,
) -> Expr:
    """Greedy first-improvement shrinking to a fixpoint.

    Candidate order per round: descendants of e's type in place of e
    (smallest first, ties in preorder), seq-arm drops, abstract subtrees
    collapsed to the minimal leaf call, then at each inner node in
    preorder its descendants of its own declared type in its place
    (smallest first, ties in preorder), literals shortened and their
    integers moved toward zero, function arguments toward Var/Const 0.
    The first candidate on which the outcomes still differ is accepted and
    the next round starts from it, for at most MAX_SHRINK_STEPS rounds.

    Both implementations are reset before every evaluation, so a
    candidate's verdict is taken to be a function of the candidate alone:
    verdicts are kept by candidate expression, and each distinct candidate
    is evaluated at most once per call.  Candidates are well-typed by
    construction and typed from the declared return types; e itself must
    have type ty, or ValueError is raised.
    """
    if type_of(e, sig) != ty:
        raise ValueError(f"shrink: expression does not have type {render_ty(ty)}")
    leaf = _minimal_abstract_leaf(sig)
    # each verdict is boxed in a list, so that a new candidate is hashed once
    verdicts: dict[Expr, list[bool]] = {}

    def still_fails(candidate: Expr) -> bool:
        verdict = verdicts.setdefault(candidate, [])
        if not verdict:
            try:
                _reset(impl_a, impl_b)
                out_a = interp(candidate, impl_a, sig)
                out_b = interp(candidate, impl_b, sig)
                verdict.append(not outcome_equal(out_a, out_b, ty))
            except (HarnessBug, ContractViolation):
                verdict.append(False)
        return verdict[0]

    for _ in range(MAX_SHRINK_STEPS):
        candidate = next(filter(still_fails, _shrink_candidates(e, sig, leaf)), None)
        if candidate is None:
            break
        e = candidate
    return e


def _shrink_candidates(e: Expr, sig: Signature, leaf: Expr | None):
    """One round's candidates, in shrink's order."""
    nodes = _nodes(e, sig)
    yield from _hoists(nodes, 0)  # each one in place of e

    for i, (node, ret, rebuild, _) in enumerate(nodes):
        if type(node) is Seq:
            yield rebuild(node.second)
            if nodes[i + 1][1] == ret:  # node.first is node i + 1
                yield rebuild(node.first)

    if leaf is not None:
        for node, ret, rebuild, _ in nodes:
            if type(ret) is AbstractTy and node != leaf:
                yield rebuild(leaf)

    for i in range(1, len(nodes)):
        rebuild = nodes[i][2]
        for d in _hoists(nodes, i):
            yield rebuild(d)

    for variants in (_literal_variants, _fn_variants):
        for node, _, rebuild, _ in nodes:
            if type(node) is Seq:
                continue
            for slot, a in enumerate(node.args):
                for x in variants(a):
                    yield rebuild(Call(node.op, _replaced(node.args, slot, x)))


def _hoists(nodes: list, i: int) -> list[Expr]:
    """Node i's proper descendants of its declared type, smallest first,
    ties in preorder; the descendants of node i are nodes[i + 1 : end], and
    node j's size_of is its end less j."""
    ret, end = nodes[i][1], nodes[i][3]
    same = [j for j in range(i + 1, end) if nodes[j][1] == ret]
    same.sort(key=lambda j: nodes[j][3] - j)
    return [nodes[j][0] for j in same]


def _nodes(e: Expr, sig: Signature) -> list:
    """Every node of e in preorder, as (node, its declared type, a function
    that rebuilds e with the node replaced, the index just past its
    subtree); only the node's ancestors are rebuilt."""
    ops = sig.plan.ops
    out: list = []

    def visit(node: Expr, rebuild) -> None:
        at = len(out)
        out.append(None)
        if type(node) is Seq:
            visit(node.first, lambda c: rebuild(Seq(c, node.second)))
            second = len(out)
            visit(node.second, lambda c: rebuild(Seq(node.first, c)))
            ret = out[second][1]
        else:
            for slot, a in enumerate(node.args):
                if isinstance(a, Expr):
                    visit(a, lambda c, i=slot: rebuild(Call(node.op, _replaced(node.args, i, c))))
            ret = ops[node.op].ret
        out[at] = (node, ret, rebuild, len(out))

    visit(e, lambda c: c)
    return out


def _replaced(items: tuple, i: int, x) -> tuple:
    """items with the item at i replaced by x."""
    return items[:i] + (x,) + items[i + 1 :]


def _literal_variants(v):
    """A literal value shortened, or one integer inside it moved toward
    zero; none for other arguments.  A list's deletions come before its
    element moves."""
    if isinstance(v, VInt):
        k = v.value
        half = k // 2 if k >= 0 else -((-k) // 2)
        if k != 0:
            yield VInt(0)
        if half not in (0, k):
            yield VInt(half)
    elif isinstance(v, VSome):
        for x in _literal_variants(v.value):
            yield VSome(x)
    elif isinstance(v, VList):
        yield from map(VList, _shortened(v.elems))
        for i, x in enumerate(v.elems):
            for y in _literal_variants(x):
                yield VList(_replaced(v.elems, i, y))
    elif isinstance(v, VStr):
        yield from map(VStr, _shortened(v.value))


def _shortened(items):
    """items less each single element, then their front half if at least 3 long."""
    for i in range(len(items)):
        yield items[:i] + items[i + 1 :]
    if len(items) >= 3:
        yield items[: len(items) // 2]


_VAR_FN = VFun(Var())
_ZERO_FN = VFun(Const(0))


def _fn_variants(a):
    """A function argument replaced by var, then by the constant 0; none for others."""
    if type(a) is not VFun:
        return
    if a != _VAR_FN:
        yield _VAR_FN
    if a not in (_VAR_FN, _ZERO_FN):
        yield _ZERO_FN


def _minimal_abstract_leaf(sig: Signature) -> Expr | None:
    """The cheapest call producing an abstract value, if the type is used."""
    leaves = sig.plan.abstract.leaves
    if not leaves:
        return None
    # leaves are in declaration order and min keeps the first of equal keys
    best = min(leaves, key=lambda op: len(op.args))
    # a leaf has no abstract argument, and every other type has a literal here
    return Call(best.name, tuple(_MINIMAL_LITERALS[type(a)] for a in best.args))


_MINIMAL_LITERALS = {
    IntTy: VInt(0),
    BoolTy: VBool(False),
    CharTy: VChar("a"),
    StrTy: VStr(""),
    UnitTy: VUnit(),
    ListTy: VList(()),
    OptionTy: VNone(),
    FunTy: _VAR_FN,
}
