"""The differential test driver.

Each trial generates one well-typed expression at a round-robin
observable type, evaluates it against both implementations from a reset
state, and compares outcomes at that concrete type.  Per-trial sub-seeds
are mixed from (campaign seed, trial index), so trials are independent
and a campaign is reproducible from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    Seq,
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
    names = [render_ty(t) for t in observables]
    records: list[TrialRecord] = []
    failures: list[tuple[TrialRecord, str]] = []
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
        per_type[names[k]] += 1
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
    The first candidate on which the outcomes still differ is accepted
    and the next round starts from it.

    Both implementations are reset before every evaluation, so a
    candidate's verdict is taken to be a function of the candidate alone:
    each distinct candidate is evaluated at most once per call, and a
    candidate met again in a later round reuses its verdict without being
    rebuilt.  Candidates are well-typed by construction and typed from the
    declared return types; e itself must have type ty, or ValueError is
    raised.
    """
    if type_of(e, sig) != ty:
        raise ValueError(f"shrink: expression does not have type {render_ty(ty)}")
    leaf = _minimal_abstract_leaf(sig)
    ids = _Ids()
    verdicts: dict[int, bool] = {}

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
        for key, build in _shrink_candidates(e, ty, sig, leaf, ids):
            verdict = verdicts.get(key)
            if verdict is False:
                continue
            candidate = build()
            if verdict is None:
                verdict = verdicts[key] = still_fails(candidate)
            if verdict:
                e = candidate
                steps += 1
                improved = True
                break
    return e


def _ret(e: Expr, sig: Signature) -> Ty:
    """The declared return type of a well-typed expression."""
    while type(e) is Seq:
        e = e.second
    return sig.op_by_name[e.op].ret


class _Ids(dict):
    """Interned ids: each distinct key gets the next integer on first lookup."""

    def __missing__(self, key) -> int:
        self[key] = n = len(self)
        return n


def _shrink_candidates(e: Expr, ty: Ty, sig: Signature, leaf: Expr | None, ids: _Ids):
    """One round's candidates in shrink's order, as (id, build) pairs.

    The id is the candidate's interned structure (see _index), computed
    without building it; build() makes the candidate.
    """
    nodes, parts, keys = _index(e, ids)
    sizes = [1] * len(nodes)
    for i in range(len(nodes) - 1, 0, -1):
        sizes[nodes[i][1]] += sizes[i]

    def lift(i: int, key: int) -> int:
        """The id of e with node i replaced by the structure with id key."""
        while i:
            _, parent, slot = nodes[i]
            key = ids[_replace_id(parts[parent], slot, key)]
            i = parent
        return key

    same_typed = [i for i in range(1, len(nodes)) if _ret(nodes[i][0], sig) == ty]
    same_typed.sort(key=sizes.__getitem__)
    for i in same_typed:  # the descendant alone: the root replaced by it
        yield keys[i], partial(_edit, nodes, 0, None, nodes[i][0])

    for i, (node, _, _) in enumerate(nodes):
        if type(node) is Seq:
            yield lift(i, parts[i][2]), partial(_edit, nodes, i, None, node.second)
            if _ret(node.first, sig) == _ret(node.second, sig):
                yield lift(i, parts[i][1]), partial(_edit, nodes, i, None, node.first)

    if leaf is not None:
        leaf_key = _index(leaf, ids)[2][0]
        for i, (node, _, _) in enumerate(nodes):
            if keys[i] != leaf_key and type(_ret(node, sig)) is AbstractTy:
                yield lift(i, leaf_key), partial(_edit, nodes, i, None, leaf)

    for variants in (_int_variants, _fn_variants):
        for i, (node, _, _) in enumerate(nodes):
            if type(node) is Seq:
                continue
            for slot, a in enumerate(node.args):
                for x in variants(a):
                    key = ids[_replace_id(parts[i], slot, ids[x])]
                    yield lift(i, key), partial(_edit, nodes, i, slot, x)


def _index(e: Expr, ids: _Ids) -> tuple[list, list, list]:
    """Every node of e in preorder, with its structure and interned id.

    nodes[i] is (node, parent index, slot): the root's parent is -1, a seq
    arm's slot is 0 or 1 and a subexpression argument's slot is its
    position.  parts[i] is (op, one id per argument) for a call and
    (None, first id, second id) for a seq, where a subexpression's id is
    its node's and any other argument's id is ids[value].  keys[i] is
    ids[parts[i]], so two nodes have equal ids exactly when they are equal
    expressions.
    """
    nodes: list[tuple[Expr, int, int]] = []
    parts: list[tuple] = []
    keys: list[int] = []

    def visit(node: Expr, parent: int, slot: int) -> int:
        i = len(nodes)
        nodes.append((node, parent, slot))
        parts.append(())
        keys.append(0)
        if type(node) is Seq:
            part = (None, visit(node.first, i, 0), visit(node.second, i, 1))
        else:
            part = [node.op]
            for j, a in enumerate(node.args):
                part.append(visit(a, i, j) if isinstance(a, Expr) else ids[a])
            part = tuple(part)
        parts[i] = part
        keys[i] = ids[part]
        return keys[i]

    visit(e, -1, 0)
    return nodes, parts, keys


def _replace_id(part: tuple, slot: int, key: int) -> tuple:
    """part with the id at child or argument position slot replaced by key."""
    return part[: slot + 1] + (key,) + part[slot + 2 :]


def _edit(nodes: list[tuple[Expr, int, int]], i: int, arg: int | None, x) -> Expr:
    """The root of nodes with node i, or node i's argument arg, replaced by x.

    Only node i's ancestors are rebuilt; every other subtree is shared.
    """
    c = x
    if arg is not None:
        args = list(nodes[i][0].args)
        args[arg] = x
        c = Call(nodes[i][0].op, tuple(args))
    while i:
        _, parent, slot = nodes[i]
        p = nodes[parent][0]
        if type(p) is Seq:
            c = Seq(c, p.second) if slot == 0 else Seq(p.first, c)
        else:
            args = list(p.args)
            args[slot] = c
            c = Call(p.op, tuple(args))
        i = parent
    return c


def _int_variants(v):
    """One integer inside a literal value moved toward zero; none for others."""
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
    FunTy: _VAR_FN,
}


def _minimal_literal(ty: Ty) -> Value:
    v = _MINIMAL_LITERALS.get(type(ty))
    if v is None:
        raise ValueError(f"no minimal literal at {render_ty(ty)}")
    return v
