"""The differential test driver.

Each trial generates one well-typed expression at a round-robin
observable type, evaluates it against both implementations from a reset
state, and compares outcomes at that concrete type.  All trials draw from
one Rng seeded with the campaign seed, so a campaign replays from its seed,
and its first n trials are those of any longer campaign at that seed.
"""

from __future__ import annotations

from typing import Callable

# mix_seed is not called here: perfbench's tracer wraps it by name until a stage profile does.
from .generator import GenConfig, Rng, gen_expr, mix_seed, size_schedule
from .interp import (
    HarnessBug,
    Implementation,
    Outcome,
    interp,
    outcome_equal,
    outcome_to_text,
)
from .record import record
from .report import ReportLine, property_name
from .sigdsl import ABSTRACT, Signature, Ty, render_ty, validate_signature
from .symexpr import (
    Call,
    Const,
    Expr,
    FnAst,
    Seq,
    Var,
    VSome,
    depth,
    num_seq,
    size_of,
    to_text,
    type_of,
)


@record
class CampaignResult:
    """A campaign's counts, and the lines of its failures and harness bugs.

    records holds every failed and harness_bug line in trial order and
    never a passed one, so a campaign's memory grows with its failures and
    not with its trials; run_differential hands every line, a passed one
    included, to its consumer instead.
    """

    total_trials: int
    records: list[ReportLine]
    observables: tuple[str, ...]  # the rendered observable types, in round-robin order
    seed: int

    @property
    def per_type_counts(self) -> dict[str, int]:
        """Trials per observable type: type j of K ran total // K + (j < total % K)."""
        q, r = divmod(self.total_trials, len(self.observables))
        return {name: q + (j < r) for j, name in enumerate(self.observables)}

    @property
    def failures(self) -> list[ReportLine]:
        return [r for r in self.records if r.status == "failed"]

    @property
    def trials_to_first_failure(self) -> int | None:
        return next((r.trial for r in self.records if r.status == "failed"), None)

    @property
    def harness_bugs(self) -> int:
        return sum(r.status == "harness_bug" for r in self.records)


def run_differential(
    sig: Signature,
    impl_a: Implementation,
    impl_b: Implementation,
    trials: int,
    cfg: GenConfig,
    *,
    stop_on_failure: bool = False,
    collect_records: bool = True,
    consumer: Callable[[ReportLine], object] | None = None,
) -> CampaignResult:
    """Run a differential campaign, handing each trial's line to consumer.

    Every trial draws from one Rng seeded with cfg.seed, every line's seed.
    consumer, if given, gets every trial's ReportLine in trial order as soon
    as the line is made, before the next trial runs; an exception it raises,
    such as a report's ReportWriteError, ends the campaign there.  Without a
    consumer no line is built for a passing trial, and none of its features
    (text, depth, size, seq count) is computed, so bench and check without a
    report walk only their failed and harness_bug lines.

    collect_records=False does not shrink failures, so a failure's shrunk
    form is its representation; bench mode uses it to stay light over
    millions of trials.
    """
    observables = validate_signature(sig)
    names = tuple(render_ty(t) for t in observables)
    properties = [property_name(sig.name, name) for name in names]
    records: list[ReportLine] = []
    executed = 0
    verdicts: dict[Expr, list] = {}  # shared by this campaign's shrinks
    rng = Rng(cfg.seed)

    for i in range(trials):
        k = i % len(observables)
        ty = observables[k]
        e = gen_expr(ty, size_schedule(i, cfg), sig, cfg, rng)
        status, out_a, out_b, detail = judge(e, ty, sig, impl_a, impl_b)
        executed = i + 1
        if status == "passed" and consumer is None:
            continue
        text, e_depth, e_size, e_seqs = to_text(e), depth(e), size_of(e), num_seq(e)
        text_a = text_b = shrunk = None
        if status == "failed":
            text_a, text_b = outcome_to_text(out_a), outcome_to_text(out_b)
            shrunk = text
            if collect_records:
                if len(verdicts) > MAX_SHARED_VERDICTS:
                    verdicts.clear()
                shrunk = to_text(shrink(e, ty, sig, impl_a, impl_b, verdicts))
        line = ReportLine(
            properties[k], status, text, e_depth, e_size, e_seqs, cfg.seed, executed,
            outcome_a=text_a, outcome_b=text_b, shrunk=shrunk, detail=detail,
        )
        if consumer is not None:
            consumer(line)
        if status != "passed":
            records.append(line)
            if status == "failed" and stop_on_failure:
                break

    return CampaignResult(
        total_trials=executed, records=records, observables=names, seed=cfg.seed
    )


def judge(
    e: Expr, ty: Ty, sig: Signature, impl_a: Implementation, impl_b: Implementation
) -> tuple[str, Outcome | None, Outcome | None, str | None]:
    """Reset both implementations, evaluate e on each, and compare at ty.

    Returns (status, outcome_a, outcome_b, detail): "passed" or "failed"
    with both outcomes, or "harness_bug" with the bug's text and no
    outcomes.  ty must be concrete.
    """
    for impl in (impl_a, impl_b):
        try:
            impl.reset()
        except Exception as exc:
            detail = f"{impl.name}: reset raised {type(exc).__name__}: {exc}"
            return "harness_bug", None, None, detail
    try:
        out_a = interp(e, impl_a, sig)
        out_b = interp(e, impl_b, sig)
    except HarnessBug as bug:
        return "harness_bug", None, None, str(bug)
    status = "passed" if outcome_equal(out_a, out_b, ty) else "failed"
    return status, out_a, out_b, None


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
# A campaign's shrink table is cleared before a shrink once it holds more
# entries than this, so it never holds more than this plus one shrink's.
# A default 1,000-trial campaign of a bundled pairing peaks near 2,100.
MAX_SHARED_VERDICTS = 4096


def shrink(
    e: Expr,
    ty: Ty,
    sig: Signature,
    impl_a: Implementation,
    impl_b: Implementation,
    verdicts: dict[Expr, list] | None = None,
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

    A candidate is judged (see judge), and one that is not "failed", a
    harness bug included, counts as passing.  Both implementations are
    reset before every evaluation, so a verdict is taken to be a function
    of the candidate alone, and an expression has one type.  So verdicts
    are kept by candidate expression in one table per campaign, which
    run_differential passes to each of its shrinks (None starts a fresh
    one), and each distinct candidate is evaluated at most once while the
    table holds it; run_differential empties the table between shrinks
    once it passes MAX_SHARED_VERDICTS entries.  The search is then a
    function of the form it is at: the table also keeps the fixpoint that
    each form a shrink passed through led to, and a later shrink that
    reaches such a form goes straight there.

    Candidates are well-typed by construction and typed from the declared
    return types.  ValueError is raised when ty is abstract or e does not
    have type ty; e is taken to fail, unchecked.
    """
    if ty == ABSTRACT:
        raise ValueError("shrink: outcomes are not compared at the abstract type")
    if type_of(e, sig) != ty:
        raise ValueError(f"shrink: expression does not have type {render_ty(ty)}")
    leaf = sig.plan.abstract_leaf
    if verdicts is None:
        verdicts = {}
    # A candidate maps to [its verdict], boxed so that a candidate is hashed
    # once.  Once a shrink reaches a fixpoint, each form it started from or
    # accepted maps to [True, the fixpoint, the steps from the form to it].
    box = verdicts.setdefault(e, [True])

    def still_fails(candidate: Expr) -> bool:
        nonlocal box  # so the accepted candidate's box is the last one taken
        box = verdicts.setdefault(candidate, [])
        if not box:
            box.append(judge(candidate, ty, sig, impl_a, impl_b)[0] == "failed")
        return box[0]

    path = [box]  # the boxes of the forms this call started from and accepted
    while True:
        if len(box) == 3 and len(path) - 1 + box[2] <= MAX_SHRINK_STEPS:
            end, steps = box[1], box[2]
            break
        if len(path) > MAX_SHRINK_STEPS:
            return e
        candidate = next(filter(still_fails, _shrink_candidates(e, sig, leaf)), None)
        if candidate is None:
            end, steps = e, 0
            break
        e = candidate
        path.append(box)
    for i, form_box in enumerate(reversed(path)):
        form_box[1:] = (end, steps + i)
    return end


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
            if ret == ABSTRACT and node != leaf:
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
    t = type(v)
    if t is int:
        half = v // 2 if v >= 0 else -((-v) // 2)
        if v != 0:
            yield 0
        if half not in (0, v):
            yield half
    elif t is VSome:
        for x in _literal_variants(v.value):
            yield VSome(x)
    elif t is tuple:
        yield from _shortened(v)
        for i, x in enumerate(v):
            for y in _literal_variants(x):
                yield _replaced(v, i, y)
    elif t is str:
        yield from _shortened(v)


def _shortened(items):
    """items less each single element, then their front half if at least 3 long."""
    for i in range(len(items)):
        yield items[:i] + items[i + 1 :]
    if len(items) >= 3:
        yield items[: len(items) // 2]


_VAR_FN = Var()
_ZERO_FN = Const(0)


def _fn_variants(a):
    """A function argument replaced by var, then by the constant 0; none for others."""
    if not isinstance(a, FnAst):
        return
    if a != _VAR_FN:
        yield _VAR_FN
    if a not in (_VAR_FN, _ZERO_FN):
        yield _ZERO_FN

