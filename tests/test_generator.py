"""Random generation: well-typedness, distributions, determinism."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdiff.generator import (
    GenConfig,
    Rng,
    gen_expr,
    gen_fn_ast,
    mix_seed,
    size_schedule,
    value_rules,
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
    OptionTy,
    parse_signature,
    validate_signature,
)
from specdiff.interp import HarnessBug, interp
from specdiff.suite import get_implementation, get_suite
from specdiff.symexpr import (
    _BIN_OPS,
    BinOp,
    Call,
    Const,
    Expr,
    FnAst,
    Seq,
    VNone,
    VSome,
    size_of,
    to_text,
    type_of,
)

from models import (
    MAPPED_SIG,
    TALLY_SIG,
    MappedSkipsFirst,
    ModelMapped,
    ModelTally,
    SizeReturnsHalf,
    TallyIgnoresFlag,
)
from oracles import exprs_by_depth, fn_depth, oracle_gen_expr, oracle_gen_literal, oracle_interp


def walk_args(e):
    """Every argument of e that is not a subexpression, in preorder."""
    if isinstance(e, Seq):
        yield from walk_args(e.first)
        yield from walk_args(e.second)
        return
    for arg in e.args:
        if isinstance(arg, Expr):
            yield from walk_args(arg)
        else:
            yield arg


def walk_int_literals(e):
    return (arg for arg in walk_args(e) if type(arg) is int)


class TestGenExpr:
    def test_size_zero_forces_the_leaf(self, finite_set_sig):
        for seed in range(50):
            e = gen_expr(ABSTRACT, 0, finite_set_sig, GenConfig(), Rng(seed))
            assert to_text(e) == "(empty)"

    def test_int_literals_span_the_size_range(self, finite_set_sig):
        # at the root the budget is 10, so direct literals lie in [0, 10];
        # nested budgets only shrink
        seen = set()
        for i in range(10_000):
            e = gen_expr(BOOL, 10, finite_set_sig, GenConfig(), Rng(mix_seed(3, i)))
            lits = list(walk_int_literals(e))
            assert all(0 <= k <= 10 for k in lits)
            seen.update(lits)
        assert seen == set(range(11))

    @given(
        st.sampled_from(["finite_set", "bst_map", "counter"]),
        st.integers(0, 60),
        st.floats(0, 1),
        st.integers(0, 2**64 - 1),
    )
    def test_top_level_ints_stay_within_the_budget(self, suite_name, size, seq_p, seed):
        # a reused int was drawn earlier in the same trial, at a budget of
        # at most size, so reuse keeps the bound
        sig = get_suite(suite_name).signature
        cfg = GenConfig(seq_probability=seq_p)
        for ty in validate_signature(sig):
            e = gen_expr(ty, size, sig, cfg, Rng(seed))
            assert all(0 <= k <= size for k in walk_int_literals(e))

    def test_reused_ints_make_keys_collide(self, bst_map_sig):
        # The first 1,000 trials of a seed-0 campaign: without reuse, 356 of
        # them hold two equal top-level ints, and with it 504 (465 with reuse
        # at 1/4, before the top-value rule).  The bound lies between, so
        # generation without reuse fails it.
        cfg = GenConfig(seed=0)
        observables = validate_signature(bst_map_sig)
        colliding = 0
        for i in range(1_000):
            ty = observables[i % len(observables)]
            e = gen_expr(ty, size_schedule(i, cfg), bst_map_sig, cfg, Rng(mix_seed(0, i)))
            ints = list(walk_int_literals(e))
            colliding += len(set(ints)) < len(ints)
        assert colliding > 416

    def test_fresh_ints_hit_the_budget(self, bst_map_sig):
        # The first 1,000 trials of a seed-0 campaign, budget 0 left out (every
        # int is 0 there): without the top-value rule, 34 of their top-level
        # ints equal the trial's size budget, and with it 167.  The bound lies
        # between, so generation without the rule fails it.
        cfg = GenConfig(seed=0)
        observables = validate_signature(bst_map_sig)
        at_budget = 0
        for i in range(1_000):
            ty = observables[i % len(observables)]
            size = size_schedule(i, cfg)
            e = gen_expr(ty, size, bst_map_sig, cfg, Rng(mix_seed(0, i)))
            at_budget += sum(k == size for k in walk_int_literals(e) if size > 0)
        assert at_budget > 100

    def test_small_draws_within_enumeration(self, finite_set_sig):
        # sizes <= 2 keep depth <= 3 and literals <= 2, so everything the
        # generator emits must already be in the brute-force enumeration
        universe = {
            to_text(e)
            for e in exprs_by_depth(finite_set_sig, BOOL, 3, int_pool=(0, 1, 2))
        }
        for i in range(4_000):
            size = i % 3
            e = gen_expr(BOOL, size, finite_set_sig, GenConfig(), Rng(mix_seed(7, i)))
            assert to_text(e) in universe

    @pytest.mark.parametrize("suite_name", ["finite_set", "bst_map", "counter"])
    def test_well_typed_across_sizes(self, suite_name):
        entry = get_suite(suite_name)
        sig = entry.signature
        cfg = GenConfig()
        observables = validate_signature(sig)
        for i in range(2_000):
            ty = observables[i % len(observables)]
            e = gen_expr(ty, size_schedule(i, cfg), sig, cfg, Rng(mix_seed(11, i)))
            assert type_of(e, sig) == ty

    def test_termination_bound(self, bst_map_sig):
        cfg = GenConfig()
        for i in range(2_000):
            size = size_schedule(i, cfg)
            e = gen_expr(INT, size, bst_map_sig, cfg, Rng(mix_seed(13, i)))
            assert size_of(e) <= 2 * (size + 1)

    def test_root_coverage_at_size_two(self, finite_set_sig):
        roots = Counter()
        for i in range(10_000):
            e = gen_expr(BOOL, 2, finite_set_sig, GenConfig(), Rng(mix_seed(17, i)))
            roots[e.op] += 1
        bool_ops = {op.name for op in finite_set_sig.ops if op.ret == BOOL}
        assert set(roots) == bool_ops

    def test_deterministic(self, bst_map_sig):
        a = [
            gen_expr(INT, 20, bst_map_sig, GenConfig(), Rng(mix_seed(23, i)))
            for i in range(100)
        ]
        b = [
            gen_expr(INT, 20, bst_map_sig, GenConfig(), Rng(mix_seed(23, i)))
            for i in range(100)
        ]
        assert a == b

    def test_immutable_signature_never_yields_seq(self, finite_set_sig):
        for i in range(2_000):
            e = gen_expr(BOOL, 30, finite_set_sig, GenConfig(), Rng(mix_seed(29, i)))
            assert not isinstance(e, Seq)

    def test_seq_probability_zero_never_yields_seq(self, counter_sig):
        cfg = GenConfig(seq_probability=0.0)
        for i in range(2_000):
            e = gen_expr(INT, 30, counter_sig, cfg, Rng(mix_seed(31, i)))
            assert not isinstance(e, Seq)

    def test_seq_appears_for_mutable_signatures(self, counter_sig):
        hits = sum(
            isinstance(gen_expr(INT, 30, counter_sig, GenConfig(), Rng(mix_seed(37, i))), Seq)
            for i in range(2_000)
        )
        # Bernoulli(1/4) at the root; allow wide slack
        assert 300 < hits < 700

    def test_seq_effect_arm_drawn_per_op(self, counter_sig):
        # the effect arm takes the return type of a uniformly drawn op, so
        # the two commands (incr, add) head half of all effect arms; a draw
        # per distinct return type would give unit only a third
        heads = Counter()
        for i in range(2_000):
            e = gen_expr(INT, 30, counter_sig, GenConfig(), Rng(mix_seed(67, i)))
            heads.update(_effect_head(s.first) for s in _seq_nodes(e))
        assert set(heads) == {op.name for op in counter_sig.ops}
        commands = heads["incr"] + heads["add"]
        assert 0.43 < commands / sum(heads.values()) < 0.57

    def test_no_op_for_target_type(self):
        sig = parse_signature("signature S\nabstract t\nop empty : t\nop size : t -> int\nend")
        with pytest.raises(ValueError, match="no op"):
            gen_expr(BOOL, 5, sig, GenConfig(), Rng(0))


# Each signature with two implementations to evaluate on; the model ones
# take bool, option, list and function arguments, which no bundled suite does.
PLANNED_CASES = {
    "finite_set": lambda: (get_implementation("finite_set", "listset"), SizeReturnsHalf()),
    "bst_map": lambda: tuple(get_implementation("bst_map", n) for n in ("correct", "b4")),
    "counter": lambda: tuple(get_implementation("counter", n) for n in ("int_counter", "saturating")),
    "tally": lambda: (ModelTally(), TallyIgnoresFlag()),
    "mapped": lambda: (ModelMapped(), MappedSkipsFirst()),
}
MODEL_SIGS = {"tally": TALLY_SIG, "mapped": MAPPED_SIG}


def outcome_or_bug(evaluate, e, impl, sig):
    impl.reset()
    try:
        return evaluate(e, impl, sig)
    except HarnessBug as bug:
        return str(bug)


class TestPlannedAgainstOracle:
    """gen_expr and interp read per-op plans; the oracles re-derive every node.

    Expressions, outcomes and values are compared by repr as well, since
    1 == True would let an int drawn for a bool pass."""

    SEEDS = 600

    @pytest.mark.parametrize("name", sorted(PLANNED_CASES))
    def test_same_expressions_and_outcomes(self, name):
        if name in MODEL_SIGS:
            sig = parse_signature(MODEL_SIGS[name])
        else:
            sig = get_suite(name).signature
        observables = validate_signature(sig)
        impls = PLANNED_CASES[name]()
        for cfg in (GenConfig(seed=3), GenConfig(max_size=300, seq_probability=0.6, seed=4)):
            for i in range(self.SEEDS):
                target, size = observables[i % len(observables)], size_schedule(i, cfg)
                seed = mix_seed(cfg.seed, i)
                e = gen_expr(target, size, sig, cfg, Rng(seed))
                want = oracle_gen_expr(target, size, sig, cfg, Rng(seed))
                assert e == want and repr(e) == repr(want), (name, i)
                for impl in impls:
                    got = outcome_or_bug(interp, e, impl, sig)
                    want = outcome_or_bug(oracle_interp, e, impl, sig)
                    assert got == want and repr(got) == repr(want), (name, i)

    def test_same_literals(self):
        types = [INT, BOOL, CHAR, STR, UNIT, ListTy(OptionTy(CHAR)), OptionTy(ListTy(STR)),
                 ListTy(ListTy(BOOL)), OptionTy(OptionTy(INT))]
        for ty in types:
            for seed in range(self.SEEDS):
                size = seed % 300
                want = oracle_gen_literal(ty, size, Rng(seed))
                got = value_rules(ty).draw(size, Rng(seed))
                assert got == want and repr(got) == repr(want), (ty, seed)
        for seed in range(self.SEEDS):
            want = gen_fn_ast(seed % 300, Rng(seed))
            assert value_rules(FunTy(INT, INT)).draw(seed % 300, Rng(seed)) == want, seed
        with pytest.raises(ValueError, match="cannot generate a literal"):
            value_rules(ABSTRACT).draw(3, Rng(0))

    def test_model_signatures_reach_every_argument_kind(self):
        kinds = set()
        for text in MODEL_SIGS.values():
            sig = parse_signature(text)
            observables = validate_signature(sig)
            for i in range(self.SEEDS):
                e = gen_expr(observables[0], i % 31, sig, GenConfig(), Rng(i))
                for a in walk_args(e):
                    kinds.add("FnAst" if isinstance(a, FnAst) else type(a).__name__)
        assert {"bool", "VNone", "VSome", "tuple", "FnAst"} <= kinds


class TestGenLiteral:
    def test_string_lengths_and_alphabet(self):
        lengths = set()
        for i in range(3_000):
            lit = value_rules(STR).draw(10, Rng(mix_seed(41, i)))
            assert type(lit) is str
            assert all("a" <= c <= "z" for c in lit)
            lengths.add(len(lit))
        assert lengths == set(range(7))  # capped at min(size, 6)

    def test_list_lengths(self):
        lengths = set()
        for i in range(3_000):
            lit = value_rules(ListTy(INT)).draw(10, Rng(mix_seed(43, i)))
            assert type(lit) is tuple
            assert all(type(x) is int and 0 <= x <= 10 for x in lit)
            lengths.add(len(lit))
        assert lengths == set(range(6))  # capped at min(size, 5)

    def test_option_none_rate(self):
        nones = 0
        for i in range(8_000):
            lit = value_rules(OptionTy(INT)).draw(5, Rng(mix_seed(47, i)))
            if isinstance(lit, VNone):
                nones += 1
            else:
                assert isinstance(lit, VSome)
        assert 0.20 < nones / 8_000 < 0.30

    def test_int_at_size_zero(self):
        assert all(
            repr(value_rules(INT).draw(0, Rng(mix_seed(53, i)))) == "0" for i in range(50)
        )


class TestGenFnAst:
    def test_depth_bound_holds(self):
        for i in range(10_000):
            assert fn_depth(gen_fn_ast(10, Rng(mix_seed(59, i)))) <= 3

    def test_constants_at_size_zero(self):
        consts = set()
        for i in range(2_000):
            fn = gen_fn_ast(0, Rng(mix_seed(61, i)))
            consts.update(
                node.value
                for node in _fn_nodes(fn)
                if isinstance(node, Const)
            )
        assert consts == {0, 1}  # [0, max(size, 1)] with size = 0

    def test_deterministic(self):
        assert gen_fn_ast(7, Rng(12345)) == gen_fn_ast(7, Rng(12345))

    def test_operators_are_those_eval_fn_knows(self):
        ops = {
            node.op
            for i in range(2_000)
            for node in _fn_nodes(gen_fn_ast(10, Rng(mix_seed(67, i))))
            if isinstance(node, BinOp)
        }
        assert ops == set(_BIN_OPS)


def _seq_nodes(e):
    if isinstance(e, Seq):
        yield e
        yield from _seq_nodes(e.first)
        yield from _seq_nodes(e.second)


def _effect_head(e):
    """The op that fixes an effect arm's type: a seq has its second arm's type."""
    while isinstance(e, Seq):
        e = e.second
    return e.op


def _fn_nodes(fn):
    yield fn
    for attr in ("left", "right"):
        child = getattr(fn, attr, None)
        if child is not None:
            yield from _fn_nodes(child)


class TestRng:
    RANGES = [(0, 0), (0, 1), (0, 2), (3, 9), (0, 25), (-5, 5), (0, 30), (7, 7), (0, 1000),
              (0, 2**40 + 3)]
    LENGTHS = [1, 2, 3, 5, 6, 7, 33]
    PROBABILITIES = [0.0, 0.25, 0.5, 1.0]

    def test_draws_match_random_random(self):
        # one interleaved stream per seed: a draw that takes a different
        # number of bits from the generator shifts every later draw
        for seed in [*range(500), 2**64 - 1, 2**64 + 5, -1]:
            rng = Rng(seed)
            ref = random.Random(seed & (2**64 - 1))
            for lo, hi in self.RANGES:
                assert rng.int_in(lo, hi) == ref.randint(lo, hi), (seed, lo, hi)
            for n in self.LENGTHS:
                xs = tuple(range(n))
                assert rng.choice(xs) == xs[ref.randrange(n)], (seed, n)
            for p in self.PROBABILITIES:
                assert rng.bernoulli(p) == (ref.random() < p), (seed, p)
            for lo, hi in self.RANGES:
                assert rng.int_in(lo, hi) == ref.randint(lo, hi), (seed, lo, hi)

    def test_empty_draws_raise(self):
        rng = Rng(0)
        with pytest.raises(ValueError):
            rng.int_in(1, 0)
        with pytest.raises(ValueError):
            rng.int_in(0, -5)
        with pytest.raises(ValueError):
            rng.choice(())


class TestSizeSchedule:
    @pytest.mark.parametrize("index,want", [(0, 0), (30, 30), (31, 0), (61, 30), (62, 0)])
    def test_cycles_through_sizes(self, index, want):
        assert size_schedule(index, GenConfig(max_size=30)) == want

    @given(st.integers(0, 10**6), st.integers(0, 100))
    def test_always_within_bounds(self, index, max_size):
        assert 0 <= size_schedule(index, GenConfig(max_size=max_size)) <= max_size


class TestMixSeed:
    def test_distinct_trials_decorrelate(self):
        seeds = {mix_seed(0, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_stable(self):
        # pinned output: the per-trial sub-seed derivation must never change,
        # or replay of recorded trials breaks
        assert mix_seed(0, 0) == mix_seed(0, 0)
        assert mix_seed(0, 0) != mix_seed(0, 1)
        assert mix_seed(1, 0) != mix_seed(0, 0)
