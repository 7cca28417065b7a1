"""Per-layer tracing of specdiff from outside the program.

`install` replaces public functions at the point where their caller binds
them (`specdiff.harness` and `specdiff.cli` module attributes) with
wrappers that open a span, and makes `get_implementation` return a
delegating `Implementation` proxy whose `apply` is a span too.  Each span
adds its duration to its key's total, its duration minus its child spans
to the key's self time, and one to the key's call count.  Spans opened
while a shrink is running get the key suffix "@shrink", so the trial loop
and the shrinker are told apart.  A wrapped name that no longer exists
raises TraceError, so a refactor cannot move time into "unattributed"
unnoticed.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter_ns

import specdiff.cli as cli
import specdiff.harness as harness
from specdiff.interp import Implementation
from specdiff.symexpr import num_seq, size_of

SHRINK = "harness.shrink"
APPLY = "suite.apply"


class TraceError(RuntimeError):
    """A name the tracer wraps is missing, or the program bound it differently."""


class Tracer:
    """A span stack that accumulates self time, total time and calls per key."""

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[list[int]] = []  # child time of each open span
        self._shrinking = 0

    def key(self, name: str) -> str:
        return f"{name}@shrink" if self._shrinking and name not in (SHRINK, APPLY) else name

    def call(self, key: str, fn, *args, **kwargs):
        children = [0]
        self._open.append(children)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self._open.pop()
            self.total_ns[key] += elapsed
            self.self_ns[key] += elapsed - children[0]
            self.calls[key] += 1
            if self._open:
                self._open[-1][0] += elapsed

    def shrink(self, fn, *args, **kwargs):
        self._shrinking += 1
        try:
            return self.call(SHRINK, fn, *args, **kwargs)
        finally:
            self._shrinking -= 1


class TracedImplementation(Implementation):
    """Delegates to an implementation under test, timing each apply."""

    def __init__(self, inner: Implementation, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.side = ""
        self._tracer = tracer

    def reset(self) -> None:
        self.inner.reset()

    def apply(self, op, args):
        return self._tracer.call(APPLY, self.inner.apply, op, args)


def _span(tracer: Tracer, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            return tracer.call(tracer.key(name), original, *args, **kwargs)
        return wrapper
    return make


def _gen_expr(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            e = tracer.call(tracer.key("generator.gen"), original, *args, **kwargs)
            # Counted in a span of its own so the caller's self time excludes it.
            tracer.call("trace.bookkeeping", _count_nodes, tracer, e)
            return e
        return wrapper
    return make


def _count_nodes(tracer: Tracer, e) -> None:
    tracer.counts["nodes"] += size_of(e)
    tracer.counts["seqs"] += num_seq(e)


def _interp(tracer: Tracer):
    def make(original):
        def wrapper(e, impl, *args, **kwargs):
            side = getattr(impl, "side", "")
            if side not in ("a", "b"):
                raise TraceError("interp called on an implementation the tracer did not bind")
            return tracer.call(tracer.key(f"interp.{side}"), original, e, impl, *args, **kwargs)
        return wrapper
    return make


def _run_differential(tracer: Tracer, from_bench: bool):
    def make(original):
        def wrapper(sig, impl_a, impl_b, *args, **kwargs):
            if not (isinstance(impl_a, TracedImplementation)
                    and isinstance(impl_b, TracedImplementation)) or impl_a is impl_b:
                raise TraceError("run_differential did not get two traced implementations")
            impl_a.side, impl_b.side = "a", "b"
            result = tracer.call("harness.loop", original, sig, impl_a, impl_b, *args, **kwargs)
            tracer.counts["records_kept"] += len(result.records)
            tracer.counts["bench_runs"] += from_bench
            return result
        return wrapper
    return make


def _shrink(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            return tracer.shrink(original, *args, **kwargs)
        return wrapper
    return make


def _emit(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            sink = args[-1]
            before = sink.tell()
            try:
                return tracer.call("report.emit", original, *args, **kwargs)
            finally:
                tracer.counts["report_bytes"] += sink.tell() - before
        return wrapper
    return make


def _get_implementation(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            inner = tracer.call("suite.construct", original, *args, **kwargs)
            return TracedImplementation(inner, tracer)
        return wrapper
    return make


def install(tracer: Tracer):
    """Wrap every traced binding; returns a function that restores the originals."""
    plan = [
        (harness, "gen_expr", _gen_expr(tracer)),
        (harness, "mix_seed", _span(tracer, "generator.seed")),
        (harness, "Rng", _span(tracer, "generator.seed")),
        (harness, "interp", _interp(tracer)),
        (harness, "outcome_equal", _span(tracer, "interp.compare")),
        (harness, "to_text", _span(tracer, "symexpr.to_text")),
        (harness, "depth", _span(tracer, "symexpr.depth")),
        (harness, "size_of", _span(tracer, "symexpr.size_of")),
        (harness, "num_seq", _span(tracer, "symexpr.num_seq")),
        (harness, "type_of", _span(tracer, "symexpr.type_of")),
        (harness, "shrink", _shrink(tracer)),
        (harness, "validate_signature", _span(tracer, "sigdsl.validate")),
        (harness, "run_differential", _run_differential(tracer, from_bench=True)),
        (cli, "run_differential", _run_differential(tracer, from_bench=False)),
        (cli, "bench_trials_to_failure", _span(tracer, "harness.bench")),
        (cli, "emit_campaign", _emit(tracer)),
        (cli, "emit_bench", _emit(tracer)),
        (cli, "get_implementation", _get_implementation(tracer)),
    ]
    missing = [f"{m.__name__}.{n}" for m, n, _ in plan if not hasattr(m, n)]
    if missing:
        raise TraceError(f"traced names no longer exist: {', '.join(missing)}")
    originals = [(m, n, getattr(m, n)) for m, n, _ in plan]
    for module, name, make in plan:
        setattr(module, name, make(getattr(module, name)))

    def restore() -> None:
        for module, name, original in originals:
            setattr(module, name, original)

    return restore


def traced_main(tracer: Tracer):
    """cli.main as a span of its own: its self time is the CLI's own work."""
    main = cli.main
    return lambda argv: tracer.call("cli", main, argv)


def layer_metrics(t: Tracer, wall_s: float, trials: int, invocations: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""

    def per(x: float, n: float) -> float:
        return x / n if n else 0.0

    s, total, calls = t.self_ns, t.total_ns, t.calls
    failures = calls[SHRINK]
    wall_ns = wall_s * 1e9
    interp_self = s["interp.a"] + s["interp.b"] + s["interp.a@shrink"] + s["interp.b@shrink"]
    features = ("symexpr.to_text", "symexpr.depth", "symexpr.size_of", "symexpr.num_seq")
    return {
        "sigdsl.validate_calls": calls["sigdsl.validate"],
        "sigdsl.validate_ns": total["sigdsl.validate"],
        "generator.seed_ns_per_trial": per(s["generator.seed"], trials),
        "generator.gen_ns_per_trial": per(s["generator.gen"], trials),
        "generator.nodes_per_trial": per(t.counts["nodes"], trials),
        "generator.seq_per_trial": per(t.counts["seqs"], trials),
        "generator.ns_per_node": per(s["generator.gen"], t.counts["nodes"]),
        "symexpr.features_ns_per_trial": per(sum(s[k] for k in features), trials),
        "symexpr.features_kept_ratio": per(t.counts["records_kept"], calls["symexpr.depth"]),
        "symexpr.type_of_ns_per_failure": per(
            total["symexpr.type_of"] + total["symexpr.type_of@shrink"], failures
        ),
        "interp.a_ns_per_trial": per(s["interp.a"], trials),
        "interp.b_ns_per_trial": per(s["interp.b"], trials),
        "interp.apply_calls_per_trial": per(calls[APPLY], trials),
        "interp.ns_per_apply": per(interp_self, calls[APPLY]),
        "interp.compare_ns_per_trial": per(s["interp.compare"], trials),
        "suite.apply_ns_per_trial": per(total[APPLY], trials),
        "suite.apply_share": per(total[APPLY], wall_ns),
        "harness.loop_ns_per_trial": per(s["harness.loop"], trials),
        "harness.shrink_ns_per_failure": per(total[SHRINK], failures),
        "harness.shrink_self_ns_per_failure": per(s[SHRINK], failures),
        "harness.shrink_candidates_per_failure": per(calls["interp.a@shrink"], failures),
        "harness.bench_runs": t.counts["bench_runs"],
        "report.emit_ns_per_trial": per(total["report.emit"], trials),
        "report.bytes_per_trial": per(t.counts["report_bytes"], trials),
        "cli.self_ns_per_invocation": per(s["cli"], invocations),
        "trace.unattributed_share": per(wall_ns - sum(s.values()), wall_ns),
    }


# Units of the per-layer metrics by name suffix; the rest are nanoseconds.
_UNITS = {
    "validate_calls": "count",
    "nodes_per_trial": "count",
    "seq_per_trial": "count",
    "features_kept_ratio": "ratio",
    "apply_calls_per_trial": "count",
    "apply_share": "ratio",
    "shrink_candidates_per_failure": "count",
    "bench_runs": "count",
    "bytes_per_trial": "count",
    "unattributed_share": "ratio",
    "overhead_ratio": "ratio",
}


def unit(metric: str) -> str:
    return _UNITS.get(metric.rsplit(".", 1)[-1], "ns")


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
