"""Differential property testing of two implementations of one signature.

Declare a module signature in a small IDL, generate random well-typed
expressions over it, evaluate them against two implementations, and
compare the outcomes at concrete types.  See the README for the flow.
"""

from .generator import GenConfig, Rng, gen_expr, gen_fn_ast, mix_seed, size_schedule
from .harness import CampaignResult, bench_trials_to_failure, run_differential, shrink
from .interp import (
    ContractViolation,
    Failed,
    HarnessBug,
    Implementation,
    Outcome,
    interp,
    outcome_equal,
)
from .report import ReportLine, emit_campaign, parse_report, summarize
from .sigdsl import (
    ParseError,
    Signature,
    ValidationError,
    parse_signature,
    parse_ty,
    render_signature,
    render_ty,
    validate_signature,
)
from .symexpr import (
    Call,
    Expr,
    Seq,
    depth,
    eval_fn,
    from_text,
    num_seq,
    size_of,
    to_text,
    type_of,
)

__all__ = [
    "Call",
    "CampaignResult",
    "ContractViolation",
    "Expr",
    "Failed",
    "GenConfig",
    "HarnessBug",
    "Implementation",
    "Outcome",
    "ParseError",
    "ReportLine",
    "Rng",
    "Seq",
    "Signature",
    "ValidationError",
    "bench_trials_to_failure",
    "depth",
    "emit_campaign",
    "eval_fn",
    "from_text",
    "gen_expr",
    "gen_fn_ast",
    "interp",
    "mix_seed",
    "num_seq",
    "outcome_equal",
    "parse_report",
    "parse_signature",
    "parse_ty",
    "render_signature",
    "render_ty",
    "run_differential",
    "shrink",
    "size_of",
    "size_schedule",
    "summarize",
    "to_text",
    "type_of",
    "validate_signature",
]
