"""Adaptive pruning of multi-image visual token sequences.

Quantifies intra-image and inter-image redundancy directly from raw token
embeddings, allocates retention budgets from those signals, and selects a
compact, diverse, text-aligned subset in two stages.  Every quadratic
scoring kernel ships with an algebraically equivalent linear-time fast
path, verified against the naive form in the test suite.
"""

from .allocation import image_weights, per_image_budgets, stage1_budget
from .bench import (
    SPEEDUP_FLOORS,
    BenchResult,
    bench_alignment,
    bench_diversity,
    bench_pareto,
    run_suite,
)
from .errors import (
    BadBudget,
    BadConfig,
    BadMagic,
    BadSpec,
    BadSubset,
    BadVersion,
    BenchGateFailure,
    BudgetUnsatisfiable,
    DimMismatch,
    EmptySteps,
    EmptyText,
    InfeasibleBudget,
    IoFailure,
    NonFiniteRow,
    PositionMismatch,
    SelectionMismatch,
    ShapeMismatch,
    TokenTrimError,
    TooFewTokens,
    TruncatedFile,
    ZeroMeanImage,
    ZeroNormRow,
    exit_code_for,
)
from .io_formats import (
    SyntheticSpec,
    generate_synthetic,
    read_bundle,
    report_document,
    result_document,
    write_bundle,
    write_result,
)
from .metrics import (
    AlignmentContext,
    alignment_fast,
    alignment_naive,
    build_alignment_context,
    inter_variation_mean,
    inter_variation_positionwise,
    inter_variation_steps,
    intra_diversity_fast,
    intra_diversity_mean,
    intra_diversity_naive,
    s_factor,
    token_diversity_fast,
    token_diversity_naive,
)
from .pipeline import analyze, apply_selection, prune
from .selection import (
    ParetoPoint,
    greedy_objective_value,
    greedy_rep_max,
    pareto_budgeted,
    pareto_front_naive,
    pareto_front_sortscan,
)
from .types import (
    PruneConfig,
    RedundancyReport,
    ResolvedBudgets,
    Selection,
    TokenBundle,
    TokenMatrix,
    build_token_matrix,
    make_bundle,
    resolve_config,
    round_half_away,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # types
    "TokenMatrix",
    "TokenBundle",
    "PruneConfig",
    "ResolvedBudgets",
    "RedundancyReport",
    "Selection",
    "build_token_matrix",
    "make_bundle",
    "resolve_config",
    "round_half_away",
    # metrics
    "AlignmentContext",
    "build_alignment_context",
    "intra_diversity_naive",
    "intra_diversity_fast",
    "intra_diversity_mean",
    "inter_variation_steps",
    "inter_variation_positionwise",
    "inter_variation_mean",
    "s_factor",
    "alignment_naive",
    "alignment_fast",
    "token_diversity_naive",
    "token_diversity_fast",
    # selection
    "ParetoPoint",
    "greedy_rep_max",
    "greedy_objective_value",
    "pareto_front_naive",
    "pareto_front_sortscan",
    "pareto_budgeted",
    # allocation
    "stage1_budget",
    "image_weights",
    "per_image_budgets",
    # pipeline
    "analyze",
    "prune",
    "apply_selection",
    # io
    "SyntheticSpec",
    "generate_synthetic",
    "read_bundle",
    "write_bundle",
    "write_result",
    "report_document",
    "result_document",
    # bench
    "BenchResult",
    "bench_diversity",
    "bench_alignment",
    "bench_pareto",
    "run_suite",
    "SPEEDUP_FLOORS",
    # errors
    "TokenTrimError",
    "ShapeMismatch",
    "ZeroNormRow",
    "NonFiniteRow",
    "DimMismatch",
    "BadConfig",
    "EmptyText",
    "BudgetUnsatisfiable",
    "ZeroMeanImage",
    "PositionMismatch",
    "EmptySteps",
    "TooFewTokens",
    "BadBudget",
    "BadSubset",
    "InfeasibleBudget",
    "SelectionMismatch",
    "BadMagic",
    "BadVersion",
    "TruncatedFile",
    "BadSpec",
    "IoFailure",
    "BenchGateFailure",
    "exit_code_for",
]
