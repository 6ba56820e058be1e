"""Adaptive pruning of multi-image visual token sequences.

Quantifies intra-image and inter-image redundancy directly from raw token
embeddings, allocates retention budgets from those signals, and selects a
compact, diverse, text-aligned subset in two stages.

The package root exports the library workflow: build or read a bundle,
``analyze`` or ``prune`` it, apply and write the result.  Everything else
is reached through its submodule: error classes in ``tokentrim.errors``,
the scoring kernels in ``tokentrim.metrics`` and ``tokentrim.selection``,
budget apportionment in ``tokentrim.allocation``, and the quadratic
reference kernels with their benchmark in ``tokentrim.bench``.
"""

from .errors import TokenTrimError, exit_code_for
from .io_formats import (
    SyntheticSpec,
    generate_synthetic,
    read_bundle,
    write_bundle,
    write_result,
)
from .pipeline import analyze, apply_selection, prune
from .types import (
    PruneConfig,
    RedundancyReport,
    Selection,
    TokenBundle,
    TokenMatrix,
    build_token_matrix,
    make_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # types
    "TokenMatrix",
    "TokenBundle",
    "PruneConfig",
    "RedundancyReport",
    "Selection",
    "build_token_matrix",
    "make_bundle",
    # pipeline
    "analyze",
    "prune",
    "apply_selection",
    # io
    "read_bundle",
    "write_bundle",
    "write_result",
    "SyntheticSpec",
    "generate_synthetic",
    # errors
    "TokenTrimError",
    "exit_code_for",
]
