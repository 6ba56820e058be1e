"""Naive-versus-fast kernel benchmarks with hard agreement gates.

Each benchmark runs both paths on identical random inputs, checks that
they agree within the kernel's tolerance (a disagreement raises, it is
never just reported), and only then times them: median wall time over
``repeats`` runs, after two untimed warm-up runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics, selection
from .errors import BadSpec, BenchGateFailure
from .types import build_token_matrix

# Acceptance floors for commodity hardware; the reference figures from the
# original measurements are far higher, so these are deliberately derated.
SPEEDUP_FLOORS = {"diversity": 5.0, "alignment": 1.1, "pareto": 2.0}

DIVERSITY_TOL = 1e-6
ALIGNMENT_ATOL = 1e-4
ALIGNMENT_RTOL = 1e-5

DEFAULT_REPEATS = 20
DEFAULT_SEED = 7


@dataclass(frozen=True)
class BenchResult:
    """One naive/fast comparison: timings, speedup and worst disagreement."""

    kernel: str
    n: int
    dim: int
    t_naive: float
    t_fast: float
    speedup: float
    max_abs_err: float


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    fn()
    fn()  # two warm-ups, excluded from the median
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _random_matrix(rng: np.random.Generator, n: int, dim: int):
    return build_token_matrix(n, dim, rng.standard_normal(n * dim))


def bench_diversity(
    n: int = 8192,
    dim: int = 64,
    repeats: int = DEFAULT_REPEATS,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Intra-image diversity: quadratic gram sum versus aggregate identity."""
    rng = rng or np.random.default_rng(DEFAULT_SEED)
    mat = _random_matrix(rng, n, dim)
    naive = metrics.intra_diversity_naive(mat)
    fast = metrics.intra_diversity_fast(mat)
    err = abs(fast - naive)
    if err > DIVERSITY_TOL * max(1.0, abs(naive)):
        raise BenchGateFailure(
            f"diversity paths disagree by {err:.3e} at n={n}, dim={dim}"
        )
    t_naive = _median_seconds(lambda: metrics.intra_diversity_naive(mat), repeats)
    t_fast = _median_seconds(lambda: metrics.intra_diversity_fast(mat), repeats)
    return BenchResult("diversity", n, dim, t_naive, t_fast, t_naive / t_fast, err)


def bench_alignment(
    n: int = 8192,
    m_text: int = 128,
    dim: int = 64,
    repeats: int = DEFAULT_REPEATS,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Text alignment: all-pairs squared distances versus expanded form."""
    rng = rng or np.random.default_rng(DEFAULT_SEED)
    tokens = _random_matrix(rng, n, dim)
    text = _random_matrix(rng, m_text, dim)
    naive = metrics.alignment_naive(tokens, text)

    def run_fast():
        ctx = metrics.build_alignment_context(text)
        return metrics.alignment_fast(tokens, ctx)

    fast = run_fast()
    err = float(np.max(np.abs(fast - naive)))
    tol = ALIGNMENT_ATOL + ALIGNMENT_RTOL * float(np.max(np.abs(naive)))
    if err > tol:
        raise BenchGateFailure(
            f"alignment paths disagree by {err:.3e} at n={n}, m={m_text}, dim={dim}"
        )
    t_naive = _median_seconds(lambda: metrics.alignment_naive(tokens, text), repeats)
    t_fast = _median_seconds(run_fast, repeats)
    return BenchResult("alignment", n, dim, t_naive, t_fast, t_naive / t_fast, err)


def bench_pareto(
    n: int = 500,
    budget: int = 14,
    repeats: int = DEFAULT_REPEATS,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Budgeted Pareto selection: pairwise domination versus sort-and-scan."""
    rng = rng or np.random.default_rng(DEFAULT_SEED)
    points = [
        selection.ParetoPoint(i, float(v), float(a))
        for i, (v, a) in enumerate(rng.random((n, 2)))
    ]
    naive = selection.pareto_budgeted(
        points, budget, front_fn=selection.pareto_front_naive
    )
    fast = selection.pareto_budgeted(
        points, budget, front_fn=selection.pareto_front_sortscan
    )
    if naive != fast:
        raise BenchGateFailure(
            f"pareto selections differ at n={n}, budget={budget}"
        )
    t_naive = _median_seconds(
        lambda: selection.pareto_budgeted(
            points, budget, front_fn=selection.pareto_front_naive
        ),
        repeats,
    )
    t_fast = _median_seconds(
        lambda: selection.pareto_budgeted(
            points, budget, front_fn=selection.pareto_front_sortscan
        ),
        repeats,
    )
    return BenchResult("pareto", n, 2, t_naive, t_fast, t_naive / t_fast, 0.0)


def run_suite(
    kernels: tuple[str, ...] = ("diversity", "alignment", "pareto"),
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    n: int | None = None,
    dim: int = 64,
    m_text: int = 128,
    budget: int = 14,
) -> list[BenchResult]:
    """Run the requested kernels with shared seeding; order is fixed.

    ``n`` overrides the per-kernel default problem size (8192 for the two
    metric kernels, 500 for pareto).
    """
    results = []
    for kernel in kernels:
        rng = np.random.default_rng(seed)
        if kernel == "diversity":
            results.append(bench_diversity(n or 8192, dim, repeats, rng))
        elif kernel == "alignment":
            results.append(bench_alignment(n or 8192, m_text, dim, repeats, rng))
        elif kernel == "pareto":
            results.append(bench_pareto(n or 500, budget, repeats, rng))
        else:
            raise BadSpec(f"unknown benchmark kernel {kernel!r}")
    return results
