"""Quadratic reference kernels and the naive-versus-fast benchmark.

The references spell out each score's definition pair by pair:
intra-image diversity, per-token diversity, text alignment, the Pareto
front and the greedy dispersion objective.  The pipeline never runs them:
they are oracles, and the test suite and ``tokentrim bench`` check the
fast kernels in :mod:`tokentrim.metrics` and :mod:`tokentrim.selection`
against them.

Each benchmark runs both paths on identical random inputs, checks that
they agree within the kernel's tolerance (a disagreement raises, it is
never just reported), and only then times them: median wall time over
``repeats`` runs, after two untimed warm-up runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics, selection
from .errors import (
    BadSpec,
    BadSubset,
    BenchGateFailure,
    DimMismatch,
    EmptyText,
    TooFewTokens,
    _allocating,
)
from .types import TokenMatrix, _integer, _items, build_token_matrix

# Acceptance floors for commodity hardware; the reference figures from the
# original measurements are far higher, so these are deliberately derated.
SPEEDUP_FLOORS = {"diversity": 5.0, "alignment": 1.1, "pareto": 2.0}

DIVERSITY_TOL = 1e-6
ALIGNMENT_ATOL = 1e-4
ALIGNMENT_RTOL = 1e-5

DEFAULT_REPEATS = 20
DEFAULT_SEED = 7

# Row block of the quadratic references: no 8k-token gram in one piece.
_BLOCK = 1024


def intra_diversity_naive(img: TokenMatrix) -> float:
    """Mean pairwise cosine distance over ordered pairs, the quadratic way.

    Returns (1/(m(m-1))) * sum over i != j of (1 - cos(x_i, x_j)); 0.0 when
    the image has a single token (no pairs).  Values lie in [0, 2].
    """
    n = img.rows
    if n < 2:
        return 0.0
    unit = img.unit64()
    total = 0.0
    for r0 in range(0, n, _BLOCK):
        block = unit[r0 : r0 + _BLOCK]
        dist = 1.0 - block @ unit.T
        rows = np.arange(block.shape[0])
        dist[rows, rows + r0] = 0.0  # drop the i == j terms
        total += float(dist.sum())
    return total / (n * (n - 1))


def token_diversity_naive(candidates: TokenMatrix) -> np.ndarray:
    """Per-token dispersion v_i = (1/(N-1)) * sum over j != i of (1 - cos)."""
    n = candidates.rows
    if n < 2:
        raise TooFewTokens(f"per-token diversity needs >= 2 tokens, got {n}")
    unit = candidates.unit64()
    out = np.empty(n, dtype=np.float64)
    for r0 in range(0, n, _BLOCK):
        block = unit[r0 : r0 + _BLOCK]
        dist = 1.0 - block @ unit.T
        rows = np.arange(block.shape[0])
        dist[rows, rows + r0] = 0.0
        out[r0 : r0 + block.shape[0]] = dist.sum(axis=1)
    return out / (n - 1)


def alignment_naive(
    tokens: TokenMatrix, text: TokenMatrix, on_normalized: bool = False
) -> np.ndarray:
    """Negative mean squared distance to the text tokens, pair by pair.

    a_i = -(1/M) * sum_j ||x_i - t_j||^2, evaluated literally over all
    (token, text) pairs; higher (closer to zero) means better aligned.
    """
    if tokens.dim != text.dim:
        raise DimMismatch(
            f"tokens have dim {tokens.dim}, text has dim {text.dim}"
        )
    if text.rows < 1:
        raise EmptyText("alignment needs at least one text token")
    if on_normalized:
        xs, ts = tokens.unit64(), text.unit64()
    else:
        xs, ts = tokens.data.astype(np.float64), text.data.astype(np.float64)
    out = np.empty(tokens.rows, dtype=np.float64)
    for r0 in range(0, tokens.rows, _BLOCK):
        block = xs[r0 : r0 + _BLOCK]
        diff = block[:, None, :] - ts[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        out[r0 : r0 + block.shape[0]] = -sq.mean(axis=1)
    return out


def pareto_front_naive(points: Sequence[selection.ParetoPoint]) -> list[int]:
    """Non-dominated points by exhaustive pairwise comparison, O(N^2).

    A point is dominated when some other point is >= in both objectives and
    > in at least one.  Exact (v, a) duplicates count as one point, kept at
    the lowest index.  Returns original indices sorted ascending.
    """
    if not points:
        return []
    idx, v, a = selection._collapsed_arrays(points)
    ge_v = v[None, :] >= v[:, None]
    ge_a = a[None, :] >= a[:, None]
    gt = (v[None, :] > v[:, None]) | (a[None, :] > a[:, None])
    dominated = (ge_v & ge_a & gt).any(axis=1)
    return sorted(int(i) for i in idx[~dominated])


def greedy_objective_value(tokens: TokenMatrix, subset: Sequence[int]) -> float:
    """Mean pairwise cosine distance over the subset's unordered pairs.

    The quantity greedy selection approximately maximizes; used as the
    quality oracle in tests.
    """
    idx = list(subset)
    if len(idx) < 2:
        raise BadSubset(f"subset needs >= 2 indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise BadSubset("subset contains duplicate indices")
    if min(idx) < 0 or max(idx) >= tokens.rows:
        raise BadSubset(f"subset index out of range for {tokens.rows} rows")
    unit = tokens.unit64()[idx]
    gram = unit @ unit.T
    iu, ju = np.triu_indices(len(idx), k=1)
    return float(np.mean(1.0 - gram[iu, ju]))


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
    n: int, dim: int, repeats: int, rng: np.random.Generator
) -> BenchResult:
    """Intra-image diversity: quadratic gram sum versus aggregate identity."""
    mat = _random_matrix(rng, n, dim)
    naive = intra_diversity_naive(mat)
    fast = metrics.intra_diversity_fast(mat)
    err = abs(fast - naive)
    if err > DIVERSITY_TOL * max(1.0, abs(naive)):
        raise BenchGateFailure(
            f"diversity paths disagree by {err:.3e} at n={n}, dim={dim}"
        )
    t_naive = _median_seconds(lambda: intra_diversity_naive(mat), repeats)
    t_fast = _median_seconds(lambda: metrics.intra_diversity_fast(mat), repeats)
    return BenchResult("diversity", n, dim, t_naive, t_fast, t_naive / t_fast, err)


def bench_alignment(
    n: int, m_text: int, dim: int, repeats: int, rng: np.random.Generator
) -> BenchResult:
    """Text alignment: all-pairs squared distances versus expanded form."""
    tokens = _random_matrix(rng, n, dim)
    text = _random_matrix(rng, m_text, dim)
    naive = alignment_naive(tokens, text)

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
    t_naive = _median_seconds(lambda: alignment_naive(tokens, text), repeats)
    t_fast = _median_seconds(run_fast, repeats)
    return BenchResult("alignment", n, dim, t_naive, t_fast, t_naive / t_fast, err)


def bench_pareto(
    n: int, budget: int, repeats: int, rng: np.random.Generator
) -> BenchResult:
    """Budgeted Pareto selection: pairwise domination versus sort-and-scan."""
    points = [
        selection.ParetoPoint(i, float(v), float(a))
        for i, (v, a) in enumerate(rng.random((n, 2)))
    ]

    def run(front_fn: selection.FrontFn) -> list[int]:
        return selection.pareto_budgeted(points, budget, front_fn=front_fn)

    if run(pareto_front_naive) != run(selection.pareto_front_sortscan):
        raise BenchGateFailure(
            f"pareto selections differ at n={n}, budget={budget}"
        )
    t_naive = _median_seconds(lambda: run(pareto_front_naive), repeats)
    t_fast = _median_seconds(lambda: run(selection.pareto_front_sortscan), repeats)
    return BenchResult("pareto", n, 2, t_naive, t_fast, t_naive / t_fast, 0.0)


@_allocating("the benchmark's inputs")
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
    metric kernels, 500 for pareto).  BadSpec, before any kernel runs,
    unless ``kernels`` names only "diversity", "alignment" and "pareto",
    ``repeats``, ``dim``, ``m_text`` and ``budget`` are integers >= 1,
    ``n`` is None or an integer >= 1 and ``seed`` an integer >= 0,
    whichever kernels are requested; a bool or float is not an integer.
    Inputs this machine cannot allocate raise OutOfMemory.
    """
    sizes = {"diversity": 8192, "alignment": 8192, "pareto": 500}
    kernels = _items("kernels", kernels, BadSpec)
    for kernel in kernels:
        if not isinstance(kernel, str) or kernel not in sizes:
            raise BadSpec(f"unknown benchmark kernel {kernel!r}")
    repeats = _integer("repeats", repeats, 1, BadSpec)
    if n is not None:
        n = _integer("problem size n", n, 1, BadSpec)
    dim = _integer("embedding dim", dim, 1, BadSpec)
    m_text = _integer("text tokens m_text", m_text, 1, BadSpec)
    budget = _integer("budget", budget, 1, BadSpec)
    seed = _integer("seed", seed, 0, BadSpec)
    results = []
    for kernel in kernels:
        rng = np.random.default_rng(seed)
        size = sizes[kernel] if n is None else n
        if kernel == "diversity":
            results.append(bench_diversity(size, dim, repeats, rng))
        elif kernel == "alignment":
            results.append(bench_alignment(size, m_text, dim, repeats, rng))
        else:
            results.append(bench_pareto(size, budget, repeats, rng))
    return results
