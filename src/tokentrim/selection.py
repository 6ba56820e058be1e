"""Subset selection: greedy dispersion maximization and Pareto filtering.

Both selectors are deterministic.  Every tie anywhere — seed pair, greedy
step, domination sort, rank-sum fill — breaks toward the lowest original
index, so reruns and reorderings of equal inputs reproduce the same
choices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadBudget, BadConfig, BadSubset
from .types import GREEDY_OBJECTIVES, TokenMatrix

_SEED_BLOCK = 1024
_FILTER_BLOCK = 256
_MAX_CANDIDATES = 64


@dataclass(frozen=True)
class ParetoPoint:
    """One token in objective space: original index, diversity v, alignment a.

    Indices must be unique within a point set and both objectives finite.
    """

    index: int
    v: float
    a: float


def _check_budget(k) -> None:
    """BadBudget unless k is an integer >= 1 (numpy integers too, never a bool)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise BadBudget(f"selection budget must be an integer, got {k!r}")
    if k < 1:
        raise BadBudget(f"selection budget must be >= 1, got {k}")


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u); +inf where the bound does not hold."""
    return n * u / (1 - n * u) if n * u < 1 else np.inf


def _exact_seed_pair(unit: np.ndarray) -> tuple[int, int]:
    """Lexicographically smallest pair attaining the smallest float64 gram value.

    Scans the gram matrix in row blocks with each block's diagonal and
    lower triangle set to +inf; the first row-major occurrence of the
    minimum dot product is the smallest (i, j) with i < j, and earlier
    blocks win exact ties.
    """
    n = unit.shape[0]
    best = np.inf
    best_pair = (0, 1)
    for r0 in range(0, n - 1, _SEED_BLOCK):
        block = unit[r0 : min(r0 + _SEED_BLOCK, n - 1)]
        gram = block @ unit.T
        gram[np.tri(block.shape[0], n, r0, dtype=bool)] = np.inf  # keep j > i
        flat = int(np.argmin(gram))
        if gram.flat[flat] < best:
            best = gram.flat[flat]
            li, j = divmod(flat, n)
            best_pair = (r0 + li, j)
        del gram  # free it before the next block's gram is allocated
    return best_pair


def _certified_seed_pair(unit: np.ndarray) -> tuple[int, int] | None:
    """:func:`_exact_seed_pair`'s pair from a float32 filter, or None.

    Notation: E(p) is the exact dot product of the float64 unit rows of
    pair p, G(p) the value :func:`_exact_seed_pair`'s gemm computes, F(p)
    this filter's float32 value and V(p) a float64 recomputation.  By
    Higham (Accuracy and Stability of Numerical Algorithms, sec. 3.1),
    |fl(x.y) - x.y| <= gamma_n |x|.|y| for any summation order, FMA
    included, and |x|.|y| <= 1 for unit rows, so:

    - delta = gamma_dim(2**-53) bounds |G - E| and |V - E|;
    - eps bounds |F - E|: rounding the unit rows to float32 (relative
      error u = 2**-24 per entry) moves a dot product by at most
      2u + u**2 <= 3u; the float32 dot adds gamma_dim(u), and gradual
      underflow (entries or products below 2**-126) at most dim * 2**-149,
      bounded here by dim * 2**-120.  The rows are rounded from ``unit``,
      not scaled in float32: a row norm above 2**126 would make a float32
      scale factor subnormal and lose its relative precision.

    Both bounds get 1% slack, which also covers rows whose computed norm
    is not exactly 1 and the rounding of the threshold arithmetic.

    Filter: the winner p* minimizes G, so for the F-minimizer q,
    F(p*) <= G(p*) + delta + eps <= G(q) + delta + eps <= F(q) + 2 eps +
    2 delta; every pair within 2 eps + 2 delta of the smallest F is kept.

    Check: if the candidate b with the smallest V beats every other
    candidate c by more than 4 delta, then G(b) <= V(b) + 2 delta <
    V(c) - 2 delta <= G(c), so b is the only candidate with the smallest
    G, hence b = p*.  Otherwise (exact ties, near-ties, or more than
    _MAX_CANDIDATES candidates, e.g. duplicate rows) it returns None and
    the exact scan decides, so the tie rule never depends on this filter.
    """
    n, dim = unit.shape
    eps = 1.01 * (3 * 2.0**-24 + _gamma(dim, 2.0**-24)) + dim * 2.0**-120
    delta = 1.01 * _gamma(dim, 2.0**-53)
    tol = 2 * eps + 2 * delta
    if not tol < 1:  # dims where the bounds fail
        return None
    u32 = unit.astype(np.float32)
    best = np.inf
    ci = cj = np.empty(0, dtype=np.int64)
    cf = np.empty(0, dtype=np.float32)
    for r0 in range(0, n - 1, _FILTER_BLOCK):
        rows = min(_FILTER_BLOCK, n - 1 - r0)
        block = u32[r0 : r0 + rows] @ u32[r0:].T
        block[:, :rows][np.tri(rows, dtype=bool)] = np.inf  # keep j > i
        best = min(best, float(block.min()))
        # rounded up to float32, so the comparison keeps a superset
        limit = np.nextafter(np.float32(best + tol), np.float32(np.inf))
        keep = cf <= limit
        hit = block <= limit
        if np.count_nonzero(keep) + np.count_nonzero(hit) > _MAX_CANDIDATES:
            return None
        li, lj = np.nonzero(hit)
        ci = np.concatenate((ci[keep], r0 + li))
        cj = np.concatenate((cj[keep], r0 + lj))
        cf = np.concatenate((cf[keep], block[li, lj]))
    value = np.einsum("ij,ij->i", unit[ci], unit[cj])
    order = np.argsort(value)
    if len(order) > 1 and not value[order[1]] - value[order[0]] > 4 * delta:
        return None
    return int(ci[order[0]]), int(cj[order[0]])


def _seed_pair(unit: np.ndarray) -> tuple[int, int]:
    """Lexicographically smallest pair attaining the maximum cosine distance.

    The pair :func:`_exact_seed_pair` returns, bit for bit and ties
    included: a certified float32 scan of the upper triangle finds it with
    half the products at single precision, and the float64 scan decides
    whatever that scan cannot certify.  The float32 rows and one 256-row
    block of their gram are freed before the fallback runs.
    """
    pair = _certified_seed_pair(unit)
    return _exact_seed_pair(unit) if pair is None else pair


def greedy_rep_max(
    tokens: TokenMatrix, k: int, objective: str = "sum_distance"
) -> list[int]:
    """Select k row indices approximately maximizing pairwise dispersion.

    Seeds with the farthest pair under cosine distance, then grows the set
    one token at a time.  ``sum_distance`` adds the token with the largest
    summed distance to the selected set (equivalently the smallest summed
    dot product, tracked incrementally); ``min_distance`` is the max-min
    farthest-point variant.  k >= rows returns every index.  Output is
    sorted ascending.  An unknown objective raises BadConfig, and a k that
    is not an integer >= 1 (a float or a bool) raises BadBudget.

    Selected tokens hold a score of +inf, which both updates keep because
    every dot product is finite, so each argmin is an unselected token.
    """
    if objective not in GREEDY_OBJECTIVES:
        raise BadConfig(f"unknown greedy_objective {objective!r}")
    _check_budget(k)
    n = tokens.rows
    if k >= n:
        return list(range(n))

    unit = tokens.unit64()
    i, j = _seed_pair(unit)
    if k == 1:
        return [i]

    combine = np.add if objective == "sum_distance" else np.maximum
    selected = [i, j]
    score = combine(unit @ unit[i], unit @ unit[j])
    score[selected] = np.inf
    while len(selected) < k:
        nxt = int(np.argmin(score))  # first occurrence = lowest index
        selected.append(nxt)
        combine(score, unit @ unit[nxt], out=score)
        score[nxt] = np.inf
    return sorted(selected)


def _collapsed_arrays(
    points: Sequence[ParetoPoint],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index/v/a arrays with exact (v, a) duplicates collapsed to lowest index."""
    n = len(points)
    idx = np.fromiter((p.index for p in points), dtype=np.int64, count=n)
    v = np.fromiter((p.v for p in points), dtype=np.float64, count=n)
    a = np.fromiter((p.a for p in points), dtype=np.float64, count=n)
    order = np.argsort(idx, kind="stable")
    idx, v, a = idx[order], v[order], a[order]
    # first occurrence after the index sort = lowest index per (v, a) value
    _, first = np.unique(v + 1j * a, return_index=True)
    keep = np.sort(first)
    return idx[keep], v[keep], a[keep]


def pareto_front_sortscan(points: Sequence[ParetoPoint]) -> list[int]:
    """Non-dominated points via one sort and one scan, O(N log N).

    A point is dominated when some other point is >= in both objectives and
    > in at least one.  Exact (v, a) duplicates count as one point, kept at
    the lowest index.  Sort descending by v (ties: descending a, then
    ascending index); a point survives iff its a strictly exceeds the
    running maximum seen so far.  Returns original indices sorted ascending.
    """
    if not points:
        return []
    idx, v, a = _collapsed_arrays(points)
    order = np.lexsort((idx, -a, -v))
    a_sorted = a[order]
    running = np.maximum.accumulate(a_sorted)
    prev_max = np.concatenate(([-np.inf], running[:-1]))
    keep = a_sorted > prev_max
    return sorted(int(i) for i in idx[order][keep])


FrontFn = Callable[[Sequence[ParetoPoint]], list[int]]


def _rank_sum_order(front: list[ParetoPoint]) -> list[int]:
    """Front indices ordered by rank-sum, ties by original index.

    Ranks are 1-based competition ranks per objective, descending (rank 1 =
    best); a point's rank is 1 plus the count of strictly better points.
    """
    v = np.array([p.v for p in front])
    a = np.array([p.a for p in front])
    rank_v = 1 + (v[None, :] > v[:, None]).sum(axis=1)
    rank_a = 1 + (a[None, :] > a[:, None]).sum(axis=1)
    total = rank_v + rank_a
    order = sorted(range(len(front)), key=lambda i: (total[i], front[i].index))
    return [front[i].index for i in order]


def pareto_budgeted(
    points: Sequence[ParetoPoint],
    budget: int,
    front_fn: FrontFn = pareto_front_sortscan,
) -> list[int]:
    """Exactly ``budget`` indices by front peeling with rank-sum fill.

    Accepts whole non-dominated fronts while they fit, removing each from
    the pool; the first front that overflows the remaining quota is ranked
    by the sum of its per-objective competition ranks and truncated, lower
    rank-sum (then lower index) first.  budget >= len(points) returns every
    index.  Output sorted ascending.  A budget that is not an integer >= 1
    raises BadBudget; repeated indices or a non-finite objective raise
    BadSubset.
    """
    _check_budget(budget)
    by_index = {p.index: p for p in points}
    if len(by_index) != len(points):
        raise BadSubset("point indices must be unique")
    if not all(math.isfinite(p.v) and math.isfinite(p.a) for p in points):
        raise BadSubset("point objectives must be finite")
    if budget >= len(points):
        return sorted(by_index)

    remaining = list(points)
    selected: list[int] = []
    while len(selected) < budget:
        front_idx = front_fn(remaining)
        room = budget - len(selected)
        if len(front_idx) <= room:
            selected.extend(front_idx)
            front_set = set(front_idx)
            remaining = [p for p in remaining if p.index not in front_set]
        else:
            front = [by_index[i] for i in front_idx]
            selected.extend(_rank_sum_order(front)[:room])
    return sorted(selected)
