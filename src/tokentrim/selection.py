"""Subset selection: greedy dispersion maximization and Pareto filtering.

Both selectors are deterministic.  Every tie anywhere — seed pair, greedy
step, domination sort, rank-sum fill — breaks toward the lowest original
index, so reruns and reorderings of equal inputs reproduce the same
choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadBudget, BadConfig, BadSubset
from .types import GREEDY_OBJECTIVES, TokenMatrix

_SEED_BLOCK = 1024


@dataclass(frozen=True)
class ParetoPoint:
    """One token in objective space: original index, diversity v, alignment a.

    Indices must be unique within a point set and both objectives finite.
    """

    index: int
    v: float
    a: float


def _seed_pair(unit: np.ndarray) -> tuple[int, int]:
    """Lexicographically smallest pair attaining the maximum cosine distance.

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
    return best_pair


def greedy_rep_max(
    tokens: TokenMatrix, k: int, objective: str = "sum_distance"
) -> list[int]:
    """Select k row indices approximately maximizing pairwise dispersion.

    Seeds with the farthest pair under cosine distance, then grows the set
    one token at a time.  ``sum_distance`` adds the token with the largest
    summed distance to the selected set (equivalently the smallest summed
    dot product, tracked incrementally); ``min_distance`` is the max-min
    farthest-point variant.  k >= rows returns every index.  Output is
    sorted ascending; an unknown objective raises BadConfig.

    Selected tokens hold a score of +inf, which both updates keep because
    every dot product is finite, so each argmin is an unselected token.
    """
    if objective not in GREEDY_OBJECTIVES:
        raise BadConfig(f"unknown greedy_objective {objective!r}")
    if k < 1:
        raise BadBudget(f"selection budget must be >= 1, got {k}")
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


def pareto_front_naive(points: Sequence[ParetoPoint]) -> list[int]:
    """Non-dominated points by exhaustive pairwise comparison, O(N^2).

    A point is dominated when some other point is >= in both objectives and
    > in at least one.  Exact (v, a) duplicates count as one point, kept at
    the lowest index.  Returns original indices sorted ascending.
    """
    if not points:
        return []
    idx, v, a = _collapsed_arrays(points)
    ge_v = v[None, :] >= v[:, None]
    ge_a = a[None, :] >= a[:, None]
    gt = (v[None, :] > v[:, None]) | (a[None, :] > a[:, None])
    dominated = (ge_v & ge_a & gt).any(axis=1)
    return sorted(int(i) for i in idx[~dominated])


def pareto_front_sortscan(points: Sequence[ParetoPoint]) -> list[int]:
    """Same front as :func:`pareto_front_naive` via one sort and one scan.

    Sort descending by v (ties: descending a, then ascending index); a point
    survives iff its a strictly exceeds the running maximum seen so far.
    O(N log N).
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
    index.  Output sorted ascending.
    """
    if budget < 1:
        raise BadBudget(f"selection budget must be >= 1, got {budget}")
    by_index = {p.index: p for p in points}
    if len(by_index) != len(points):
        raise BadSubset("point indices must be unique")
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
