"""Subset selection: greedy dispersion maximization and Pareto filtering.

Both selectors are deterministic.  Every tie anywhere — seed pair, greedy
step, domination sort, rank-sum fill — breaks toward the lowest original
index, so reruns and reorderings of equal inputs reproduce the same
choices.

Greedy dispersion makes the float64 computation's choices bit for bit from
a cheaper score source: one float32 copy of the unit rows, or one float64
gram of them where that is smaller and cheaper (the rule is in
:func:`greedy_rep_max`).  Each decision is either certified against
proven rounding bounds or handed to the float64 computation.  The bounds
(Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1): for
any summation order, FMA included, |fl(x.y) - x.y| <= gamma_n |x|.|y|,
and |x|.|y| <= 1 for unit rows.  For two float64 unit rows (those of
``TokenMatrix.unit64()``) of dimension dim:

- delta = gamma_dim(2**-53) bounds the error of a float64 dot product, so
  of every gram entry too, whatever order gemm or syrk sums in;
- eps bounds the error of the float32 dot product of the float32 unit
  rows.  Those are the data times a float32 scale, so each entry takes two
  float32 roundings (the scale and the product) and differs from the
  float64 unit row by a relative 2u + u**2 (u = 2**-24), plus float64
  rounding far below u**2: within 2u(1 + u).  That moves a dot product by
  at most 4u + O(u**2) <= 5u; the float32 dot adds gamma_dim(u), and
  gradual underflow (entries or products below 2**-126) at most
  dim * 2**-149, bounded here by dim * 2**-120.  A row norm above 2**126
  would make its float32 scale subnormal and lose its relative precision,
  so such an image skips the float32 rows and takes the float64 path.

Both bounds get 1% slack, which also covers rows whose computed norm is
not exactly 1 and the rounding of the threshold arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadBudget, BadConfig, BadSubset
from .types import GREEDY_OBJECTIVES, TokenMatrix, _integer

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


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u); +inf where the bound does not hold."""
    return n * u / (1 - n * u) if n * u < 1 else np.inf


def _dot_bound(dim: int, dtype) -> float:
    """The module docstring's bound on a dot product of two unit rows
    computed in ``dtype``: eps for float32, delta for float64."""
    if dtype == np.float32:
        return 1.01 * (5 * 2.0**-24 + _gamma(dim, 2.0**-24)) + dim * 2.0**-120
    return 1.01 * _gamma(dim, 2.0**-53)


def _unit64_rows(tokens: TokenMatrix, idx) -> np.ndarray:
    """``tokens.unit64()[idx]`` bit for bit, widening only the given rows."""
    rows = tokens.data[idx].astype(np.float64)
    rows /= np.sqrt(tokens.norms_sq[idx])[:, None]
    return rows


def _unit32(tokens: TokenMatrix) -> np.ndarray | None:
    """Float32 unit rows, each the data times a float32 scale, or None.

    One float32 multiply per entry, so each entry lies within
    2u(1 + u) |unit64| + 2**-149 of ``tokens.unit64()``'s (u = 2**-24, the
    last term for subnormal products).  None when some row's scale would
    be subnormal (norm above 2**126), where that bound fails.
    """
    scale = (1 / np.sqrt(tokens.norms_sq)).astype(np.float32)
    if scale.min() < np.finfo(np.float32).tiny:
        return None
    return tokens.data * scale[:, None]


def _gram(tokens: TokenMatrix) -> np.ndarray:
    """The float64 gram of ``tokens.unit64()``; the unit rows are freed."""
    unit = tokens.unit64()
    return unit @ unit.T


def _dot_block(src: np.ndarray, r0: int, rows: int) -> np.ndarray:
    """A fresh array of the dot products of unit rows r0 .. r0 + rows - 1
    with unit rows r0 and up.

    ``src`` is a score source: float32 unit rows (:func:`_unit32`), whose
    products are computed, or the float64 gram (:func:`_gram`), which
    holds them.
    """
    if src.dtype == np.float32:
        return src[r0 : r0 + rows] @ src[r0:].T
    return src[r0 : r0 + rows, r0:].copy()


def _dot_column(src: np.ndarray, i: int) -> np.ndarray:
    """The dot products of every unit row with row i, from ``src`` as in
    :func:`_dot_block`; a read-only use may get a view of the gram."""
    return src @ src[i] if src.dtype == np.float32 else src[i]


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


def _certified_seed_pair(
    tokens: TokenMatrix, src: np.ndarray
) -> tuple[int, int] | None:
    """:func:`_exact_seed_pair`'s pair from a filter over ``src``, or None.

    For a pair p, let G(p) be the value :func:`_exact_seed_pair`'s gemm
    computes, F(p) this filter's value from the score source ``src`` (see
    :func:`_dot_block`) and V(p) a float64 recomputation; by the module
    docstring, G and V lie within delta of the exact dot product and F
    within bF: eps from float32 rows, delta from the gram.

    Filter: the winner p* minimizes G, so for the F-minimizer q,
    F(p*) <= G(p*) + delta + bF <= G(q) + delta + bF <= F(q) + 2 bF +
    2 delta; every pair within 2 bF + 2 delta of the smallest F is kept.
    Each 256-row block is compared with that limit only in the rows whose
    minimum is within it.

    Check: if the candidate b with the smallest V beats every other
    candidate c by more than 4 delta, then G(b) <= V(b) + 2 delta <
    V(c) - 2 delta <= G(c), so b is the only candidate with the smallest
    G, hence b = p*.  Otherwise (exact ties, near-ties, or more than
    _MAX_CANDIDATES candidates, e.g. duplicate rows) it returns None and
    the exact scan decides, so the tie rule never depends on this filter.
    """
    n, dim = tokens.data.shape
    delta = _dot_bound(dim, np.float64)
    tol = 2 * _dot_bound(dim, src.dtype) + 2 * delta
    if not tol < 1:  # dims where the bounds fail
        return None
    dt = src.dtype.type
    best = np.inf
    ci = cj = np.empty(0, dtype=np.int64)
    cf = np.empty(0)
    for r0 in range(0, n - 1, _FILTER_BLOCK):
        rows = min(_FILTER_BLOCK, n - 1 - r0)
        block = _dot_block(src, r0, rows)
        block[:, :rows][np.tri(rows, dtype=bool)] = np.inf  # keep j > i
        row_min = block.min(axis=1)
        best = min(best, float(row_min.min()))
        # rounded up in the source's precision: the comparison keeps a superset
        limit = np.nextafter(dt(best + tol), dt(np.inf))
        keep = cf <= limit
        near = np.flatnonzero(row_min <= limit)
        hit = block[near] <= limit
        if np.count_nonzero(keep) + np.count_nonzero(hit) > _MAX_CANDIDATES:
            return None
        li, lj = np.nonzero(hit)
        li = near[li]
        ci = np.concatenate((ci[keep], r0 + li))
        cj = np.concatenate((cj[keep], r0 + lj))
        cf = np.concatenate((cf[keep], block[li, lj]))
    value = np.einsum("ij,ij->i", _unit64_rows(tokens, ci), _unit64_rows(tokens, cj))
    order = np.argsort(value)
    if len(order) > 1 and not value[order[1]] - value[order[0]] > 4 * delta:
        return None
    return int(ci[order[0]]), int(cj[order[0]])


def _certified_steps(
    tokens: TokenMatrix,
    src: np.ndarray,
    selected: list[int],
    k: int,
    combine: np.ufunc,
) -> None:
    """Extend ``selected`` toward k rows with :func:`_float64_steps`'s choices.

    Keeps a running score read from the score source ``src`` (see
    :func:`_dot_block`) and certifies each step as :func:`greedy_rep_max`
    derives.  Stops at the first step it cannot certify, leaving in
    ``selected`` the choices made so far.
    """
    dim = tokens.dim
    e, delta = _dot_bound(dim, src.dtype), _dot_bound(dim, np.float64)
    u = np.finfo(src.dtype).eps / 2
    sel64 = None  # float64 unit rows of selected, filled at rechecks
    filled = 0
    score = combine(_dot_column(src, selected[0]), _dot_column(src, selected[1]))
    score[selected] = np.inf
    dt = src.dtype.type
    while len(selected) < k:
        m = len(selected)
        if combine is np.add:
            bF = 1.01 * m * (e + _gamma(m, u) * (1 + e))
            b64 = 1.01 * m * (delta + _gamma(m, 2.0**-53) * (1 + delta))
        else:
            bF, b64 = e, delta
        lowest = float(score.min())
        # rounded up in the score's precision: the comparison keeps a superset
        limit = np.nextafter(dt(lowest + (2 * bF + 2 * b64)), dt(np.inf))
        cand = np.flatnonzero(score <= limit)
        if len(cand) > 1:
            if len(cand) > _MAX_CANDIDATES:
                return
            if sel64 is None:
                sel64 = np.empty((k, dim))
            sel64[filled:m] = _unit64_rows(tokens, selected[filled:m])
            filled = m
            value = combine.reduce(_unit64_rows(tokens, cand) @ sel64[:m].T, axis=1)
            order = np.argsort(value)
            if not value[order[1]] - value[order[0]] > 4 * b64:
                return
            cand = cand[order[:1]]
        nxt = int(cand[0])
        selected.append(nxt)
        combine(score, _dot_column(src, nxt), out=score)
        score[nxt] = np.inf


def _float64_steps(
    unit: np.ndarray, selected: list[int], k: int, combine: np.ufunc
) -> None:
    """Extend ``selected`` to k rows, each step taking the smallest float64 score.

    The score is replayed from ``selected`` with the same matvecs in the
    same order as the steps that chose them, so it is bit for bit the
    score this loop would hold had it chosen them itself.  Selected rows
    hold +inf, which both updates keep because every dot product is
    finite, so each argmin is an unselected row.
    """
    score = combine(unit @ unit[selected[0]], unit @ unit[selected[1]])
    for s in selected[2:]:
        combine(score, unit @ unit[s], out=score)
    score[selected] = np.inf
    while len(selected) < k:
        nxt = int(np.argmin(score))  # first occurrence = lowest index
        selected.append(nxt)
        combine(score, unit @ unit[nxt], out=score)
        score[nxt] = np.inf


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
    is not an integer >= 1 (a float, a string or a bool; numpy integers
    pass) raises BadBudget.

    The reference is the float64 computation: :func:`_exact_seed_pair`,
    then :func:`_float64_steps`, on ``tokens.unit64()``.  This function
    returns its choices bit for bit, ties included, from one score source
    and float64 rows of the few rows it checks.  The source is the float64
    gram of the unit rows (:func:`_gram`) when it is no larger than float32
    rows (2 n <= dim) and the k matvecs it replaces hold at least a quarter
    as many products as its upper triangle (4 k >= n: float32 rows pay for
    that triangle too, in float32, in the seed filter, and measured at
    dim 1024 the two sources break even near k = n / 8); otherwise it is
    one float32 copy of the unit rows (:func:`_unit32`).  The seed comes from
    :func:`_certified_seed_pair`; each step then works as follows.

    With m rows selected, let S(r) be the reference's score of an
    unselected row r, E(r) its exact value, F(r) the score kept here
    (``combine(F, <source's dots with row nxt>)`` per step) and V(r) a
    float64 recomputation, ``combine.reduce(unit[r] @ unit[selected].T)``.
    Each source dot product is within e of the exact one, e = eps for
    float32 rows and e = delta for the gram (module docstring), and F sums
    in the source's unit roundoff u (2**-24 or 2**-53):

    - ``min_distance``: a maximum is exact and moves by no more than its
      terms, so |F - E| <= bF = e and |S - E|, |V - E| <= b64 = delta.
    - ``sum_distance``: m terms, each off by e (delta), and summing m
      terms of size at most 1 + e (1 + delta) in any order adds at most
      gamma_m(u) m (1 + e) (Higham sec. 4.2), so bF = m e + gamma_m(u)
      m (1 + e) and b64 = m delta + gamma_m(2**-53) m (1 + delta).

    From the gram, bF = b64: its scores are as good as the reference's,
    whatever order gemm or syrk summed in, so no further proof is needed.
    Both get 1% slack.  The reference takes p*, the first row with the
    smallest S; for the F-minimizer q, F(p*) <= S(p*) + b64 + bF <=
    S(q) + b64 + bF <= F(q) + 2 bF + 2 b64, so every row within 2 bF +
    2 b64 of the smallest F is kept (the limit rounded up in F's
    precision).  One kept row is p*.  Of several, the one with the
    smallest V is p* if it beats every other by more than 4 b64, by the
    seed pair's argument.  Otherwise (exact ties, near-ties, or more than
    _MAX_CANDIDATES kept rows) the source is freed, ``tokens.unit64()`` is
    built, S is replayed and the reference finishes the selection.  So do
    images with a row norm above 2**126, which have no float32 rows.
    """
    if objective not in GREEDY_OBJECTIVES:
        raise BadConfig(f"unknown greedy_objective {objective!r}")
    k = _integer("selection budget", k, 1, BadBudget)
    n, dim = tokens.data.shape
    if k >= n:
        return list(range(n))

    combine = np.add if objective == "sum_distance" else np.maximum
    src = _gram(tokens) if 2 * n <= dim and 4 * k >= n else _unit32(tokens)
    selected = []
    if src is not None:
        selected = list(_certified_seed_pair(tokens, src) or ())
        if selected and k > 2:
            _certified_steps(tokens, src, selected, k, combine)
    del src  # freed before any float64 copy of the whole image
    if not selected or len(selected) < k:
        unit = tokens.unit64()
        selected = selected or list(_exact_seed_pair(unit))
        if len(selected) < k:
            _float64_steps(unit, selected, k, combine)
    return [selected[0]] if k == 1 else sorted(selected)


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
    budget = _integer("selection budget", budget, 1, BadBudget)
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
