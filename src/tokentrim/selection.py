"""Subset selection: greedy dispersion maximization and Pareto filtering.

Both selectors are deterministic.  Every tie anywhere — seed pair, greedy
step, domination sort, rank-sum fill — breaks toward the lowest original
index, so reruns and reorderings of equal inputs reproduce the same
choices.

Greedy dispersion makes the float64 computation's choices bit for bit from
a cheaper score source: the stored float32 rows with a float32 reciprocal
norm per row, whose whole scaled gram is kept when an image has no more
rows than dims and streamed in row blocks otherwise, or one float64 gram
of the unit rows where that is smaller and cheaper (the rule is in
:func:`greedy_rep_max`).  Each decision is either certified against
proven rounding bounds or handed to the float64 computation.  The bounds
(Higham, Accuracy and Stability of Numerical Algorithms, secs. 2.1 and
3.1): for any summation order, FMA included, |fl(x.y) - x.y| <= gamma_n
|x|.|y| while no result is subnormal, and |x|.|y| <= 1 for unit rows.
For two float64 unit rows (those of ``TokenMatrix.unit64()``) of
dimension dim:

- delta = gamma_dim(2**-53) bounds the error of a float64 dot product, so
  of every gram entry too, whatever order gemm or syrk sums in;
- eps bounds the error of a dot product read from the float32 rows d_i.
  With r_i the float64 norm that ``unit64()`` divides by, the scale s_i
  is 1 / r_i rounded to float32, a relative error within u (u = 2**-24)
  plus float64 rounding far below u**2.  Both forms of the source compute
  fl(fl(fl(d_i.d_j) s_i) s_j): the raw float32 dot, within gamma_dim(u)
  |d_i|.|d_j| <= gamma_dim(u) r_i r_j of d_i.d_j, then two scalings (u
  each).  Against the unit rows' dot x = d_i.d_j / (r_i r_j), |x| <= 1,
  the roundings of s_i, s_j and the two products move x by (1 + u)**4 - 1
  and the dot adds gamma_dim(u) (1 + u)**4: at most 5u + gamma_dim(u)
  (1 + 5u) in all, about 4u + gamma_dim(u).  Gradual underflow adds an
  absolute error of at most 2**-150 to each product of the dot and to each
  scaling.  Those of the dot are then multiplied by s_i s_j and that of
  the first scaling by s_j, so with s the largest scale of the image the
  underflow term is at most (dim (1 + u)**4 max(1, s)**2 + max(1, s) + 1)
  2**-150 <= dim max(1, s)**2 2**-148.  For rows whose norm is near 1
  that is dim 2**-148, but a row of norm 1e-12 makes it about dim 2**-68.
  The raw dot and each of its partial sums are at most about r_i r_j in
  magnitude, so an image with a row norm of 2**63 or more, where that
  could leave float32 range, takes the float64 path; below the guard
  every scale exceeds 2**-63, far from subnormal.

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


@dataclass(frozen=True)
class _ScaledRows:
    """The float32 score source: the stored rows ``data`` and ``scale``,
    each row's reciprocal norm in float32, so unit row i is about
    data[i] * scale[i]; ``gram`` is their whole scaled gram
    (:func:`_scaled_gram`) when one is kept."""

    data: np.ndarray
    scale: np.ndarray
    gram: np.ndarray | None
    dtype = np.dtype(np.float32)


def _dot_bound(dim: int, src=None) -> float:
    """The module docstring's bound on a dot product of two unit rows read
    from the score source ``src``: eps for :class:`_ScaledRows`, delta for
    the float64 gram or with no source (the float64 computation)."""
    if isinstance(src, _ScaledRows):
        u = 2.0**-24
        underflow = dim * max(1.0, float(src.scale.max())) ** 2 * 2.0**-148
        return 1.01 * (5 * u + _gamma(dim, u) * (1 + 5 * u) + underflow)
    return 1.01 * _gamma(dim, 2.0**-53)


def _unit64_rows(tokens: TokenMatrix, idx) -> np.ndarray:
    """``tokens.unit64()[idx]`` bit for bit, widening only the given rows."""
    rows = tokens.data[idx].astype(np.float64)
    rows /= np.sqrt(tokens.norms_sq[idx])[:, None]
    return rows


def _scaled_rows(tokens: TokenMatrix) -> _ScaledRows | None:
    """The stored rows as a score source, keeping their scaled gram when
    the image has no more rows than dims (so the gram is no larger than
    the rows), or None when some row's norm is 2**63 or more, where the
    bound fails."""
    if tokens.norms_sq.max() >= 2.0**126:
        return None
    scale = (1 / np.sqrt(tokens.norms_sq)).astype(np.float32)
    n, dim = tokens.data.shape
    gram = _scaled_gram(tokens.data, scale) if n <= dim else None
    return _ScaledRows(tokens.data, scale, gram)


def _scaled_gram(data: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The scaled float32 gram, fl(fl(fl(d_i.d_j) s_i) s_j) at (i, j), with
    +inf on the diagonal.  Both operands of the product are one buffer, so
    numpy computes it with syrk."""
    gram = data @ data.T
    gram *= scale[:, None]
    gram *= scale
    np.fill_diagonal(gram, np.inf)
    return gram


def _gram(tokens: TokenMatrix) -> np.ndarray:
    """The float64 gram of ``tokens.unit64()`` with +inf on the diagonal;
    the unit rows are freed."""
    unit = tokens.unit64()
    gram = unit @ unit.T
    np.fill_diagonal(gram, np.inf)
    return gram


def _kept_gram(src) -> np.ndarray | None:
    """The whole gram the score source ``src`` keeps, or None when it
    streams row blocks."""
    return src.gram if isinstance(src, _ScaledRows) else src


def _dot_block(src: _ScaledRows, r0: int, rows: int) -> np.ndarray:
    """A fresh array of the dot products of unit rows r0 .. r0 + rows - 1
    with unit rows r0 and up, from the scaled float32 rows: the raw
    products, then each row's scale, then each column's."""
    data, scale = src.data, src.scale
    block = data[r0 : r0 + rows] @ data[r0:].T
    block *= scale[r0 : r0 + rows, None]
    block *= scale[r0:]
    return block


def _dot_column(src, i: int) -> np.ndarray:
    """The dot products of every unit row with row i, from ``src``: a
    read-only view of row i of a kept gram (whose entry i is +inf), or
    computed as in :func:`_dot_block`."""
    gram = _kept_gram(src)
    if gram is not None:
        return gram[i]
    column = src.data @ src.data[i]
    column *= src.scale[i]
    column *= src.scale
    return column


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


def _certified_seed_pair(tokens: TokenMatrix, src) -> tuple[int, int] | None:
    """:func:`_exact_seed_pair`'s pair from a filter over ``src``, or None.

    For a pair p, let G(p) be the value :func:`_exact_seed_pair`'s gemm
    computes, F(p) this filter's value from the score source ``src`` (see
    :func:`_dot_column`; from a kept gram the smaller of its two entries
    for p) and V(p) a float64 recomputation; by the module docstring, G
    and V lie within delta of the exact dot product and F within bF: eps
    from the float32 rows, delta from the float64 gram.

    Filter: the winner p* minimizes G, so for the F-minimizer q,
    F(p*) <= G(p*) + delta + bF <= G(q) + delta + bF <= F(q) + 2 bF +
    2 delta; every pair within 2 bF + 2 delta of the smallest F is kept.
    A gram's row, or a streamed 256-row block, is compared with that limit
    only where its minimum is within it.

    Check: if the candidate b with the smallest V beats every other
    candidate c by more than 4 delta, then G(b) <= V(b) + 2 delta <
    V(c) - 2 delta <= G(c), so b is the only candidate with the smallest
    G, hence b = p*.  Otherwise (exact ties, near-ties, or more than
    _MAX_CANDIDATES candidates, e.g. duplicate rows) it returns None and
    the exact scan decides, so the tie rule never depends on this filter.
    """
    dim = tokens.dim
    delta = _dot_bound(dim)
    tol = 2 * _dot_bound(dim, src) + 2 * delta
    if not tol < 1:  # dims where the bounds fail
        return None
    gram = _kept_gram(src)
    if gram is None:
        found = _streamed_candidates(src, tol)
    else:
        found = _gram_candidates(gram, tol)
    if found is None:
        return None
    ci, cj = found
    value = np.einsum("ij,ij->i", _unit64_rows(tokens, ci), _unit64_rows(tokens, cj))
    order = np.argsort(value)
    if len(order) > 1 and not value[order[1]] - value[order[0]] > 4 * delta:
        return None
    return int(ci[order[0]]), int(cj[order[0]])


def _limit(best: float, tol: float, dt) -> np.floating:
    """best + tol rounded up in the precision ``dt``, so that a comparison
    with it keeps a superset of the pairs within tol of best."""
    return np.nextafter(dt(best + tol), dt(np.inf))


def _gram_candidates(gram: np.ndarray, tol: float):
    """The pairs i < j within tol of the smallest off-diagonal entry of a
    kept gram, as index arrays (ci, cj), or None when there are more than
    _MAX_CANDIDATES."""
    row_min = gram.min(axis=1)
    limit = _limit(float(row_min.min()), tol, gram.dtype.type)
    # Each pair puts at most two rows in near and two entries in hit.
    near = np.flatnonzero(row_min <= limit)
    if len(near) > 2 * _MAX_CANDIDATES:
        return None
    hit = gram[near] <= limit
    if np.count_nonzero(hit) > 2 * _MAX_CANDIDATES:
        return None
    li, lj = np.nonzero(hit)
    pairs = {(min(i, j), max(i, j)) for i, j in zip(near[li].tolist(), lj.tolist())}
    if len(pairs) > _MAX_CANDIDATES:
        return None
    ci, cj = np.array(sorted(pairs), dtype=np.int64).T
    return ci, cj


def _streamed_candidates(src: _ScaledRows, tol: float):
    """:func:`_gram_candidates` over 256-row blocks of the upper triangle
    (:func:`_dot_block`), keeping the candidates of the blocks so far."""
    n = src.data.shape[0]
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
        limit = _limit(best, tol, dt)
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
    return ci, cj


def _certified_steps(
    tokens: TokenMatrix,
    src,
    selected: list[int],
    k: int,
    combine: np.ufunc,
) -> None:
    """Extend ``selected`` toward k rows with :func:`_float64_steps`'s choices.

    Keeps a running score read from the score source ``src`` (see
    :func:`_dot_column`) and certifies each step as :func:`greedy_rep_max`
    derives.  Stops at the first step it cannot certify, leaving in
    ``selected`` the choices made so far.
    """
    dim = tokens.dim
    e, delta = _dot_bound(dim, src), _dot_bound(dim)
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
        limit = _limit(float(score.min()), 2 * bF + 2 * b64, dt)
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
    gram of the unit rows (:func:`_gram`) when it is no larger than the
    stored float32 rows (2 n <= dim) and the k matvecs it replaces hold at
    least a quarter as many products as its upper triangle (4 k >= n: the
    float32 source pays for that triangle too, in the seed filter, and
    measured at dim 1024 the two sources break even near k = n / 8);
    otherwise it is the stored float32 rows with a float32 reciprocal norm
    per row (:func:`_scaled_rows`).  When the image has no more rows than
    dims (n <= dim) their scaled gram is no larger than the rows, so it is
    built once by one syrk (:func:`_scaled_gram`): the seed filter reads
    it whole and each step reads one of its rows.  A larger image streams
    256-row blocks of it through the seed filter and computes one column
    per step, copying no more than one block.  The seed comes from
    :func:`_certified_seed_pair`; each step then works as follows.

    With m rows selected, let S(r) be the reference's score of an
    unselected row r, E(r) its exact value, F(r) the score kept here
    (``combine(F, <source's dots with row nxt>)`` per step) and V(r) a
    float64 recomputation, ``combine.reduce(unit[r] @ unit[selected].T)``.
    Each source dot product is within e of the exact one, e = eps for
    the float32 rows and e = delta for the float64 gram (module
    docstring), and F sums in the source's unit roundoff u (2**-24 or
    2**-53):

    - ``min_distance``: a maximum is exact and moves by no more than its
      terms, so |F - E| <= bF = e and |S - E|, |V - E| <= b64 = delta.
    - ``sum_distance``: m terms, each off by e (delta), and summing m
      terms of size at most 1 + e (1 + delta) in any order adds at most
      gamma_m(u) m (1 + e) (Higham sec. 4.2), so bF = m e + gamma_m(u)
      m (1 + e) and b64 = m delta + gamma_m(2**-53) m (1 + delta).

    From the float64 gram, bF = b64: its scores are as good as the
    reference's, whatever order gemm or syrk summed in, so no further
    proof is needed.
    Both get 1% slack.  The reference takes p*, the first row with the
    smallest S; for the F-minimizer q, F(p*) <= S(p*) + b64 + bF <=
    S(q) + b64 + bF <= F(q) + 2 bF + 2 b64, so every row within 2 bF +
    2 b64 of the smallest F is kept (the limit rounded up in F's
    precision).  One kept row is p*.  Of several, the one with the
    smallest V is p* if it beats every other by more than 4 b64, by the
    seed pair's argument.  Otherwise (exact ties, near-ties, or more than
    _MAX_CANDIDATES kept rows) the source is freed, ``tokens.unit64()`` is
    built, S is replayed and the reference finishes the selection.  So do
    images with a row norm of 2**63 or more, which have no scaled rows.
    """
    if objective not in GREEDY_OBJECTIVES:
        raise BadConfig(f"unknown greedy_objective {objective!r}")
    k = _integer("selection budget", k, 1, BadBudget)
    n, dim = tokens.data.shape
    if k >= n:
        return list(range(n))

    combine = np.add if objective == "sum_distance" else np.maximum
    src = _gram(tokens) if 2 * n <= dim and 4 * k >= n else _scaled_rows(tokens)
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
