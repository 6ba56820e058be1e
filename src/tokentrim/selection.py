"""Subset selection: greedy dispersion maximization and Pareto filtering.

Both selectors are deterministic: reruns on the same input, on any number
of workers, reproduce the same choices.  The Pareto selector's ties (exact
(v, a) duplicates, the domination sort, the rank-sum fill) break toward the
lowest original index.  Greedy dispersion returns the choices of a float64
computation (:func:`greedy_rep_max`), whose seed pair and steps take the
first occurrence of the smallest computed value, so equal computed values
break toward the lowest index.  Exact copies of a row need not compute
equal values, though: OpenBLAS rounds a float64 dot product differently
depending on where the row sits in the gemm or gemv and on its thread
count, so which copy wins can follow that rounding rather than the index,
and can change with the BLAS thread count.

Greedy dispersion makes the float64 computation's choices bit for bit from
a cheaper score source, held by the image's :class:`_Greedy` job with the
bound below for its dot products: the stored float32 rows with a float32
reciprocal norm per row, whose whole scaled gram is kept when an image has
no more rows than dims and streamed in tiles otherwise.  No float64 copy of
an image is made unless a decision cannot be certified: each decision is
either certified against proven rounding bounds, from float64 copies of
the few rows it compares, or handed to the float64 computation.  The bounds
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
  plus float64 rounding far below u**2.  Both forms of the source, kept
  and streamed, compute fl(fl(fl(d_i.d_j) s_i) s_j): the raw float32
  dot, within gamma_dim(u) |d_i|.|d_j| <= gamma_dim(u) r_i r_j of
  d_i.d_j, then two scalings (u each).  Against the unit rows' dot
  x = d_i.d_j / (r_i r_j), |x| <= 1, the roundings of s_i, s_j and the
  two products move x by (1 + u)**4 - 1 and the dot adds gamma_dim(u)
  (1 + u)**4: at most 5u + gamma_dim(u) (1 + 5u) in all, about 4u +
  gamma_dim(u).  Gradual underflow adds an
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
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadBudget, BadConfig, BadSubset, _allocating
from .types import GREEDY_OBJECTIVES, TokenMatrix, _integer

_SEED_BLOCK = 1024
# A streamed seed-filter tile: at most _TILE_ROWS rows by _TILE_COLS
# columns of the gram's upper triangle, 1.5 MB of float32 values.  A
# wider row block is cut by its columns: at these sizes that costs less
# than cutting its rows.
_TILE_ROWS = 256
_TILE_COLS = 1440
_MAX_CANDIDATES = 64
_HELD_BLOCK = 32


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


def _delta(dim: int) -> float:
    """The module docstring's delta, with its slack: the bound on a float64
    dot product of two unit rows."""
    return 1.01 * _gamma(dim, 2.0**-53)


def _unit64_rows(tokens: TokenMatrix, idx) -> np.ndarray:
    """``tokens.unit64()[idx]`` bit for bit, widening only the given rows."""
    rows = tokens.data[idx].astype(np.float64)
    rows /= np.sqrt(tokens.norms_sq[idx])[:, None]
    return rows


def _scaled_gram(data: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The scaled float32 gram, fl(fl(fl(d_i.d_j) s_i) s_j) at (i, j), with
    +inf on the diagonal.  Both operands of the product are one buffer, so
    numpy computes it with syrk."""
    gram = data @ data.T
    gram *= scale[:, None]
    gram *= scale
    np.fill_diagonal(gram, np.inf)
    return gram


def _tiles(n: int) -> list[tuple[int, int, int, int]]:
    """The tiles (r0, rows, c0, cols) of an n-row image's streamed seed
    filter, in row-major order: rows r0 .. r0 + rows - 1 of each block of
    _TILE_ROWS (row n - 1 has no pair above the diagonal) by their columns
    r0 .. n - 1, cut into as few spans of near-equal width as keep each
    within _TILE_COLS."""
    tiles = []
    for r0 in range(0, n - 1, _TILE_ROWS):
        rows, width = min(_TILE_ROWS, n - 1 - r0), n - r0
        parts = -(-width // _TILE_COLS)
        cuts = [r0 + width * p // parts for p in range(parts + 1)]
        tiles += [(r0, rows, a, b - a) for a, b in zip(cuts, cuts[1:])]
    return tiles


def _tile(
    data: np.ndarray, scale: np.ndarray, r0: int, rows: int, c0: int, cols: int
) -> np.ndarray:
    """A fresh array of the dot products of unit rows r0 .. r0 + rows - 1
    with unit rows c0 .. c0 + cols - 1 from the float32 rows ``data`` and
    their reciprocal norms ``scale`` (the raw products, then each row's
    scale, then each column's), with +inf at every entry (i, j) with
    j <= i, masked only over the columns that reach the diagonal."""
    tile = data[r0 : r0 + rows] @ data[c0 : c0 + cols].T
    tile *= scale[r0 : r0 + rows, None]
    tile *= scale[c0 : c0 + cols]
    reach = min(cols, r0 + rows - c0)
    if reach > 0:
        tile[:, :reach][np.tri(rows, reach, r0 - c0, dtype=bool)] = np.inf
    return tile


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


def _certified_seed_pair(tokens: TokenMatrix, found) -> tuple[int, int] | None:
    """:func:`_exact_seed_pair`'s pair from the seed filter's candidates
    ``found`` (:func:`_merge`), or None.

    For a pair p = (i, j), i < j, let G(p) be the value
    :func:`_exact_seed_pair`'s gemm computes, F(p) the value the score
    source gives at (i, j) (see :meth:`_Greedy.column`) and V(p) a float64
    recomputation; by the module docstring, G and V lie within delta of
    the exact dot product and F, like the source's value at (j, i),
    within eps.

    Filter: let best be the smallest value read, at either entry of the
    pair q.  The winner p* minimizes G, so F(p*) <= G(p*) + delta + eps
    <= G(q) + delta + eps <= best + 2 eps + 2 delta = best + tol; every
    pair within tol of best is kept (:func:`_reduce`, :func:`_merge`).

    Check: if the candidate b with the smallest V beats every other
    candidate c by more than 4 delta, then G(b) <= V(b) + 2 delta <
    V(c) - 2 delta <= G(c), so b is the only candidate with the smallest
    G, hence b = p*.  Otherwise (exact ties, near-ties, or more than
    _MAX_CANDIDATES candidates, e.g. duplicate rows, when ``found`` is
    None) it returns None and the exact scan decides, so the tie rule
    never depends on this filter.
    """
    if found is None:
        return None
    ci, cj = found
    value = np.einsum("ij,ij->i", _unit64_rows(tokens, ci), _unit64_rows(tokens, cj))
    b = _clear_winner(value, _delta(tokens.dim))
    return None if b is None else (int(ci[b]), int(cj[b]))


def _clear_winner(value: np.ndarray, b64: float) -> int | None:
    """The position of the smallest float64 ``value`` if it beats every
    other by more than 4 b64, else None: with each value within 2 b64 of
    the reference's, only then is it the reference's smallest too."""
    order = np.argsort(value)
    if len(order) > 1 and not value[order[1]] - value[order[0]] > 4 * b64:
        return None
    return int(order[0])


def _limit(best: float, tol: float) -> np.float32:
    """best + tol rounded up to a float32, so that a comparison of the
    source's float32 values with it keeps a superset of those within tol
    of best."""
    return np.nextafter(np.float32(best + tol), np.float32(np.inf))


def _reduce(block: np.ndarray, r0: int, c0: int, tol: float):
    """One tile's share of the seed filter, whose entry (a, b) is the
    score source's value at (r0 + a, c0 + b): its smallest value best and
    the pairs i < j within tol of it, as (best, ci, cj, values), or None
    when there are more than _MAX_CANDIDATES.  A row is compared with the
    limit only where its minimum is within it."""
    row_min = block.min(axis=1)
    best = float(row_min.min())
    limit = _limit(best, tol)
    # Each pair puts at most two rows in near and two entries in hit.
    near = np.flatnonzero(row_min <= limit)
    if len(near) > 2 * _MAX_CANDIDATES:
        return None
    hit = block[near] <= limit
    if np.count_nonzero(hit) > 2 * _MAX_CANDIDATES:
        return None
    li, lj = np.nonzero(hit)
    li = near[li]
    upper = c0 + lj > r0 + li  # a kept gram's entry (i, j), not its (j, i)
    li, lj = li[upper], lj[upper]
    if len(li) > _MAX_CANDIDATES:
        return None
    return best, r0 + li, c0 + lj, block[li, lj]


def _merge(parts, tol: float):
    """The pairs within tol of the smallest value of the tiles' reductions
    ``parts`` (:func:`_reduce`), as index arrays (ci, cj) in tile order,
    or None when there are more than _MAX_CANDIDATES or a part is None
    (a tile with too many of its own, or one not reduced).  Each tile
    holds every pair within tol of its own minimum, a superset of its
    pairs within tol of the smallest, so the result does not depend on the
    order in which the tiles were reduced."""
    if any(part is None for part in parts):
        return None
    limit = _limit(min(part[0] for part in parts), tol)
    keep = [value <= limit for _, _, _, value in parts]
    ci = np.concatenate([part[1][k] for part, k in zip(parts, keep)])
    cj = np.concatenate([part[2][k] for part, k in zip(parts, keep)])
    return None if len(ci) > _MAX_CANDIDATES else (ci, cj)


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
    returns its choices bit for bit, ties included, from one score source,
    the stored float32 rows with a float32 reciprocal norm per row
    (:class:`_Greedy`), and float64 rows of the few rows it checks.
    When the image has no more rows than dims (n <= dim) the scaled gram
    is no larger than the rows, so it is built once by one syrk
    (:func:`_scaled_gram`).  The seed filter reads a kept gram in place
    as one block and streams a larger image's upper triangle in tiles of
    at most 256 × 1440 (:func:`_tiles`, :func:`_tile`), one after another;
    each block or tile is reduced on its own to its smallest value and
    the pairs near it (:func:`_reduce`), and the reductions are merged
    (:func:`_merge`).  Each step reads one row of a kept gram or computes
    one column.  The seed comes from :func:`_certified_seed_pair`; each
    step then works as follows.

    With m rows selected, let S(r) be the reference's score of an
    unselected row r, E(r) its exact value, F(r) the score kept here
    (``combine(F, <source's dots with row nxt>)`` per step, in float32,
    unit roundoff u = 2**-24) and V(r) a float64 recomputation:
    ``unit[r] @ unit[selected].sum(axis=0)`` for ``sum_distance``,
    ``(unit[r] @ unit[selected].T).max()`` for ``min_distance``.
    Each source dot product is within eps of the exact one, and each
    float64 one within delta (module docstring):

    - ``min_distance``: a maximum is exact and moves by no more than its
      terms, so |F - E| <= bF = eps and |S - E|, |V - E| <= b64 = delta.
    - ``sum_distance``: m terms, each off by eps (delta), and summing m
      terms of size at most 1 + eps (1 + delta) in any order adds at most
      gamma_m(u) m (1 + eps) (Higham sec. 4.2), so bF = m eps + gamma_m(u)
      m (1 + eps) and b64 = m delta + gamma_m(2**-53) m (1 + delta).  V
      holds too: the sum of the m selected rows is off by gamma_m(2**-53)
      times the sum of their entries' sizes, which moves the dot by at most
      gamma_m(2**-53) m, and the dot then adds gamma_dim(2**-53) (1 +
      gamma_m(2**-53)) m at most, so |V - E| <= b64.

    Both get 1% slack.  The reference takes p*, the first row with the
    smallest S; for the F-minimizer q, F(p*) <= S(p*) + b64 + bF <=
    S(q) + b64 + bF <= F(q) + 2 bF + 2 b64, so every row within 2 bF +
    2 b64 of the smallest F is kept (the limit rounded up to a float32).
    One kept row is p*.  Of several, the one with the smallest V is p* if
    it beats every other by more than 4 b64, by the seed pair's argument.
    Otherwise (exact ties, near-ties, or more than _MAX_CANDIDATES kept
    rows) the source is freed, ``tokens.unit64()`` is built, S is
    replayed and the reference finishes the selection.  So do images with
    a row norm of 2**63 or more, which have no scaled rows.
    """
    if objective not in GREEDY_OBJECTIVES:
        raise BadConfig(f"unknown greedy_objective {objective!r}")
    k = _integer("selection budget", k, 1, BadBudget)
    return _Greedy(tokens, k, objective).run()


class _Greedy:
    """:func:`greedy_rep_max` for an int k >= 1 and a known objective as
    ``items`` work items: ``reduce(t)`` for t in range(items), in any
    order and on any threads, then ``finish()`` once, which merges the
    reductions, certifies the seed, takes the steps and falls back to the
    float64 computation where a decision cannot be certified.  The items
    are the streamed filter's tiles (:func:`_tiles`), or one block that
    builds and reads the kept gram of an image with no more rows than
    dims, or one that does nothing when k >= rows, there is no score
    source or the bounds fail at this dim (tol >= 1).  Once a tile has
    more than _MAX_CANDIDATES pairs near its own minimum, the image goes
    to the float64 computation and the tiles left are not computed.

    ``tokens`` is the image: a TokenMatrix, or ``io_formats._FileRows`` whose
    rows stay in their file; the job needs only its ``rows``, ``dim`` and
    ``norms_sq`` until the first item that reads a row takes them all
    through its ``gather``, once (a view of a matrix's rows, a read of a
    file's), as ``data``.  ``finish()`` keeps the rows it picked as
    ``kept``, in ascending order, and drops ``data``.

    The job is the image's score source (module docstring): the rows
    ``data``, their float32 reciprocal norms ``scale`` (unit row i is
    about data[i] * scale[i]), ``eps``, the bound on each dot product it
    gives, and ``gram``, their whole scaled gram with +inf on its diagonal
    once the kept-gram item builds it.  ``scale`` is None when k >= rows
    or some row's norm is 2**63 or more, where the bound fails, and is set
    to None once a tile overflows or the job finishes."""

    def __init__(self, tokens, k: int, objective: str):
        self.tokens, self.k = tokens, k
        self.combine = np.add if objective == "sum_distance" else np.maximum
        self.scale = self.gram = self.data = self.kept = None
        self.lock = threading.Lock()
        self.tiles = []
        if k < tokens.rows and tokens.norms_sq.max() < 2.0**126:
            self.scale = (1 / np.sqrt(tokens.norms_sq)).astype(np.float32)
            dim, u = tokens.dim, 2.0**-24
            underflow = dim * max(1.0, float(self.scale.max())) ** 2 * 2.0**-148
            self.eps = 1.01 * (5 * u + _gamma(dim, u) * (1 + 5 * u) + underflow)
            self.tol = 2 * self.eps + 2 * _delta(dim)
            if self.tol < 1:
                n = tokens.rows
                self.tiles = [(0, n, 0, n)] if n <= dim else _tiles(n)
        self.items = len(self.tiles) or 1
        self.parts = [None] * len(self.tiles)

    def run(self) -> list[int]:
        """Every item in order, then :meth:`finish`."""
        for t in range(self.items):
            self.reduce(t)
        return self.finish()

    def load(self) -> TokenMatrix:
        """``data``, taken through the image's ``gather`` by the first
        caller; the others wait for it."""
        with self.lock:
            if self.data is None:
                self.data = self.tokens.gather(slice(None))
            return self.data

    def reduce(self, t: int) -> None:
        scale = self.scale
        if scale is None or not self.tiles:
            return
        data = self.load().data
        r0, rows, c0, cols = self.tiles[t]
        if self.tokens.rows <= self.tokens.dim:
            block = self.gram = _scaled_gram(data, scale)
        else:
            block = _tile(data, scale, r0, rows, c0, cols)
        self.parts[t] = _reduce(block, r0, c0, self.tol)
        if self.parts[t] is None:
            self.scale = None  # dropped for good: the image goes to float64

    def column(self, i: int) -> np.ndarray:
        """The dot products of every unit row with row i: a read-only view
        of row i of a kept gram (whose entry i is +inf), or computed as in
        :func:`_tile`."""
        if self.gram is not None:
            return self.gram[i]
        data, scale = self.load().data, self.scale
        column = data @ data[i]
        column *= scale[i]
        column *= scale
        return column

    def _certified_steps(self, selected: list[int]) -> None:
        """Extend ``selected`` toward k rows with :func:`_float64_steps`'s choices.

        Keeps a running score read from :meth:`column` and certifies each
        step as :func:`greedy_rep_max` derives.  Stops at the first step it
        cannot certify, leaving in ``selected`` the choices made so far.
        """
        tokens, k, combine = self.load(), self.k, self.combine
        dim = tokens.dim
        eps, delta = self.eps, _delta(dim)
        u = 2.0**-24
        # The float64 unit rows of selected[:filled], widened at rechecks:
        # sum_distance holds only their sum, min_distance the rows, in arrays
        # of at least _HELD_BLOCK rows but the last.
        total, held = np.zeros(dim), []
        filled = 0
        score = combine(self.column(selected[0]), self.column(selected[1]))
        score[selected] = np.inf
        while len(selected) < k:
            m = len(selected)
            if combine is np.add:
                bF = 1.01 * m * (eps + _gamma(m, u) * (1 + eps))
                b64 = 1.01 * m * (delta + _gamma(m, 2.0**-53) * (1 + delta))
            else:
                bF, b64 = eps, delta
            limit = _limit(float(score.min()), 2 * bF + 2 * b64)
            cand = np.flatnonzero(score <= limit)
            win = 0
            if len(cand) > 1:
                if len(cand) > _MAX_CANDIDATES:
                    return
                new = _unit64_rows(tokens, selected[filled:m])
                filled = m
                cand64 = _unit64_rows(tokens, cand)
                if combine is np.add:
                    total += new.sum(axis=0)
                    value = cand64 @ total
                else:
                    if held and len(held[-1]) < _HELD_BLOCK:
                        new = np.concatenate((held.pop(), new))
                    held.append(new)
                    value = np.maximum.reduce([(cand64 @ h.T).max(1) for h in held])
                win = _clear_winner(value, b64)
                if win is None:
                    return
            nxt = int(cand[win])
            selected.append(nxt)
            combine(score, self.column(nxt), out=score)
            score[nxt] = np.inf

    def finish(self) -> list[int]:
        tokens, k = self.load(), self.k
        if k >= tokens.rows:
            self.kept, self.data = tokens, None
            return list(range(tokens.rows))
        selected = []
        if self.tiles:
            found = _merge(self.parts, self.tol)
            selected = list(_certified_seed_pair(tokens, found) or ())
            if selected and k > 2:
                self._certified_steps(selected)
        self.scale = self.gram = None  # freed before any float64 copy of the image
        if len(selected) < k:
            with _allocating(f"the float64 rows of a {tokens.rows}-row image"):
                unit = tokens.unit64()
                selected = selected or list(_exact_seed_pair(unit))
                if len(selected) < k:
                    _float64_steps(unit, selected, k, self.combine)
        selected = [selected[0]] if k == 1 else sorted(selected)
        self.kept, self.data = tokens.gather(selected), None
        return selected


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
    best); a point's rank is 1 plus the count of strictly better points,
    the points after the last of its value's copies in sorted order.
    """
    v = np.array([p.v for p in front])
    a = np.array([p.a for p in front])
    rank_v = 1 + len(v) - np.searchsorted(np.sort(v), v, side="right")
    rank_a = 1 + len(a) - np.searchsorted(np.sort(a), a, side="right")
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
