"""Redundancy signals and per-token scores.

Each pairwise score is computed in linear time by rewriting its sum
through an aggregate: the unit-row sum S for the diversities, the text
mean and mean squared norm for alignment.  The redundancy signals and the
text mean read the float64 unit-row and raw-row sums that each image and
the text carry from the bundle's build (:meth:`TokenMatrix.row_sums`), so
they widen no stored row again.  The per-token scores widen the candidate
rows to float64 a few at a time (:func:`_widened`), never all at once.
The quadratic definitions, spelled out, live in :mod:`tokentrim.bench` as
test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    EmptySteps,
    EmptyText,
    PositionMismatch,
    TooFewTokens,
    ZeroMeanImage,
)
from .types import _WIDEN_VALUES, TokenBundle, TokenMatrix

_DEGENERATE_EPS = 1e-9
_ZERO_MEAN_EPS = 1e-12

def intra_diversity_fast(img: TokenMatrix) -> float:
    """Mean pairwise cosine distance over ordered pairs, in linear time.

    The mean of 1 - cos(x_i, x_j) over i != j; 0.0 for a single token.  On
    unit rows the gram total is ||S||^2 with S the row sum, and the
    diagonal contributes N, so the ordered-pair distance sum collapses to
    N(N-1) - (||S||^2 - N).  S is the float64 unit-row sum the image
    carries from its build (:meth:`TokenMatrix.row_sums`), so no row is
    widened here.
    """
    n = img.rows
    if n < 2:
        return 0.0
    s = img.row_sums()[0]
    ssq = float(s @ s)
    return (n * (n - 1) - (ssq - n)) / (n * (n - 1))


def intra_diversity_mean(bundle: TokenBundle) -> tuple[list[float], float]:
    """Per-image diversity plus its arithmetic mean over the bundle."""
    per_image = [intra_diversity_fast(img) for img in bundle.images]
    return per_image, float(np.mean(per_image))


def inter_variation_steps(bundle: TokenBundle) -> list[float]:
    """Cosine distance between consecutive images' mean raw embeddings.

    Step k (k = 2..n) compares image k against image k-1; the result has
    n-1 entries and is empty for a single-image bundle.  Each mean is the
    float64 raw-row sum the image carries from its build over its token
    count.  Raises ZeroMeanImage (1-based index) when an image's token mean
    has near-zero norm, which makes the cosine undefined.
    """
    means = []
    for k, img in enumerate(bundle.images, start=1):
        mu = img.row_sums()[1] / img.rows
        norm = float(np.linalg.norm(mu))
        if norm < _ZERO_MEAN_EPS:
            raise ZeroMeanImage(k)
        means.append(mu / norm)
    return [
        1.0 - float(means[k] @ means[k - 1]) for k in range(1, len(means))
    ]


def inter_variation_positionwise(bundle: TokenBundle) -> list[float]:
    """Diagnostic variant: mean cosine distance between same-position tokens.

    Requires consecutive images to have equal token counts and is sensitive
    to token order, which is exactly the failure mode that makes it a
    diagnostic rather than the default signal.  Raises PositionMismatch(k)
    when image k-1 and image k differ in length.
    """
    steps = []
    prev = bundle.images[0]
    prev_unit = prev.unit64()
    for k in range(1, bundle.n_images):
        cur = bundle.images[k]
        if prev.rows != cur.rows:
            raise PositionMismatch(k + 1)
        cur_unit = cur.unit64()
        dots = np.einsum("ij,ij->i", cur_unit, prev_unit)
        steps.append(float(np.mean(1.0 - dots)))
        prev, prev_unit = cur, cur_unit
    return steps


def inter_variation_mean(steps: list[float]) -> float:
    """Arithmetic mean of the step distances; EmptySteps when there are none."""
    if not steps:
        raise EmptySteps("no consecutive image pairs to average")
    return float(np.mean(steps))


def s_factor(d_intra_mean: float, d_inter: float | None) -> float:
    """Redundancy ratio steering the stage-1 budget.

    s = d_intra_mean / d_inter, made total by three fallbacks: a single
    image (d_inter is None) gives the neutral 1.0; a near-zero d_inter with
    nonzero dispersion saturates to +inf (downstream clipping absorbs it);
    both near zero give 1.0.
    """
    if d_inter is None:
        return 1.0
    if d_inter < _DEGENERATE_EPS:
        return 1.0 if d_intra_mean < _DEGENERATE_EPS else math.inf
    return d_intra_mean / d_inter


@dataclass(frozen=True)
class AlignmentContext:
    """Text-side aggregates reused across every visual token.

    mu_t is the mean text embedding, c_t the mean squared text-token norm,
    m_text the text token count.  Build once per bundle; alignment of any
    number of visual tokens is then linear in their count.
    """

    mu_t: np.ndarray
    c_t: float
    m_text: int


def build_alignment_context(
    text: TokenMatrix, on_normalized: bool = False
) -> AlignmentContext:
    """Aggregate the text matrix for the fast alignment path."""
    if text.rows < 1:
        raise EmptyText("alignment needs at least one text token")
    if on_normalized:
        rows = text.unit64()
        mu = rows.mean(axis=0)
        c = float(np.einsum("ij,ij->i", rows, rows).mean())
    else:
        mu = text.row_sums()[1] / text.rows
        c = float(text.norms_sq.mean())
    mu.setflags(write=False)
    return AlignmentContext(mu_t=mu, c_t=c, m_text=text.rows)


def alignment_fast(
    tokens: TokenMatrix, ctx: AlignmentContext, on_normalized: bool = False
) -> np.ndarray:
    """Alignment via the expanded square: a_i = -||x_i||^2 - C + 2 x_i . mu_t.

    ``ctx`` must come from the same text matrix with the same normalization
    choice.  a_i is the negative mean squared distance -(1/M) sum_j
    ||x_i - t_j||^2; higher (closer to zero) means better aligned.
    """
    if tokens.dim != ctx.mu_t.shape[0]:
        raise DimMismatch(
            f"tokens have dim {tokens.dim}, context has dim {ctx.mu_t.shape[0]}"
        )
    if on_normalized:
        xs = tokens.unit64()
        norms_sq = np.einsum("ij,ij->i", xs, xs)
        return -norms_sq - ctx.c_t + 2.0 * (xs @ ctx.mu_t)
    dots = np.empty(tokens.rows)
    for a, chunk in _widened(tokens, _buffer(tokens), unit=False):
        np.matmul(chunk, ctx.mu_t, out=dots[a : a + len(chunk)])
    return -tokens.norms_sq - ctx.c_t + 2.0 * dots


def token_diversity_fast(candidates: TokenMatrix) -> np.ndarray:
    """Per-token dispersion v_i = (1/(N-1)) * sum over j != i of (1 - cos).

    Via the aggregate: v_i = (N - x_i . S) / (N - 1) on unit rows.  S sums
    the unit rows one after another, as ``unit64().sum(axis=0)`` does: each
    chunk's sum starts from the running one, put in the row before it.
    """
    n = candidates.rows
    if n < 2:
        raise TooFewTokens(f"per-token diversity needs >= 2 tokens, got {n}")
    buf = _buffer(candidates, lead=1)
    s = None
    for _, chunk in _widened(candidates, buf[1:], unit=True):
        if s is None:
            s = chunk.sum(axis=0)
        else:
            buf[0] = s
            s = buf[: len(chunk) + 1].sum(axis=0)
    dots = np.empty(n)
    for a, chunk in _widened(candidates, buf[1:], unit=True):
        np.matmul(chunk, s, out=dots[a : a + len(chunk)])
    return (n - dots) / (n - 1)


def _chunk_rows(dim: int) -> int:
    """Rows per chunk of :func:`_widened`: the most whole 32-row groups
    that _WIDEN_VALUES values hold (32 rows at dim 1024), at least one.
    BLAS kernels compute a matrix-vector product a few rows at a time (4,
    8 or 16), and a row left over at a chunk's end may take another code
    path that rounds differently, so every chunk but the last starts and
    ends on the row groups of the whole matrix."""
    return 32 * max(1, _WIDEN_VALUES // (32 * dim))


def _buffer(tokens: TokenMatrix, lead: int = 0) -> np.ndarray:
    """A float64 buffer for :func:`_widened`'s chunks of ``tokens``, after
    ``lead`` spare rows."""
    rows = min(tokens.rows, _chunk_rows(tokens.dim) + 1)
    return np.empty((lead + rows, tokens.dim))


def _widened(tokens: TokenMatrix, buf: np.ndarray, unit: bool):
    """(a, chunk) for consecutive row chunks of ``tokens`` from row a, each
    widened to float64 in ``buf`` (the next chunk overwrites it) and, when
    ``unit``, scaled as :meth:`TokenMatrix.unit64` scales it, bit for bit.

    Chunks hold :func:`_chunk_rows` rows, the last up to one more: a lone
    row would make ``chunk @ x`` a dot product instead of the
    matrix-vector product that the whole matrix takes, whose sums may
    round differently.
    """
    n, step = tokens.rows, _chunk_rows(tokens.dim)
    a = 0
    while a < n:
        b = a + step
        if b + 1 >= n:
            b = n
        chunk = buf[: b - a]
        np.copyto(chunk, tokens.data[a:b])
        if unit:
            chunk /= np.sqrt(tokens.norms_sq[a:b])[:, None]
        yield a, chunk
        a = b
