"""Redundancy signals and per-token scores.

Every score that has a linear-time form is implemented twice: a naive
quadratic reference (the definition, spelled out) and a fast path that
rewrites the same sum through the aggregate vector S = sum of rows.  The
naive forms double as oracles in the test suite; the fast forms are what
the pipeline runs.
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
from .types import TokenBundle, TokenMatrix

_DEGENERATE_EPS = 1e-9
_ZERO_MEAN_EPS = 1e-12

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


def intra_diversity_fast(img: TokenMatrix) -> float:
    """Same value as :func:`intra_diversity_naive` in linear time.

    On unit rows the gram total is ||S||^2 with S the row sum, and the
    diagonal contributes N, so the ordered-pair distance sum collapses to
    N(N-1) - (||S||^2 - N).
    """
    n = img.rows
    if n < 2:
        return 0.0
    s = img.unit64().sum(axis=0)
    ssq = float(s @ s)
    return (n * (n - 1) - (ssq - n)) / (n * (n - 1))


def intra_diversity_mean(bundle: TokenBundle) -> tuple[list[float], float]:
    """Per-image diversity plus its arithmetic mean over the bundle."""
    per_image = [intra_diversity_fast(img) for img in bundle.images]
    return per_image, float(np.mean(per_image))


def inter_variation_steps(bundle: TokenBundle) -> list[float]:
    """Cosine distance between consecutive images' mean raw embeddings.

    Step k (k = 2..n) compares image k against image k-1; the result has
    n-1 entries and is empty for a single-image bundle.  Raises
    ZeroMeanImage (1-based index) when an image's token mean has near-zero
    norm, which makes the cosine undefined.
    """
    means = []
    for k, img in enumerate(bundle.images, start=1):
        mu = img.data.mean(axis=0, dtype=np.float64)
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
    for k in range(1, bundle.n_images):
        prev, cur = bundle.images[k - 1], bundle.images[k]
        if prev.rows != cur.rows:
            raise PositionMismatch(k + 1)
        dots = np.einsum("ij,ij->i", cur.unit64(), prev.unit64())
        steps.append(float(np.mean(1.0 - dots)))
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
        mu = text.data.mean(axis=0, dtype=np.float64)
        c = float(text.norms_sq.mean())
    mu.setflags(write=False)
    return AlignmentContext(mu_t=mu, c_t=c, m_text=text.rows)


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


def alignment_fast(
    tokens: TokenMatrix, ctx: AlignmentContext, on_normalized: bool = False
) -> np.ndarray:
    """Alignment via the expanded square: a_i = -||x_i||^2 - C + 2 x_i . mu_t.

    ``ctx`` must come from the same text matrix with the same normalization
    choice.  Agrees with :func:`alignment_naive` within 1e-4 absolute.
    """
    if tokens.dim != ctx.mu_t.shape[0]:
        raise DimMismatch(
            f"tokens have dim {tokens.dim}, context has dim {ctx.mu_t.shape[0]}"
        )
    if on_normalized:
        xs = tokens.unit64()
        norms_sq = np.einsum("ij,ij->i", xs, xs)
    else:
        xs, norms_sq = tokens.data, tokens.norms_sq
    return -norms_sq - ctx.c_t + 2.0 * (xs @ ctx.mu_t)


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


def token_diversity_fast(candidates: TokenMatrix) -> np.ndarray:
    """Per-token dispersion via the aggregate: v_i = (N - x_i . S) / (N - 1)."""
    n = candidates.rows
    if n < 2:
        raise TooFewTokens(f"per-token diversity needs >= 2 tokens, got {n}")
    unit = candidates.unit64()
    s = unit.sum(axis=0)
    return (n - unit @ s) / (n - 1)
