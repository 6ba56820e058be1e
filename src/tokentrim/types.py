"""Validated embedding containers, configuration and result records.

Embeddings are stored once, as 32-bit float rows, next to each row's 64-bit
squared norm.  Greedy selection scores 32-bit unit rows (or a 64-bit gram
of a small set) and certifies its choices in 64-bit (see ``selection``);
every other reduction (norms, sums, dot products) accumulates in 64-bit.
All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BadConfig,
    BudgetUnsatisfiable,
    DimMismatch,
    EmptyText,
    NonFiniteRow,
    ShapeMismatch,
    TokenTrimError,
    ZeroNormRow,
)

_ZERO_NORM_EPS = 1e-12


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _integer(name: str, value, low: int, error: type[TokenTrimError]) -> int:
    """``value`` as an int when it is integral (numpy integers too, never a
    bool) and at least ``low``; anything else raises ``error``."""
    # int first: it settles the common case without the slower ABC check.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise error(f"{name} must be of type int, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class TokenMatrix:
    """A dense row-major matrix of token embeddings.

    ``data`` holds one float32 row per token and ``norms_sq`` each row's
    squared Euclidean norm, accumulated in float64.  Rows with norm below
    1e-12 or with a non-finite value are rejected at construction.
    """

    data: np.ndarray
    norms_sq: np.ndarray

    def __post_init__(self):
        for arr in (self.data, self.norms_sq):
            arr.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def unit64(self) -> np.ndarray:
        """A fresh float64 copy of the rows scaled to unit norm."""
        unit = self.data.astype(np.float64)
        unit /= np.sqrt(self.norms_sq)[:, None]
        return unit

    def gather(self, indices) -> "TokenMatrix":
        """The given rows in order (views for a slice); nothing is recomputed."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices, dtype=np.int64)
        return TokenMatrix(self.data[indices], self.norms_sq[indices])


def _immutable(arr: np.ndarray) -> bool:
    """True when neither the array nor any array it views can be written."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None or isinstance(arr, bytes)


def build_token_matrix(rows: int, dim: int, values) -> TokenMatrix:
    """Build a TokenMatrix from a flat row-major value buffer.

    The matrix shares ``values`` when it is an immutable float32 array (for
    example ``np.frombuffer`` over ``bytes``) and copies it otherwise.
    Raises ShapeMismatch when ``rows`` or ``dim`` is not an integer (a bool
    or float included), rows < 0, dim < 1 or the buffer length is not
    rows*dim, and ZeroNormRow or NonFiniteRow for the first row whose norm
    falls below 1e-12 or is not finite.
    """
    dim = _integer("dim", dim, 1, ShapeMismatch)
    rows = _integer("rows", rows, 0, ShapeMismatch)
    flat = np.asarray(values, dtype=np.float32).ravel()
    if flat.size != rows * dim:
        raise ShapeMismatch(
            f"expected {rows * dim} values for {rows}x{dim}, got {flat.size}"
        )
    data = flat.reshape(rows, dim)
    if not _immutable(data):
        data = data.copy()

    # einsum widens in small buffered chunks, so no float64 copy of the rows
    # materializes.  A row holding NaN or +-inf has a non-finite squared
    # norm; a finite float32 row cannot overflow float64.
    norms_sq = np.einsum("ij,ij->i", data, data, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(norms_sq) | (norms_sq < _ZERO_NORM_EPS**2))
    if bad.size:
        i = int(bad[0])
        if not np.isfinite(norms_sq[i]):
            raise NonFiniteRow(i)
        raise ZeroNormRow(i)
    return TokenMatrix(data=data, norms_sq=norms_sq)


@dataclass(frozen=True, eq=False)
class TokenBundle:
    """One pruning instance: all token rows in one matrix, plus image sizes.

    ``rows`` holds every image's tokens in order, then the text tokens;
    ``counts`` the token count of each image.  ``images`` and ``text`` are
    read-only views into ``rows``, and ``offsets`` the global index of each
    image's first token.  Every image must have at least one token; the text
    may be empty for signal-only diagnostics but the full pipeline requires
    text rows.  A count that is not an integer >= 1 (a bool or float
    included) raises ShapeMismatch; numpy integers are stored as int.
    """

    rows: TokenMatrix
    counts: tuple[int, ...]
    images: tuple[TokenMatrix, ...] = field(init=False, repr=False)
    text: TokenMatrix = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        counts = tuple(
            _integer(f"image {k} token count", m, 1, ShapeMismatch)
            for k, m in enumerate(self.counts)
        )
        if not counts:
            raise ShapeMismatch("bundle needs at least one image")
        ends = tuple(itertools.accumulate(counts))
        if ends[-1] > self.rows.rows:
            raise ShapeMismatch(
                f"images need {ends[-1]} rows, matrix has {self.rows.rows}"
            )
        offsets = (0, *ends[:-1])
        views = [slice(lo, hi) for lo, hi in zip(offsets, ends)]
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "images", tuple(map(self.rows.gather, views)))
        object.__setattr__(self, "text", self.rows.gather(slice(ends[-1], None)))

    @property
    def n_images(self) -> int:
        return len(self.counts)

    @property
    def dim(self) -> int:
        return self.rows.dim

    @property
    def total_tokens(self) -> int:
        """M_0, the total visual token count."""
        return self.rows.rows - self.text.rows


def make_bundle(images, text: TokenMatrix) -> TokenBundle:
    """Bundle image matrices and a text matrix, copying their rows into one."""
    images = tuple(images)
    for k, img in enumerate(images):
        if img.dim != text.dim:
            raise DimMismatch(f"image {k} has dim {img.dim}, text has {text.dim}")
    data = np.concatenate([m.data for m in (*images, text)])
    rows = build_token_matrix(len(data), text.dim, data)
    return TokenBundle(rows, tuple(img.rows for img in images))


def _typed(name: str, annotation: str, value):
    """``value`` checked against a field annotation such as "int | None".

    int fields take integers >= 1 (every integer field is a positive
    count) and float fields finite real numbers, never a bool, stored as
    int and float; bool and str fields take only their own type; an
    ``X | None`` field also takes None.  Anything else: BadConfig.
    """
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    if kind == "int":
        return _integer(name, value, 1, BadConfig)
    if isinstance(value, {"bool": bool, "str": str}.get(kind, ())):
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == "float" and number:
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
    finite = " and finite" if kind == "float" else ""
    raise BadConfig(f"{name} must be of type {annotation}{finite}, got {value!r}")


GREEDY_OBJECTIVES = ("sum_distance", "min_distance")
INTER_VARIANTS = ("global_mean", "position_wise")
_JSON_KEYS = {"lam": "lambda"}  # PruneConfig fields whose JSON key differs
_UNSET = object()  # retention_ratio not passed: 0.2 unless final_tokens is set


@dataclass(frozen=True)
class PruneConfig:
    """All pruning hyperparameters.

    At most one of ``final_tokens`` (absolute count) and ``retention_ratio``
    (fraction of the original token count) may be set; with neither given,
    ``retention_ratio`` is 0.2, and passing None for both raises BadConfig.
    Budgets here are nominal; :func:`resolve_config` clamps them against a
    concrete bundle.
    A value of the wrong type (a bool or float count, a string or
    non-finite number, a non-bool flag) or a count below 1 raises BadConfig.
    """

    m_min: int = 294
    m_max: int = 454
    lam: float = 0.5
    m2: int = 252
    final_tokens: int | None = None
    retention_ratio: float | None = _UNSET  # type: ignore[assignment]
    last_image_rule: bool = True
    inter_variant: str = "global_mean"
    align_on_normalized: bool = False
    greedy_objective: str = "sum_distance"

    def __post_init__(self):
        if self.retention_ratio is _UNSET:
            ratio = 0.2 if self.final_tokens is None else None
            object.__setattr__(self, "retention_ratio", ratio)
        # Annotations are text here (postponed evaluation), e.g. "int | None".
        for f in fields(self):
            key = _JSON_KEYS.get(f.name, f.name)
            checked = _typed(key, f.type, getattr(self, f.name))
            object.__setattr__(self, f.name, checked)
        if self.m_min > self.m_max:
            raise BadConfig(
                f"need m_min <= m_max, got ({self.m_min}, {self.m_max})"
            )
        if not self.lam > 0:
            raise BadConfig(f"lambda must be positive, got {self.lam}")
        has_abs = self.final_tokens is not None
        has_ratio = self.retention_ratio is not None
        if has_abs == has_ratio:
            raise BadConfig(
                "exactly one of final_tokens and retention_ratio must be set"
            )
        if has_ratio and not (0 < self.retention_ratio < 1):
            raise BadConfig(
                f"retention_ratio must lie in (0, 1), got {self.retention_ratio}"
            )
        if self.inter_variant not in INTER_VARIANTS:
            raise BadConfig(f"unknown inter_variant {self.inter_variant!r}")
        if self.greedy_objective not in GREEDY_OBJECTIVES:
            raise BadConfig(f"unknown greedy_objective {self.greedy_objective!r}")


# JSON key -> PruneConfig field, in field order.
CONFIG_FIELDS = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(PruneConfig)}


@dataclass(frozen=True)
class ResolvedBudgets:
    """Budgets after clamping against a bundle.

    Satisfies m_final <= m2 <= m_min <= m_max <= m0 and m_final >= 1.
    """

    m0: int
    m_min: int
    m_max: int
    m2: int
    m_final: int


def resolve_config(
    cfg: PruneConfig, bundle: TokenBundle, require_text: bool = False
) -> ResolvedBudgets:
    """Clamp the configured budgets against a concrete bundle.

    Applies the chain m_max' = min(m_max, M0), m_min' = min(m_min, m_max'),
    m2' = min(m2, m_min'), m_final' = min(final, m2'), with m_final' >= 1.
    Idempotent: resolving already-resolved budgets changes nothing.
    """
    m0 = bundle.total_tokens
    if m0 < bundle.n_images:
        raise BudgetUnsatisfiable(
            f"{m0} tokens cannot cover {bundle.n_images} images"
        )
    if require_text and bundle.text.rows == 0:
        raise EmptyText("full pipeline needs at least one text token")

    m_max = min(cfg.m_max, m0)
    m_min = min(cfg.m_min, m_max)
    m2 = min(cfg.m2, m_min)
    if cfg.final_tokens is not None:
        final = cfg.final_tokens
    else:
        final = round_half_away(cfg.retention_ratio * m0)
    final = max(1, min(final, m2))
    return ResolvedBudgets(m0=m0, m_min=m_min, m_max=m_max, m2=m2, m_final=final)


@dataclass(frozen=True)
class RedundancyReport:
    """Redundancy signals and the budgets derived from them."""

    d_intra_per_image: tuple[float, ...]
    d_intra_mean: float
    d_k_list: tuple[float, ...]
    d_inter: float | None
    s: float
    m1: int
    per_image_budgets: tuple[int, ...]


@dataclass(frozen=True)
class Selection:
    """Final pruning result.

    ``kept_per_image`` holds sorted local indices per image (possibly empty
    for an image fully removed at the final stage); ``kept_global`` the
    merged sorted global indices; ``scores`` one (global_index, diversity,
    alignment) triple per token that survived global filtering; and
    ``stage_sizes`` the (M0, M1, M2, M_final) counts, non-increasing.
    """

    kept_per_image: tuple[tuple[int, ...], ...]
    kept_global: tuple[int, ...]
    scores: tuple[tuple[int, float, float], ...] = field(repr=False)
    stage_sizes: tuple[int, int, int, int]
