"""Validated embedding containers, configuration and result records.

Embeddings are stored once, as 32-bit float rows, next to each row's 64-bit
squared norm.  One pass at construction widens every stored row to 64-bit
exactly once, a few rows at a time, and yields those norms plus, for each
image and for the text, the 64-bit sum of its unit rows and of its raw
rows: the ``sums`` that the image's or text's own matrix keeps, the
aggregates the redundancy signals read.  That pass and the
per-token scores walk the rows in the same chunks (``_chunks``), the
one place that widens stored rows.  A bundle read from a file runs that
pass over the rows a reader thread delivers, each chunk as soon as its
bytes have arrived (see ``io_formats``).  The command line keeps no more
of a file than that pass yields: a :class:`_FileBundle` holds the norms,
the sums and the file, and reads an image's rows back (:class:`_FileRows`)
only when selection gets to it.  Greedy selection scores
the stored rows, scaled by a 32-bit reciprocal norm per row (keeping their
whole scaled gram when an image has no more rows than dims), and
certifies its choices in 64-bit (see ``selection``); every other
reduction (norms, sums, dot products) accumulates in 64-bit.
All containers are immutable after construction and safe to share across
threads.  A matrix holds its own float32 copy of a caller's values; only
the package's own fresh buffers (a file just read, a concatenation) are
shared as they are.
Arguments of the wrong type raise the package's error for that argument,
checked at each entry point by ``_instance``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import (
    BadConfig,
    DimMismatch,
    EmptyText,
    FileChanged,
    NonFiniteRow,
    SelectionMismatch,
    ShapeMismatch,
    TokenTrimError,
    ZeroNormRow,
)

_ZERO_NORM_EPS = 1e-12
# Values widened to float64 at a time by :func:`_chunks`: a 256 KiB chunk
# (32 rows at dim 1024) stays in cache while it is reduced.
_WIDEN_VALUES = 32 * 1024
# Rows are checked for a zero or non-finite norm at least once per this
# many values widened, and at the end of every segment.
_CHECK_VALUES = 8 * _WIDEN_VALUES
# The largest dim: what a TTB1 header can store.
_MAX_DIM = 2**32 - 1
# Passed by this module's own TokenMatrix constructions only.
_BUILT = object()


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _integer(
    name: str, value, low: int, error: type[TokenTrimError], high: int | None = None
) -> int:
    """``value`` as an int when it is integral (numpy integers too, never a
    bool), at least ``low`` and at most ``high`` when given; anything else
    raises ``error``."""
    # int first: it settles the common case without the slower ABC check.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise error(f"{name} must be of type int, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value}")
    return int(value)


def _real(name: str, value, error: type[TokenTrimError]) -> float:
    """``value`` as a float when it is a real number (numpy scalars and
    integers too, never a bool; inf and NaN included); anything else
    raises ``error``."""
    # float first: it settles the common case without the slower ABC check.
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise error(f"{name} must be of type float, got {value!r}")
    return float(value)


def _instance(name: str, value, kind, error: type[TokenTrimError]):
    """``value`` when it is an instance of ``kind``, a type or a tuple of
    types; anything else raises ``error``."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        wanted = " or ".join(k.__name__ for k in kinds)
        got = type(value).__name__
        raise error(f"{name} must be of type {wanted}, got {got}")
    return value


def _real_array(name: str, value, error: type[TokenTrimError]) -> np.ndarray:
    """A fresh C-ordered float32 copy of ``value`` when it is an array or a
    nested sequence of real numbers (bools and integers too); anything
    else, a string or a ragged sequence included, raises ``error``."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise error(f"{name} must be an array of real numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    # A value beyond float32's range is stored as +-inf, which the row
    # check then rejects as NonFiniteRow.
    with np.errstate(over="ignore"):
        return arr.astype(np.float32, order="C")


def _items(name: str, value, error: type[TokenTrimError]) -> tuple:
    """``value``'s items as a tuple when it is iterable; anything else, a
    0-d array included, raises ``error``."""
    try:
        return tuple(value)
    except TypeError:
        got = type(value).__name__
        raise error(f"{name} must be of type Iterable, got {got}") from None


@dataclass(frozen=True, eq=False)
class TokenMatrix:
    """A dense row-major matrix of token embeddings.

    ``data`` holds one float32 row per token and ``norms_sq`` each row's
    squared Euclidean norm, accumulated in float64.  Rows with norm below
    1e-12 or with a non-finite value are rejected at construction.
    ``sums`` holds the float64 (unit-row sum, raw-row sum) of all rows,
    shape (2, dim), read-only: from the build's widening pass, or None
    until the first :meth:`row_sums` keeps them.

    Only :func:`build_token_matrix` and the package's own builders
    (:func:`make_bundle`, ``read_bundle``, ``generate_synthetic``; and the
    matrices derived from theirs) make one, so that ``norms_sq`` always
    holds the rows' norms, which selection's certified bounds trust: a
    direct call, ``dataclasses.replace`` included, raises ShapeMismatch.
    """

    data: np.ndarray
    norms_sq: np.ndarray
    sums: np.ndarray | None = field(default=None, repr=False)
    _token: InitVar[object] = None

    def __post_init__(self, _token):
        if _token is not _BUILT:
            raise ShapeMismatch(
                "a TokenMatrix is made by build_token_matrix, not directly"
            )
        for arr in (self.data, self.norms_sq, self.sums):
            if arr is not None:
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

    def row_sums(self) -> np.ndarray:
        """The float64 (unit-row sum, raw-row sum) over all rows, shape
        (2, dim): ``sums``, taken by one widening pass on the first read
        when the build left none."""
        if self.sums is None:
            sums = _widen(self.data, (self.rows,))[1][0]
            sums.setflags(write=False)
            # Threads that read at once compute the same bits.
            object.__setattr__(self, "sums", sums)
        return self.sums

    def gather(self, indices) -> "TokenMatrix":
        """The given rows in order (views for a slice); nothing is recomputed."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices, dtype=np.int64)
        return TokenMatrix(
            self.data[indices], self.norms_sq[indices], _token=_BUILT
        )


def build_token_matrix(rows: int, dim: int, values) -> TokenMatrix:
    """Build a TokenMatrix from a flat row-major value buffer, with its sums.

    The matrix holds one fresh float32 copy of ``values``, whatever their
    dtype, so no later write to the caller's buffer reaches its rows.
    Raises ShapeMismatch when ``rows`` or ``dim`` is not an integer (a
    bool or float included), rows < 0, dim < 1 or dim >= 2**32 (more than
    TTB1 can store), ``values`` is not an array of real numbers (a
    string, say) or its length is not rows*dim, and ZeroNormRow or
    NonFiniteRow for the first row whose norm falls below 1e-12 or is not
    finite (a value beyond float32's range included).
    """
    dim = _integer("dim", dim, 1, ShapeMismatch, _MAX_DIM)
    rows = _integer("rows", rows, 0, ShapeMismatch)
    data = _real_array("values", values, ShapeMismatch)
    if data.size != rows * dim:
        raise ShapeMismatch(
            f"expected {rows * dim} values for {rows}x{dim}, got {data.size}"
        )
    data = data.reshape(rows, dim)
    norms_sq, sums = _widen(data, (rows,))
    return TokenMatrix(data, norms_sq, sums[0], _BUILT)


def _widen(data, ends: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's float64 squared norm, and each segment's float64
    (unit-row sum, raw-row sum), shape (segments, 2, dim), from one
    widening of every row.

    ``data`` is a 2-D float32 array, or rows still being read
    (``io_formats._PayloadReader``): anything with a ``shape`` whose
    slices ``data[a:b]``, taken in ascending order, are those rows.
    Segment s holds the rows from ``ends[s - 1]`` (0 for the first) to
    ``ends[s]``; ``ends`` must not decrease and must end at the row count.
    :func:`_chunks` walks each segment on its own, so its sums do not
    depend on its neighbours: they are the ``sums`` of a TokenMatrix over
    just those rows (a bundle's image or text view).  The norms equal
    ``einsum("ij,ij->i")`` on the widened rows bit for bit.  The rows are
    checked as they go, at the end of each segment and at least once per
    _CHECK_VALUES values, so a bad row stops the walk within a few chunks:
    the first row whose squared norm is not finite (a NaN or +-inf entry;
    a finite float32 row cannot overflow float64) raises NonFiniteRow,
    and one below 1e-24 ZeroNormRow, with no RuntimeWarning.
    """
    rows, dim = data.shape
    norms_sq = np.empty(rows)
    # Zero rows leave zero sums, which then take no memory whatever the dim.
    shape = (len(ends), 2, dim)
    sums = np.zeros(shape) if rows else np.broadcast_to(0.0, shape)
    buf = _buffer(data)
    weights = np.ones((2, len(buf)))  # reciprocal norms, then ones
    product = np.empty((2, dim)) if rows else None  # each chunk's w @ chunk
    every = max(1, _CHECK_VALUES // dim)
    lo = checked = 0
    # A bad row's reciprocal and products may be inf or NaN until the
    # check after its chunk raises.
    with np.errstate(divide="ignore", invalid="ignore"):
        for total, end in zip(sums, ends):
            for a, chunk in _chunks(data, buf, lo, end):
                b = a + len(chunk)
                nsq, w = norms_sq[a:b], weights[:, : len(chunk)]
                np.einsum("ij,ij->i", chunk, chunk, out=nsq)
                np.sqrt(nsq, out=w[0])
                np.divide(1.0, w[0], out=w[0])
                np.matmul(w, chunk, out=product)
                total += product
                if b == end or b - checked >= every:
                    _check_norms(norms_sq[checked:b], checked)
                    checked = b
            lo = end
    return norms_sq, sums


def _chunk_rows(rows: int, dim: int) -> int:
    """The rows of a :func:`_buffer` for ``rows`` rows of ``dim`` values:
    the most whole 32-row groups that _WIDEN_VALUES values hold (at least
    one) plus one row, or all rows when fewer."""
    groups = max(1, _WIDEN_VALUES // (32 * dim))
    return min(rows, 32 * groups + 1)


def _buffer(data, lead: int = 0) -> np.ndarray:
    """A float64 buffer for :func:`_chunks` over ``data``'s rows, after
    ``lead`` spare rows (:func:`_chunk_rows`)."""
    rows, dim = data.shape
    return np.empty((lead + _chunk_rows(rows, dim), dim))


def _chunks(
    data, buf: np.ndarray, lo: int = 0, hi: int | None = None,
    norms_sq: np.ndarray | None = None,
):
    """(a, chunk) for consecutive row chunks of ``data[lo:hi]`` from row a,
    each widened to float64 in ``buf`` (from :func:`_buffer`; the next
    chunk overwrites it) and, when ``norms_sq`` is given, scaled as
    :meth:`TokenMatrix.unit64` scales it, bit for bit.  A chunk holds one
    row less than ``buf``, the last up to one more, so every chunk but the
    last holds whole 32-row groups and none is a lone row: BLAS computes a
    matrix-vector product a few rows at a time, and a row left over may
    round differently.  Each chunk's rows are taken as one slice
    ``data[a:b]`` (see :func:`_widen`).
    """
    a, hi = lo, len(data) if hi is None else hi
    while a < hi:
        b = hi if hi - a <= len(buf) else a + len(buf) - 1
        chunk = buf[: b - a]
        np.copyto(chunk, data[a:b])
        if norms_sq is not None:
            chunk /= np.sqrt(norms_sq[a:b])[:, None]
        yield a, chunk
        a = b


def _check_norms(nsq: np.ndarray, first: int) -> None:
    """Raise NonFiniteRow or ZeroNormRow, with its global index (rows are
    numbered from ``first``), for the first row whose squared norm is not
    finite or is below 1e-24."""
    # NaN fails both comparisons.
    if len(nsq) and not (nsq.min() >= _ZERO_NORM_EPS**2 and nsq.max() < np.inf):
        finite = np.isfinite(nsq)
        i = int(np.flatnonzero(~finite | (nsq < _ZERO_NORM_EPS**2))[0])
        raise (ZeroNormRow if finite[i] else NonFiniteRow)(first + i)


def _token_counts(given) -> tuple[int, ...]:
    """A bundle's image token counts: a non-empty iterable of integers
    >= 1, stored as int; anything else raises ShapeMismatch."""
    counts = tuple(
        _integer(f"image {k} token count", m, 1, ShapeMismatch)
        for k, m in enumerate(_items("counts", given, ShapeMismatch))
    )
    if not counts:
        raise ShapeMismatch("bundle needs at least one image")
    return counts


@dataclass(frozen=True, eq=False)
class TokenBundle:
    """One pruning instance: all token rows in one matrix, plus image sizes.

    ``rows`` holds every image's tokens in order, then the text tokens;
    ``counts`` the token count of each image.  ``images`` and ``text`` are
    read-only views into ``rows``, and ``offsets`` the global index of each
    image's first token.  Every image must have at least one token; the text
    may be empty for signal-only diagnostics but the full pipeline requires
    text rows.  Each view keeps its own ``sums``: set by the package's
    builders from their widening pass, else taken on the view's first
    :meth:`TokenMatrix.row_sums`, so a bundle whose sums nobody reads
    widens no row.
    ``rows`` that is not a TokenMatrix, ``counts`` that is not iterable
    and a count that is not an integer >= 1 (a bool or float included)
    raise ShapeMismatch; numpy integers are stored as int.
    """

    rows: TokenMatrix
    counts: tuple[int, ...]
    images: tuple[TokenMatrix, ...] = field(init=False, repr=False)
    text: TokenMatrix = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        rows = _instance("rows", self.rows, TokenMatrix, ShapeMismatch)
        self._split(lambda lo, hi: rows.gather(slice(lo, hi)))

    def _split(self, view) -> None:
        """Check the counts and set the views, ``view(lo, hi)`` each."""
        rows = self.rows
        counts = _token_counts(self.counts)
        ends = (*itertools.accumulate(counts), rows.rows)
        if ends[-2] > rows.rows:
            raise ShapeMismatch(
                f"images need {ends[-2]} rows, matrix has {rows.rows}"
            )
        starts = (0, *ends[:-1])
        views = tuple(view(lo, hi) for lo, hi in zip(starts, ends))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "offsets", starts[:-1])
        object.__setattr__(self, "images", views[:-1])
        object.__setattr__(self, "text", views[-1])

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


def _ends(counts: tuple[int, ...], rows: int) -> tuple[int, ...]:
    """The segment ends of a bundle's rows: each image's, then the text's."""
    return (*itertools.accumulate(counts), rows)


def _bundle(data: np.ndarray, counts: tuple[int, ...], source=None) -> TokenBundle:
    """A TokenBundle over ``data``, a 2-D float32 buffer that the package
    made and holds alone (a copy, a file just read, a concatenation),
    shared as it is, with images of the ``counts``, already checked, then
    the remaining (text) rows.  One :func:`_widen` over those segments of
    ``source`` (``data`` itself, or the reader still filling its buffer)
    gives the norms and each view's ``sums``."""
    rows = data if source is None else source
    norms_sq, sums = _widen(rows, _ends(counts, len(data)))
    bundle = TokenBundle(TokenMatrix(data, norms_sq, _token=_BUILT), counts)
    _set_sums(bundle, sums)
    return bundle


def _set_sums(bundle: TokenBundle, sums: np.ndarray) -> None:
    """Give each view of a freshly built bundle its segment's ``sums``."""
    sums.setflags(write=False)
    for view, own in zip((*bundle.images, bundle.text), sums):
        object.__setattr__(view, "sums", own)


def _stacked(parts) -> TokenMatrix:
    """The rows of the TokenMatrix ``parts``, in order, in one fresh
    matrix; nothing is recomputed."""
    data = np.concatenate([m.data for m in parts])
    return TokenMatrix(data, np.concatenate([m.norms_sq for m in parts]), _token=_BUILT)


@dataclass(frozen=True, eq=False)
class _FileRows:
    """Consecutive rows of a TTB1 payload that stay in their file, from
    global row ``first`` on, with what the first pass (:func:`_widen`)
    kept of them: ``norms_sq`` and, for an image or the text, ``sums``.

    It stands in for a TokenMatrix wherever only those are read (``rows``,
    ``dim``, :meth:`row_sums`); :meth:`gather` is the one way to its
    rows, as :meth:`TokenMatrix.gather` is a matrix's: it reads them back.
    ``read(out, row)`` fills the float32 array ``out`` with the payload's
    rows from global row ``row`` on; it raises TruncatedFile,
    FileChanged or IoFailure when it cannot (see ``io_formats``).
    """

    read: Callable[[np.ndarray, int], None]
    first: int
    norms_sq: np.ndarray
    dim: int
    sums: np.ndarray | None = field(default=None, repr=False)

    @property
    def rows(self) -> int:
        return len(self.norms_sq)

    def row_sums(self) -> np.ndarray:
        return self.sums

    def part(self, lo: int, hi: int) -> "_FileRows":
        """Rows lo .. hi - 1 of these, still in the file."""
        return _FileRows(self.read, self.first + lo, self.norms_sq[lo:hi], self.dim)

    def gather(self, indices) -> TokenMatrix:
        """The given rows in order (a slice or a sequence of indices), read
        from the file in runs of consecutive rows, with the first pass's
        norms.  A row whose float32 squared norm is not within the float32
        bound of that norm raises FileChanged: |fl32(d.d) - d.d| <=
        gamma_dim(2**-24) d.d for d.d >= 0, plus dim 2**-149 for gradual
        underflow, and 1% slack covers the float64 norm's own rounding.
        Rows of norm 2**63 or more, whose float32 sum could overflow, are
        summed in float64 instead.  A change that keeps every row's norm
        within that bound is not detected here."""
        if isinstance(indices, slice):
            idx = np.arange(*indices.indices(self.rows))
        else:
            idx = np.asarray(indices, dtype=np.int64)
        data = np.empty((len(idx), self.dim), dtype=np.float32)
        starts = np.flatnonzero(np.diff(idx, prepend=-2) != 1).tolist()
        for p, q in zip(starts, [*starts[1:], len(idx)]):
            self.read(data[p:q], self.first + int(idx[p]))
        norms_sq = self.norms_sq[idx]
        wide = norms_sq >= 2.0**126
        with np.errstate(over="ignore"):
            # One dot product per row; a stacked matmul lets other
            # threads run while it does.
            got = np.matmul(data[:, None], data[:, :, None]).ravel().astype(np.float64)
        if wide.any():
            rows = data[wide].astype(np.float64)
            got[wide] = np.einsum("ij,ij->i", rows, rows)
        u = self.dim * 2.0**-24
        gamma = u / (1 - u) if u < 1 else np.inf
        bound = 1.01 * (gamma * norms_sq + self.dim * 2.0**-149)
        changed = np.flatnonzero(~(np.abs(got - norms_sq) <= bound))
        if len(changed):
            row = self.first + int(idx[changed[0]])
            raise FileChanged(f"row {row} no longer has the norm the first pass read")
        return TokenMatrix(data, norms_sq, _token=_BUILT)

    def unit64(self) -> np.ndarray:
        """As :meth:`TokenMatrix.unit64`, of the rows read back."""
        return self.gather(slice(None)).unit64()


@dataclass(frozen=True, eq=False)
class _FileBundle(TokenBundle):
    """A TokenBundle whose rows stay in their TTB1 file: ``rows`` and its
    views ``images`` and ``text`` are :class:`_FileRows`, with the first
    pass's norms and sums.  What the pipeline reads of a bundle other than
    those, it reads through their ``gather``, so ``analyze``, ``prune``
    and ``apply_selection`` run on it unchanged and read back only the
    rows they use.  Made by ``io_formats`` for the command line, and
    valid while its file is open; no other code sees one.
    """

    def __post_init__(self):
        self._split(self.rows.part)


def _file_bundle(rows: _FileRows, counts: tuple[int, ...], sums) -> _FileBundle:
    """A :class:`_FileBundle` over ``rows`` with images of the ``counts``,
    already checked, and each view's ``sums`` from the first pass."""
    bundle = _FileBundle(rows, counts)
    _set_sums(bundle, sums)
    return bundle


def make_bundle(images, text: TokenMatrix) -> TokenBundle:
    """Bundle image matrices and a text matrix, copying their rows into one.

    ``images`` must be an iterable of TokenMatrix and ``text`` a
    TokenMatrix, or ShapeMismatch is raised; an image whose dim differs
    from the text's raises DimMismatch.
    """
    text = _instance("text", text, TokenMatrix, ShapeMismatch)
    images = _items("images", images, ShapeMismatch)
    for k, img in enumerate(images):
        _instance(f"image {k}", img, TokenMatrix, ShapeMismatch)
        if img.dim != text.dim:
            raise DimMismatch(f"image {k} has dim {img.dim}, text has {text.dim}")
    counts = _token_counts(img.rows for img in images)
    return _bundle(np.concatenate([m.data for m in (*images, text)]), counts)


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
    A ``cfg`` that is not a PruneConfig raises BadConfig, and a ``bundle``
    that is not a TokenBundle ShapeMismatch.
    """
    _instance("cfg", cfg, PruneConfig, BadConfig)
    _instance("bundle", bundle, TokenBundle, ShapeMismatch)
    m0 = bundle.total_tokens
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
    Construction checks nothing; :func:`_selection_fields` checks a
    Selection's form wherever one is applied or written.
    """

    kept_per_image: tuple[tuple[int, ...], ...]
    kept_global: tuple[int, ...]
    scores: tuple[tuple[int, float, float], ...] = field(repr=False)
    stage_sizes: tuple[int, int, int, int]


def _ints(name: str, values) -> list[int]:
    """``values``'s items as ints >= 0, else SelectionMismatch naming them."""
    items = _items(name, values, SelectionMismatch)
    return [
        _integer(f"{name}[{i}]", v, 0, SelectionMismatch) for i, v in enumerate(items)
    ]


def _score(name: str, triple) -> list:
    """One selection score as [global index, diversity, alignment]."""
    items = _items(name, triple, SelectionMismatch)
    if len(items) != 3:
        raise SelectionMismatch(f"{name} must hold 3 values, got {len(items)}")
    g, v, a = items
    return [
        _integer(name, g, 0, SelectionMismatch),
        _real(name, v, SelectionMismatch),
        _real(name, a, SelectionMismatch),
    ]


def _selection_fields(sel) -> tuple[list, list[int], list[int], list]:
    """``sel``'s kept_per_image, kept_global, stage_sizes and scores, in
    that (document) order, as lists of ints and of :func:`_score` lists,
    when ``sel`` is a well-formed Selection: every index and count an int
    >= 0, every score a real number, four stage sizes that do not
    increase and end at the kept count, and a strictly ascending
    ``kept_global``.  Anything else raises SelectionMismatch naming the
    field.  The one check of a Selection's own form, for
    ``pipeline.apply_selection`` and ``io_formats.result_document``;
    whether it fits a bundle is theirs to check.
    """
    _instance("selection", sel, Selection, SelectionMismatch)
    name = "selection kept_per_image"
    per_image = _items(name, sel.kept_per_image, SelectionMismatch)
    per_image = [_ints(f"{name}[{k}]", loc) for k, loc in enumerate(per_image)]
    kept = _ints("selection kept_global", sel.kept_global)
    sizes = _ints("selection stage_sizes", sel.stage_sizes)
    scores = _items("selection scores", sel.scores, SelectionMismatch)
    scores = [_score(f"selection scores[{i}]", t) for i, t in enumerate(scores)]
    if len(sizes) != 4:
        raise SelectionMismatch(
            f"selection stage_sizes must hold 4 counts, got {len(sizes)}"
        )
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise SelectionMismatch(f"selection stage_sizes increase: {tuple(sizes)}")
    if sizes[3] != len(kept):
        raise SelectionMismatch(
            f"selection stage_sizes end at {sizes[3]}, but it keeps {len(kept)}"
        )
    if any(a >= b for a, b in zip(kept, kept[1:])):
        raise SelectionMismatch(
            "selection kept_global repeats a kept index or is not ascending"
        )
    return per_image, kept, sizes, scores
