"""On-disk formats and the synthetic bundle generator.

Embeddings travel in TTB1, a little-endian binary layout:

    magic "TTB1" | u32 version=1 | u32 n_images | u32 n_text | u32 dim
    | n_images x u32 token counts | image rows | text rows

with all rows stored row-major as 32-bit floats, images first (in order),
then text.  Reports and selections are serialized as JSON with a fixed key
order so documents diff cleanly.
"""

from __future__ import annotations

import json
import numbers
import os
import stat
import struct
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BadConfig,
    BadMagic,
    BadSpec,
    BadVersion,
    IoFailure,
    SelectionMismatch,
    ShapeMismatch,
    TruncatedFile,
    _allocating,
)
from .types import (
    CONFIG_FIELDS,
    PruneConfig,
    RedundancyReport,
    ResolvedBudgets,
    Selection,
    TokenBundle,
    _MAX_DIM,
    _bundle,
    _instance,
    _integer,
    _items,
    _real,
    _token_counts,
)

MAGIC = b"TTB1"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")
_PATH_TYPES = (str, bytes, os.PathLike)
# Bytes the payload reader thread asks for per read call.
_PIECE = 1 << 20


def write_bundle(bundle: TokenBundle, path) -> None:
    """Serialize a bundle to TTB1; read_bundle(write_bundle(b)) is bit-exact.

    A ``bundle`` that is not a TokenBundle raises ShapeMismatch, and a
    ``path`` that is not a str, bytes or os.PathLike IoFailure, as does
    any OS error.
    """
    _instance("bundle", bundle, TokenBundle, ShapeMismatch)
    _instance("path", path, _PATH_TYPES, IoFailure)
    header = _HEADER.pack(
        MAGIC, VERSION, bundle.n_images, bundle.text.rows, bundle.dim
    ) + struct.pack(f"<{bundle.n_images}I", *bundle.counts)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(bundle.rows.data, dtype="<f4"))
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in path
        raise IoFailure(f"cannot write bundle to {path}: {exc}") from exc


def _fill(fh, buf) -> int:
    """Read from ``fh`` into ``buf`` (a TTB1 header or its image counts)
    until it is full or the file ends; returns the number of bytes read."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def read_bundle(path) -> TokenBundle:
    """Load a TTB1 bundle, validating magic, version and exact payload size.

    The header and the image counts are checked against the file's size
    before the payload is allocated, and a payload this machine cannot
    allocate (a sparse file's size costs no disk) raises OutOfMemory.
    The payload is then read once, into a buffer that only the returned
    bundle's rows hold, by one reader thread in _PIECE-byte pieces, while
    this thread widens each chunk of rows (``types._widen``) as soon as
    its bytes have arrived.  The reader is joined on every path before
    the file is closed.  A ``path`` that is not a str, bytes or
    os.PathLike, or that names no regular file (a FIFO or a directory,
    say), raises IoFailure, as does any OS error; a file that ends early,
    or runs past the declared payload, raises TruncatedFile, also when it
    changes size while being read.  Those read errors win over a bad row
    found meanwhile (NonFiniteRow, ZeroNormRow), as a read done first
    would have raised them first.
    """
    _instance("path", path, _PATH_TYPES, IoFailure)
    try:
        # O_NONBLOCK: opening a FIFO must not wait for a writer.
        flags = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)
        fd = os.open(path, flags | getattr(os, "O_BINARY", 0))
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise IoFailure(f"cannot read bundle from {path}: not a regular file")
            fh = open(fd, "rb", buffering=0)
        except BaseException:
            os.close(fd)
            raise
        with fh:
            return _read_ttb1(fh, info.st_size)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in path
        raise IoFailure(f"cannot read bundle from {path}: {exc}") from exc


def _read_ttb1(fh, size: int) -> TokenBundle:
    """The bundle in a TTB1 file of ``size`` bytes, open unbuffered at its
    start: header and image counts read and checked here (a dim of 0 or a
    count of 0 raises ShapeMismatch), the payload by a
    :class:`_PayloadReader` while its rows are built."""
    head = bytearray(_HEADER.size)
    got = _fill(fh, head)
    if got < _HEADER.size:
        raise TruncatedFile(f"file ends inside the header at byte {got}")
    magic, version, n_images, n_text, dim = _HEADER.unpack(head)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, found {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported format version {version}")
    start = _HEADER.size + 4 * n_images
    if size < start:
        raise TruncatedFile(f"file ends inside the image counts at byte {size}")
    with _allocating(f"the {n_images} image counts"):
        raw = bytearray(start - _HEADER.size)
        if _fill(fh, raw) < len(raw):
            raise TruncatedFile("file shrank while its image counts were read")
        counts = struct.unpack(f"<{n_images}I", raw)
    n_rows = sum(counts) + n_text
    end = start + 4 * n_rows * dim
    if size != end:
        raise TruncatedFile(f"header declares {end} bytes, file has {size}")
    _integer("dim", dim, 1, ShapeMismatch)
    counts = _token_counts(counts)
    with _allocating(f"the {end - start}-byte payload"):
        payload = np.empty(end - start, dtype=np.uint8)
    with _PayloadReader(fh, payload, end) as reader:
        values = payload.view("<f4").reshape(n_rows, dim)
        if not values.dtype.isnative:
            # A big-endian host converts the rows before widening them,
            # so it needs them all first.
            reader.wait(len(payload))
            values = values.astype(np.float32)
        bundle = _bundle(values, counts, lambda b: reader.wait(4 * dim * b))
    return bundle


class _PayloadReader:
    """Fills a payload buffer from an open file on one thread of its own.

    The thread ``readinto``s the buffer in _PIECE-byte pieces, then checks
    that the file ends there, and publishes how many bytes it has read
    for :meth:`wait`; its error (TruncatedFile, or the OSError) is kept for
    :meth:`wait` and the context's exit to raise.  The exit joins the
    thread, then raises that error in place of any other.  The buffer is
    read-only to everyone else from the start.
    """

    def __init__(self, fh, payload: np.ndarray, end: int):
        self._fh = fh
        self._view = memoryview(payload)
        payload.setflags(write=False)
        self._end = end
        self._got = 0
        self._error: Exception | None = None
        self._done = False
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._run, name="ttb1-reader")
        self._thread.start()

    def _run(self) -> None:
        view, fh = self._view, self._fh
        try:
            while self._got < len(view):
                n = fh.readinto(view[self._got : self._got + _PIECE])
                if not n:
                    break
                with self._cond:
                    self._got += n
                    self._cond.notify_all()
            if self._got < len(view) or fh.read(1):
                raise TruncatedFile(
                    f"file changed size while read: header declares {self._end} bytes"
                )
        except Exception as exc:
            self._error = exc
        finally:
            with self._cond:
                self._done = True
                self._cond.notify_all()

    def wait(self, nbytes: int) -> None:
        """Return once the first ``nbytes`` bytes are in the buffer; raise
        the reader's error if it stopped before them."""
        if self._got >= nbytes:
            return
        with self._cond:
            self._cond.wait_for(lambda: self._got >= nbytes or self._done)
        if self._got < nbytes:
            raise self._error

    def __enter__(self) -> "_PayloadReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self._thread.join()
        if self._error is not None:
            raise self._error


# SyntheticSpec's integer fields and their smallest legal values; every one
# but the seed is at most _MAX_DIM, the largest a TTB1 u32 field holds.
_SPEC_FLOORS = dict(
    n_images=1, tokens_per_image=1, dim=1, seed=0, clusters=1, text_tokens=0
)
# The largest legal noise and drift.
_SPEC_SCALE_MAX = 1e8


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic bundle generator.

    Each image draws its tokens around ``clusters`` latent unit prototypes
    (orthonormal whenever clusters <= dim); ``noise`` is the Gaussian
    perturbation scale around a prototype and ``drift`` how far prototypes
    shift between consecutive images.  Low noise means high intra-image
    redundancy, low drift high inter-image redundancy.  BadSpec unless
    every count and the seed is an integer (never a bool or float), seed
    and text_tokens >= 0, the other counts >= 1, every count (dim
    included) at most 2**32 - 1, as TTB1 stores them, clusters <=
    tokens_per_image, the bundle's values at 8 bytes each at most
    ``sys.maxsize`` bytes, and noise and drift are real numbers in
    [0, 1e8].
    At that cap a prototype's share of each token entry, about 1 / noise,
    is already below float32 resolution (2**-24), and the cap keeps every
    perturbation and squared norm the generator forms finite.
    """

    n_images: int
    tokens_per_image: int
    dim: int
    seed: int
    clusters: int = 1
    noise: float = 0.0
    drift: float = 0.0
    text_tokens: int = 8

    def __post_init__(self):
        for name, low in _SPEC_FLOORS.items():
            high = None if name == "seed" else _MAX_DIM
            value = _integer(name, getattr(self, name), low, BadSpec, high)
            object.__setattr__(self, name, value)
        rows = self.n_images * self.tokens_per_image + self.text_tokens
        nbytes = 8 * rows * self.dim  # the bundle's values as float64
        _integer("bundle size in bytes", nbytes, 0, BadSpec, sys.maxsize)
        if self.clusters > self.tokens_per_image:
            raise BadSpec(
                f"clusters must be in [1, tokens_per_image], got {self.clusters}"
            )
        for name in ("noise", "drift"):
            value = getattr(self, name)
            # NaN fails every comparison.
            if not (isinstance(value, numbers.Real) and 0 <= value <= _SPEC_SCALE_MAX):
                raise BadSpec(
                    f"{name} must be finite and in [0, {_SPEC_SCALE_MAX:g}], "
                    f"got {value!r}"
                )


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@_allocating("the synthetic bundle")
def generate_synthetic(spec: SyntheticSpec) -> TokenBundle:
    """Deterministic bundle with controllable redundancy structure.

    Token i of every image belongs to prototype i mod clusters; each token
    is the unit-normalized prototype plus noise.  After each image the
    prototypes move by a drift-scaled Gaussian step and are re-normalized.
    The same spec always produces byte-identical bundles.  A ``spec``
    that is not a SyntheticSpec raises BadSpec, and one this machine
    cannot allocate OutOfMemory.
    """
    _instance("spec", spec, SyntheticSpec, BadSpec)
    rng = np.random.default_rng(spec.seed)
    if spec.clusters <= spec.dim:
        # Orthonormal prototypes: with noise=0 and clusters == tokens_per_image
        # an image's diversity is exactly 1.
        q, _ = np.linalg.qr(rng.standard_normal((spec.dim, spec.clusters)))
        protos = q.T.copy()
    else:
        protos = _unit(rng.standard_normal((spec.clusters, spec.dim)))

    rows = []
    for _ in range(spec.n_images):
        perturb = rng.standard_normal((spec.tokens_per_image, spec.dim))
        assign = np.arange(spec.tokens_per_image) % spec.clusters
        rows.append(_unit(protos[assign] + spec.noise * perturb).astype(np.float32))
        step = rng.standard_normal(protos.shape)
        protos = _unit(protos + spec.drift * step)
    rows.append(rng.standard_normal((spec.text_tokens, spec.dim)).astype(np.float32))

    counts = (spec.tokens_per_image,) * spec.n_images
    return _bundle(np.concatenate(rows), counts)


def _config_block(
    cfg: PruneConfig | None, budgets: ResolvedBudgets | None
) -> dict | None:
    _instance("cfg", cfg, (PruneConfig, type(None)), BadConfig)
    _instance("budgets", budgets, (ResolvedBudgets, type(None)), BadConfig)
    if cfg is None:
        return None
    block = {key: getattr(cfg, name) for key, name in CONFIG_FIELDS.items()}
    if budgets is not None:
        block["resolved"] = asdict(budgets)
    return block


def report_document(
    report: RedundancyReport,
    cfg: PruneConfig | None = None,
    budgets: ResolvedBudgets | None = None,
) -> dict:
    """JSON-ready document for a redundancy report (no selection).  A
    ``report`` that is not a RedundancyReport, or whose fields do not hold
    real numbers and counts, raises SelectionMismatch naming the field,
    and a ``cfg`` or ``budgets`` of the wrong type BadConfig."""
    _instance("report", report, RedundancyReport, SelectionMismatch)
    d_inter = report.d_inter
    return {
        "config": _config_block(cfg, budgets),
        "report": {
            "d_intra_per_image": _floats(
                "report d_intra_per_image", report.d_intra_per_image
            ),
            "d_intra_mean": _float("report d_intra_mean", report.d_intra_mean),
            "d_k": _floats("report d_k_list", report.d_k_list),
            "d_inter": None if d_inter is None else _float("report d_inter", d_inter),
            "s": _float("report s", report.s),
            "m1": _integer("report m1", report.m1, 0, SelectionMismatch),
            "per_image_budgets": _ints(
                "report per_image_budgets", report.per_image_budgets
            ),
        },
    }


def result_document(
    report: RedundancyReport,
    sel: Selection,
    cfg: PruneConfig | None = None,
    budgets: ResolvedBudgets | None = None,
) -> dict:
    """JSON-ready document for a full pruning result; arguments of the
    wrong type raise as in :func:`report_document`, and a ``sel`` that is
    not a Selection, or whose fields do not hold indices, counts and
    (index, diversity, alignment) triples, SelectionMismatch naming the
    field."""
    _instance("selection", sel, Selection, SelectionMismatch)
    doc = report_document(report, cfg, budgets)
    per_image = _items(
        "selection kept_per_image", sel.kept_per_image, SelectionMismatch
    )
    scores = _items("selection scores", sel.scores, SelectionMismatch)
    doc["selection"] = {
        "kept_per_image": [
            _ints(f"selection kept_per_image[{k}]", loc)
            for k, loc in enumerate(per_image)
        ],
        "kept_global": _ints("selection kept_global", sel.kept_global),
        "stage_sizes": _ints("selection stage_sizes", sel.stage_sizes),
        "scores": [_score(f"selection scores[{i}]", t) for i, t in enumerate(scores)],
    }
    return doc


def _float(name: str, value) -> float:
    return _real(name, value, SelectionMismatch)


def _floats(name: str, values) -> list[float]:
    """``values``'s items as floats, else SelectionMismatch naming them."""
    items = _items(name, values, SelectionMismatch)
    return [_float(f"{name}[{i}]", v) for i, v in enumerate(items)]


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
    return [_integer(name, g, 0, SelectionMismatch), _float(name, v), _float(name, a)]


def write_result(
    report: RedundancyReport,
    sel: Selection,
    path,
    cfg: PruneConfig | None = None,
    budgets: ResolvedBudgets | None = None,
) -> None:
    """Write a result document as stable-key-order JSON (UTF-8)."""
    write_json(result_document(report, sel, cfg, budgets), path, "result")


def write_json(doc, path, noun: str) -> None:
    """Write ``doc`` as indented JSON plus a newline; IoFailure names
    ``noun``, also for a ``path`` that is not a str, bytes or os.PathLike."""
    _instance(f"{noun} path", path, _PATH_TYPES, IoFailure)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in path
        raise IoFailure(f"cannot write {noun} to {path}: {exc}") from exc
