"""On-disk formats and the synthetic bundle generator.

Embeddings travel in TTB1, a little-endian binary layout:

    magic "TTB1" | u32 version=1 | u32 n_images | u32 n_text | u32 dim
    | n_images x u32 token counts | image rows | text rows

with all rows stored row-major as 32-bit floats, images first (in order),
then text.  Reports and selections are serialized as JSON with a fixed key
order so documents diff cleanly.

This module owns every read of a TTB1 file.  One routine,
:func:`_first_pass`, opens the file, checks its header and reads its
payload once: a reader thread (:class:`_PayloadReader`) fills a buffer
while the calling thread widens the rows (``types._widen``).
:func:`read_bundle` reads into one payload-sized buffer that the
bundle's rows then share.  The command line's :func:`_streamed` reads
through a small ring and keeps only the norms and sums: its bundle's
rows stay in the file (:class:`_FileRows`), and each ``gather`` reads
them back with ``os.preadv`` and checks that the file has not changed.
"""

from __future__ import annotations

import contextlib
import json
import numbers
import os
import stat
import struct
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadConfig,
    BadMagic,
    BadSpec,
    BadVersion,
    FileChanged,
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
    TokenMatrix,
    _BUILT,
    _MAX_DIM,
    _bundle,
    _chunk_rows,
    _ends,
    _instance,
    _integer,
    _ints,
    _items,
    _real,
    _selection_fields,
    _token_counts,
    _widen,
    _with_sums,
)

MAGIC = b"TTB1"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")
_PATH_TYPES = (str, bytes, os.PathLike)
# Bytes the payload reader thread asks for per read call.
_PIECE = 1 << 20
# Bytes of the ring a streamed read's first pass reads into: at least two
# chunks of the widening, and never more than the payload.
_RING = 4 << 20


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


def _open(path):
    """``path`` open unbuffered for reading, and its ``os.fstat``.  A path
    that names no regular file (a FIFO or a directory, say) raises
    IoFailure; an OSError or ValueError is the caller's to translate."""
    # O_NONBLOCK: opening a FIFO must not wait for a writer.
    flags = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)
    fd = os.open(path, flags | getattr(os, "O_BINARY", 0))
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise IoFailure(f"cannot read bundle from {path}: not a regular file")
        return open(fd, "rb", buffering=0), info
    except BaseException:
        os.close(fd)
        raise


def read_bundle(path) -> TokenBundle:
    """Load a TTB1 bundle, validating magic, version and exact payload size.

    The file is read once by :func:`_first_pass`, into a buffer of the
    whole payload that only the returned bundle's rows hold.  A payload
    this machine cannot allocate (a sparse file's size costs no disk)
    raises OutOfMemory.  A ``path`` that is not a str, bytes or
    os.PathLike, or that names no regular file (a FIFO or a directory,
    say), raises IoFailure, as does any OS error; a file that ends early,
    or runs past the declared payload, raises TruncatedFile, also when it
    changes size while being read.  Those read errors win over a bad row
    found meanwhile (NonFiniteRow, ZeroNormRow), as a read done first
    would have raised them first.
    """
    fh, _, head, payload, norms_sq, sums = _first_pass(path, None)
    fh.close()
    # A big-endian host converts the rows after their pass: a copy.
    values = payload.view("<f4").reshape(head.shape).astype(np.float32, copy=False)
    return _bundle(values, head.counts, (norms_sq, sums))


@contextlib.contextmanager
def _streamed(path):
    """Yield the bundle of the TTB1 file at ``path`` as a
    :class:`_FileBundle`, open while the block runs: its rows stay in the
    file, which is read in two passes.

    Pass 1 is :func:`read_bundle`'s, with every check of the header, the
    size and the rows, but through a ring of _RING bytes that the reader
    thread refills as the widening moves on, so it keeps only the norms
    and the sums; it raises as read_bundle does, except that a bad row
    stops the read at once and is raised unless a read error came first.
    Pass 2 is every later ``gather`` of the bundle's rows
    (:meth:`_FileRows.gather`), which raises TruncatedFile, FileChanged
    or IoFailure when the file changed after pass 1.
    """
    fh, info, head, ring, norms_sq, sums = _first_pass(path, _RING)
    del ring  # so that no pass-1 buffer lives into stage 1
    with fh:
        dim = head.shape[1]
        rows = _FileRows(fh.fileno(), path, info, head.start, 0, norms_sq, dim)
        yield _with_sums(_FileBundle(rows, head.counts), sums)


def _first_pass(path, ring: int | None):
    """Open the TTB1 file at ``path`` and read it once.

    The header and the image counts are read and checked against the
    file's size before anything else is allocated.  Then a
    :class:`_PayloadReader`'s thread reads the payload into a buffer of
    the whole payload or, given ``ring``, of about that many bytes (at
    least two chunks of the widening, never more than the payload) that
    it refills as rows are used, while this thread widens each chunk of
    rows (``types._widen``) as soon as its bytes have arrived.  The
    reader is joined on every path, and the file closed on every failure.
    Returns the file, still open, its ``os.fstat``, its :class:`_Head`,
    the buffer, and the rows' norms and each segment's sums.  The errors
    are read_bundle's.
    """
    _instance("path", path, _PATH_TYPES, IoFailure)
    try:
        fh, info = _open(path)
        try:
            head = _read_head(fh, info.st_size)
            rows, dim = head.shape
            nbytes, noun = head.nbytes, "payload"
            if ring is not None:
                ring_rows = max(ring // (4 * dim), 2 * _chunk_rows(rows, dim))
                nbytes, noun = 4 * dim * min(rows, ring_rows), "read buffer"
            with _allocating(f"the {nbytes}-byte {noun}"):
                buffer = np.empty(nbytes, dtype=np.uint8)
            with _allocating(f"the norms and sums of {rows} rows"):
                with _PayloadReader(fh, buffer, head.shape) as reader:
                    norms_sq, sums = _widen(reader, _ends(head.counts, rows))
        except BaseException:
            fh.close()
            raise
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in path
        raise IoFailure(f"cannot read bundle from {path}: {exc}") from exc
    return fh, info, head, buffer, norms_sq, sums


@dataclass(frozen=True)
class _Head:
    """A TTB1 file's header: its image counts, the payload's rows and
    dim, and the byte offset where the payload starts."""

    counts: tuple[int, ...]
    shape: tuple[int, int]
    start: int

    @property
    def nbytes(self) -> int:
        return 4 * self.shape[0] * self.shape[1]


def _read_head(fh, size: int) -> _Head:
    """The header and image counts of a TTB1 file of ``size`` bytes, open
    unbuffered at its start, read and checked against that size (a dim of
    0 or a count of 0 raises ShapeMismatch)."""
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
    return _Head(_token_counts(counts), (n_rows, dim), start)


@dataclass(frozen=True, eq=False)
class _FileRows:
    """Consecutive rows of the payload of a TTB1 file open as ``fd``, from
    global row ``first`` on, with what :func:`_first_pass` kept of them:
    ``norms_sq`` and, for an image or the text, ``sums``.  ``info`` is
    the pass's ``os.fstat`` of the file at ``path``, and ``start`` the
    payload's byte offset.

    It stands in for a TokenMatrix wherever only those are read (``rows``,
    ``dim``, :meth:`row_sums`); :meth:`gather` is the one way to its
    rows, as :meth:`TokenMatrix.gather` is a matrix's: it reads them back.
    """

    fd: int
    path: object
    info: os.stat_result
    start: int
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
        return replace(
            self, first=self.first + lo, norms_sq=self.norms_sq[lo:hi], sums=None
        )

    def gather(self, indices) -> TokenMatrix:
        """The given rows in order (a slice or a sequence of indices), read
        from the file with the first pass's norms: one ``os.preadv`` per
        run of consecutive rows, from any thread.

        A short read raises TruncatedFile, and FileChanged is raised when,
        after the reads, the file's size or ``st_mtime_ns`` (``os.fstat``)
        or the inode that ``path`` names differs from what the first pass
        opened; that check is made once, as if after the first run, so a
        first run that comes up short raises TruncatedFile.  An OS error
        raises IoFailure.  Then a row whose float32 squared norm is not
        within the float32 bound of the first pass's norm raises
        FileChanged: |fl32(d.d) - d.d| <= gamma_dim(2**-24) d.d for d.d >=
        0, plus dim 2**-149 for gradual underflow, and 1% slack covers the
        float64 norm's own rounding.  Rows of norm 2**63 or more, whose
        float32 sum could overflow, are summed in float64 instead.
        Not detected: a change that restores the modification time and
        keeps the size and every re-read row's norm within that bound,
        such as a row's entries permuted or their signs flipped.  Such
        rows are then selected with the first pass's norms and sums.
        """
        if isinstance(indices, slice):
            idx = np.arange(*indices.indices(self.rows))
        else:
            idx = np.asarray(indices, dtype=np.int64)
        data = np.empty((len(idx), self.dim), dtype=np.float32)
        starts = np.flatnonzero(np.diff(idx, prepend=-2) != 1).tolist()
        short, stale = None, False
        try:
            for p, q in zip(starts, [*starts[1:], len(idx)]):
                row = self.first + int(idx[p])
                view = memoryview(data[p:q]).cast("B")
                if _pread(self.fd, view, self.start + 4 * self.dim * row) < len(view):
                    short = row
                    break
            # p > 0: the run that came up short was not the first.
            if starts and (short is None or p > 0):
                now, was = os.fstat(self.fd), self.info
                stale = (now.st_size, now.st_mtime_ns) != (
                    was.st_size, was.st_mtime_ns
                ) or os.stat(self.path).st_ino != was.st_ino
        except (OSError, ValueError) as exc:
            raise IoFailure(f"cannot read bundle from {self.path}: {exc}") from exc
        if stale:
            raise FileChanged(f"{self.path} changed after its first pass")
        if short is not None:
            raise TruncatedFile(f"file shrank after its first pass, at row {short}")
        if sys.byteorder == "big":
            data.byteswap(inplace=True)
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
    rows they use.  Made by :func:`_streamed` for the command line, and
    valid while its file is open; no other code sees one.
    """

    def __post_init__(self):
        self._split(self.rows.part)


def _pread(fd: int, view: memoryview, offset: int) -> int:
    """Read into ``view`` from byte ``offset`` of ``fd`` until it is full
    or the file ends, leaving the file position alone; returns the bytes
    read.  ``os.preadv`` releases the GIL while it copies."""
    got = 0
    while got < len(view):
        n = os.preadv(fd, [view[got:]], offset + got)
        if not n:
            break
        got += n
    return got


class _PayloadReader:
    """Reads a payload of ``shape`` float32 rows from an open file, on one
    thread of its own, into ``buffer``: the whole payload (read_bundle's
    rows), or a ring of fewer whole rows that it refills as they are used.

    The thread ``readinto``s the buffer in _PIECE-byte pieces, never past
    the end of the buffer in one call and, in a ring, never over rows not
    yet released: it waits until a whole piece (at most half the ring)
    fits, so that it wakes once per piece, not once per chunk.  Then it
    checks that the file ends with the payload.  Its error (TruncatedFile,
    or the OSError) is kept for a slice and the context's exit to raise.
    ``reader[a:b]``, for slices in ascending order (``types._widen``),
    waits until rows a .. b - 1 have arrived, releases every row before a,
    and returns those rows: a view, or a fresh copy of a run that wraps
    around the ring's end.  The exit stops a thread waiting for room in
    the ring, joins it, then raises its error in place of any other; a
    full-payload buffer never waits, so its read always runs to the end
    of the file, and a ring stops within a ring's length.  The buffer is
    read-only to everyone else from the start.
    """

    def __init__(self, fh, buffer: np.ndarray, shape: tuple[int, int]):
        self.shape = shape
        self._fh = fh
        self._row = 4 * shape[1]
        self._size = self._row * shape[0]
        self._view = memoryview(buffer)
        buffer.setflags(write=False)
        self._rows = buffer.view("<f4").reshape(-1, shape[1])
        self._ring = len(self._rows)
        self._got = 0
        # The thread may read up to here: the released rows plus the ring.
        self._limit = len(buffer)
        self._waiting = self._stop = self._done = False
        self._error: Exception | None = None
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._run, name="ttb1-reader")
        self._thread.start()

    def _run(self) -> None:
        view, fh, cap = self._view, self._fh, len(self._view)
        try:
            while self._got < self._size:
                if not self._room():
                    with self._cond:
                        self._waiting = True
                        self._cond.wait_for(lambda: self._room() or self._stop)
                        self._waiting = False
                    if self._stop:
                        return
                pos = self._got % cap
                n = min(self._got + _PIECE, self._limit, self._size) - self._got
                n = fh.readinto(view[pos : pos + min(n, cap - pos)])
                if not n:
                    break
                with self._cond:
                    self._got += n
                    self._cond.notify_all()
            if self._got < self._size or fh.read(1):
                raise TruncatedFile(
                    f"file changed size while read: header declares "
                    f"{self._size} payload bytes"
                )
        except Exception as exc:
            self._error = exc
        finally:
            with self._cond:
                self._done = True
                self._cond.notify_all()

    def _room(self) -> bool:
        """Whether the ring has room for the next piece, or for the rest:
        a piece is at most half the ring, and a chunk never holds more."""
        piece = min(_PIECE, len(self._view) // 2, self._size - self._got)
        return self._limit - self._got >= piece

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b = rows.start, rows.stop
        self._limit = max(self._limit, self._row * a + len(self._view))
        # The limit is set before the flag is read, so a thread that starts
        # to wait after this sees it.
        if self._waiting and self._room():
            with self._cond:
                self._cond.notify_all()
        need = self._row * b
        if self._got < need:
            with self._cond:
                self._cond.wait_for(lambda: self._got >= need or self._done)
            if self._got < need:
                raise self._error
        i, n = a % self._ring, b - a
        if i + n <= self._ring:
            return self._rows[i : i + n]
        return np.concatenate((self._rows[i:], self._rows[: i + n - self._ring]))

    def __enter__(self) -> "_PayloadReader":
        return self

    def __exit__(self, *exc_info) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
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
        block["resolved"] = {
            key: _integer(f"budgets {key}", value, 0, BadConfig)
            for key, value in vars(budgets).items()
        }
    return block


def report_document(
    report: RedundancyReport,
    cfg: PruneConfig | None = None,
    budgets: ResolvedBudgets | None = None,
) -> dict:
    """JSON-ready document for a redundancy report (no selection).  A
    ``report`` that is not a RedundancyReport, or whose fields do not hold
    real numbers and counts, raises SelectionMismatch naming the field,
    and a ``cfg`` or ``budgets`` of the wrong type, or a budget that is
    not a count, BadConfig naming it."""
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
    not a well-formed Selection (``types._selection_fields``, the check
    that ``apply_selection`` makes too) SelectionMismatch naming the
    field."""
    names = ("kept_per_image", "kept_global", "stage_sizes", "scores")
    selection = dict(zip(names, _selection_fields(sel)))
    return {**report_document(report, cfg, budgets), "selection": selection}


def _float(name: str, value) -> float:
    return _real(name, value, SelectionMismatch)


def _floats(name: str, values) -> list[float]:
    """``values``'s items as floats, else SelectionMismatch naming them."""
    items = _items(name, values, SelectionMismatch)
    return [_float(f"{name}[{i}]", v) for i, v in enumerate(items)]


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
    ``noun``, also for a ``path`` that is not a str, bytes or os.PathLike.
    The text is made before the file is opened, so a ``doc`` that JSON
    cannot encode leaves no file behind."""
    _instance(f"{noun} path", path, _PATH_TYPES, IoFailure)
    text = json.dumps(doc, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in path
        raise IoFailure(f"cannot write {noun} to {path}: {exc}") from exc
