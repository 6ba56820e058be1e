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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BadMagic,
    BadSpec,
    BadVersion,
    IoFailure,
    ShapeMismatch,
    TruncatedFile,
)
from .types import (
    CONFIG_FIELDS,
    PruneConfig,
    RedundancyReport,
    ResolvedBudgets,
    Selection,
    TokenBundle,
    _instance,
    _integer,
    _token_matrix,
)

MAGIC = b"TTB1"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")
_PATH_TYPES = (str, bytes, os.PathLike)


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
    except OSError as exc:
        raise IoFailure(f"cannot write bundle to {path}: {exc}") from exc


def _fill(fh, buf) -> int:
    """Read from ``fh`` into ``buf`` until it is full or the file ends;
    returns the number of bytes read."""
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
    before the payload is allocated, so a hostile header costs no memory.
    The payload is then read once, into a buffer that only the returned
    bundle's rows hold.  A ``path`` that is not a str, bytes or
    os.PathLike, or that names no regular file (a FIFO or a directory,
    say), raises IoFailure, as does any OS error; a
    file that ends early, or runs past the declared payload, raises
    TruncatedFile, also when it changes size while being read.
    """
    _instance("path", path, _PATH_TYPES, IoFailure)
    try:
        # O_NONBLOCK: opening a FIFO must not wait for a writer.
        flags = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)
        fd = os.open(path, flags | getattr(os, "O_BINARY", 0))
        with open(fd, "rb", buffering=0) as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise IoFailure(f"cannot read bundle from {path}: not a regular file")
            counts, n_rows, dim, values = _read_ttb1(fh, info.st_size)
    except OSError as exc:
        raise IoFailure(f"cannot read bundle from {path}: {exc}") from exc
    return TokenBundle(_token_matrix(n_rows, dim, values, private=True), counts)


def _read_ttb1(fh, size: int) -> tuple[tuple[int, ...], int, int, np.ndarray]:
    """The image counts, row count, dim and read-only ``<f4`` payload of
    a TTB1 file of ``size`` bytes, open unbuffered at its start."""
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
    raw = bytearray(start - _HEADER.size)
    if _fill(fh, raw) < len(raw):
        raise TruncatedFile("file shrank while its image counts were read")
    counts = struct.unpack(f"<{n_images}I", raw)
    n_rows = sum(counts) + n_text
    end = start + 4 * n_rows * dim
    if size != end:
        raise TruncatedFile(f"header declares {end} bytes, file has {size}")
    payload = np.empty(end - start, dtype=np.uint8)
    got = _fill(fh, payload)
    if got < len(payload) or fh.read(1):
        raise TruncatedFile(
            f"file changed size while read: header declares {end} bytes"
        )
    payload.setflags(write=False)
    return counts, n_rows, dim, payload.view("<f4")


# SyntheticSpec's integer fields and their smallest legal values.
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
    and text_tokens >= 0, the other counts >= 1 and clusters <=
    tokens_per_image, and noise and drift are real numbers in [0, 1e8].
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
            value = _integer(name, getattr(self, name), low, BadSpec)
            object.__setattr__(self, name, value)
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


def generate_synthetic(spec: SyntheticSpec) -> TokenBundle:
    """Deterministic bundle with controllable redundancy structure.

    Token i of every image belongs to prototype i mod clusters; each token
    is the unit-normalized prototype plus noise.  After each image the
    prototypes move by a drift-scaled Gaussian step and are re-normalized.
    The same spec always produces byte-identical bundles.
    """
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

    n_rows = spec.n_images * spec.tokens_per_image + spec.text_tokens
    return TokenBundle(
        _token_matrix(n_rows, spec.dim, np.concatenate(rows), private=True),
        (spec.tokens_per_image,) * spec.n_images,
    )


def _config_block(
    cfg: PruneConfig | None, budgets: ResolvedBudgets | None
) -> dict | None:
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
    """JSON-ready document for a redundancy report (no selection)."""
    return {
        "config": _config_block(cfg, budgets),
        "report": {
            "d_intra_per_image": list(report.d_intra_per_image),
            "d_intra_mean": report.d_intra_mean,
            "d_k": list(report.d_k_list),
            "d_inter": report.d_inter,
            "s": report.s,
            "m1": report.m1,
            "per_image_budgets": list(report.per_image_budgets),
        },
    }


def result_document(
    report: RedundancyReport,
    sel: Selection,
    cfg: PruneConfig | None = None,
    budgets: ResolvedBudgets | None = None,
) -> dict:
    """JSON-ready document for a full pruning result."""
    doc = report_document(report, cfg, budgets)
    doc["selection"] = {
        "kept_per_image": [list(loc) for loc in sel.kept_per_image],
        "kept_global": list(sel.kept_global),
        "stage_sizes": list(sel.stage_sizes),
        "scores": [[g, v, a] for g, v, a in sel.scores],
    }
    return doc


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
    except OSError as exc:
        raise IoFailure(f"cannot write {noun} to {path}: {exc}") from exc
