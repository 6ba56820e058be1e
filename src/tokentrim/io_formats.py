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
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadMagic, BadSpec, BadVersion, IoFailure, TruncatedFile
from .types import (
    CONFIG_FIELDS,
    PruneConfig,
    RedundancyReport,
    ResolvedBudgets,
    Selection,
    TokenBundle,
    _integer,
    build_token_matrix,
)

MAGIC = b"TTB1"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")


def write_bundle(bundle: TokenBundle, path) -> None:
    """Serialize a bundle to TTB1; read_bundle(write_bundle(b)) is bit-exact."""
    header = _HEADER.pack(
        MAGIC, VERSION, bundle.n_images, bundle.text.rows, bundle.dim
    ) + struct.pack(f"<{bundle.n_images}I", *bundle.counts)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(bundle.rows.data, dtype="<f4"))
    except OSError as exc:
        raise IoFailure(f"cannot write bundle to {path}: {exc}") from exc


def read_bundle(path) -> TokenBundle:
    """Load a TTB1 bundle, validating magic, version and exact payload size.

    The returned bundle's rows share the bytes read from the file.
    """
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read bundle from {path}: {exc}") from exc

    if len(buf) < _HEADER.size:
        raise TruncatedFile(f"file ends inside the header at byte {len(buf)}")
    magic, version, n_images, n_text, dim = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, found {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported format version {version}")
    start = _HEADER.size + 4 * n_images
    if len(buf) < start:
        raise TruncatedFile(f"file ends inside the image counts at byte {len(buf)}")
    counts = struct.unpack_from(f"<{n_images}I", buf, _HEADER.size)
    n_rows = sum(counts) + n_text
    end = start + 4 * n_rows * dim
    if len(buf) != end:
        raise TruncatedFile(f"header declares {end} bytes, file has {len(buf)}")
    values = np.frombuffer(buf, dtype="<f4", count=n_rows * dim, offset=start)
    return TokenBundle(build_token_matrix(n_rows, dim, values), counts)


# SyntheticSpec's integer fields and their smallest legal values.
_SPEC_FLOORS = dict(
    n_images=1, tokens_per_image=1, dim=1, seed=0, clusters=1, text_tokens=0
)


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
    tokens_per_image, and noise and drift are finite real numbers >= 0.
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
            if not (isinstance(value, numbers.Real) and 0 <= value < np.inf):
                raise BadSpec(f"{name} must be finite and >= 0, got {value!r}")


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
        build_token_matrix(n_rows, spec.dim, np.concatenate(rows)),
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
    """Write ``doc`` as indented JSON plus a newline; IoFailure names ``noun``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {noun} to {path}: {exc}") from exc
