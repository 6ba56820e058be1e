"""End-to-end pruning: signals, budgets, then the two selection stages.

Stage 1 prunes each image independently down to its allocated quota;
stage 2 pools the survivors, filters them globally by dispersion, scores
the candidates on (diversity, alignment) and keeps the budgeted Pareto
selection.  All indices in the result refer to positions in the original
bundle.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

import numpy as np

from . import allocation, metrics, selection
from .errors import BadConfig, SelectionMismatch, ShapeMismatch
from .types import (
    PruneConfig,
    RedundancyReport,
    ResolvedBudgets,
    Selection,
    TokenBundle,
    _instance,
    _integer,
    _items,
    resolve_config,
)


def _openblas_threads():
    """numpy's own OpenBLAS thread-count getter and setter, or None when
    numpy links another BLAS (MKL, Accelerate) or predates numpy 2."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS = _openblas_threads()
# Pooled prunes in progress, and the OpenBLAS thread count the first of
# them found, which the last restores.
_pin_lock = threading.Lock()
_pinned = 0
_saved_threads = 1


@contextlib.contextmanager
def _stage1_workers(images: int):
    """Yield the stage-1 worker count for a bundle of ``images`` images:
    the OpenBLAS thread count w when it is at least 2 and there are at
    least 4 w images, else 1.  Above 1, OpenBLAS runs on one thread until
    the last such block in the process exits, which restores w."""
    global _pinned, _saved_threads
    workers = 1
    if _BLAS is not None:
        get, put = _BLAS
        with _pin_lock:
            w = _saved_threads if _pinned else get()
            if w >= 2 and images >= 4 * w:
                if not _pinned:
                    _saved_threads = w
                    put(1)
                _pinned += 1
                workers = w
    try:
        yield workers
    finally:
        if workers > 1:
            with _pin_lock:
                _pinned -= 1
                if not _pinned:
                    put(_saved_threads)


def _stage1(images, quotas, objective: str, workers: int) -> list[list[int]]:
    """Each image's greedy selection, on ``workers`` threads: the calling
    thread and ``workers - 1`` started here.  Each takes the next image
    index from a shared counter and writes its result at that index; no
    image is taken once one has failed, and the first failure by image
    index is raised after every thread has been joined."""
    results: list = [None] * len(images)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def work():
        nonlocal taken
        while True:
            with lock:
                k = taken
                if k >= len(images) or errors:
                    return
                taken += 1
            try:
                results[k] = selection.greedy_rep_max(images[k], quotas[k], objective)
            except BaseException as exc:
                with lock:
                    errors[k] = exc
                return

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        with lock:
            taken = len(images)  # an interrupt stops the other workers too
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def _signals(
    bundle: TokenBundle, cfg: PruneConfig, budgets: ResolvedBudgets
) -> RedundancyReport:
    per_image, d_mean = metrics.intra_diversity_mean(bundle)
    if bundle.n_images >= 2:
        if cfg.inter_variant == "position_wise":
            steps = metrics.inter_variation_positionwise(bundle)
        else:
            steps = metrics.inter_variation_steps(bundle)
        d_inter = metrics.inter_variation_mean(steps)
    else:
        steps, d_inter = [], None
    s = metrics.s_factor(d_mean, d_inter)

    # The one-token floor makes n the hard minimum for the stage-1 total.
    m1 = max(
        allocation.stage1_budget(s, budgets.m_min, budgets.m_max, cfg.lam),
        bundle.n_images,
    )
    weights = allocation.image_weights(per_image, cfg.last_image_rule)
    quotas = allocation.per_image_budgets(weights, m1, list(bundle.counts))
    return RedundancyReport(
        d_intra_per_image=tuple(per_image),
        d_intra_mean=d_mean,
        d_k_list=tuple(steps),
        d_inter=d_inter,
        s=s,
        m1=m1,
        per_image_budgets=tuple(quotas),
    )


def analyze(bundle: TokenBundle, cfg: PruneConfig) -> RedundancyReport:
    """Compute all redundancy signals and budgets without touching a token.

    A ``cfg`` that is not a PruneConfig raises BadConfig, and a ``bundle``
    that is not a TokenBundle ShapeMismatch (see :func:`resolve_config`).
    """
    budgets = resolve_config(cfg, bundle)
    return _signals(bundle, cfg, budgets)


def prune(
    bundle: TokenBundle, cfg: PruneConfig, threads: int = 1
) -> tuple[RedundancyReport, Selection]:
    """Run the full two-stage pruning pipeline.

    Returns the redundancy report and a Selection whose indices, scores and
    stage sizes all reference the original bundle.

    Stage 1 selects within each image on w threads when numpy's OpenBLAS
    runs with w >= 2 threads and the bundle has at least 4 w images; else
    the per-image selections run one after another in the calling thread
    and BLAS is left as it is.  While the pool runs, OpenBLAS is set to one
    thread for the whole request (signals, both stages, scoring), so that
    no BLAS call is threaded, and w is restored when the last pooled prune
    in the process returns or raises; meanwhile other threads' BLAS calls
    run on one thread too.  Each image's selection depends only on that
    image, so the result does not depend on the worker count.

    ``threads`` must be the integer 1; any other value raises BadConfig
    before any work is done.  Arguments of the wrong type raise as in
    :func:`analyze`.
    """
    if _integer("threads", threads, 1, BadConfig) != 1:
        raise BadConfig(f"threads must be 1, got {threads!r}")
    budgets = resolve_config(cfg, bundle, require_text=True)
    with _stage1_workers(bundle.n_images) as workers:
        return _prune(bundle, cfg, budgets, workers)


def _prune(
    bundle: TokenBundle, cfg: PruneConfig, budgets: ResolvedBudgets, workers: int
) -> tuple[RedundancyReport, Selection]:
    """:func:`prune` after its checks, with stage 1 on ``workers`` threads."""
    report = _signals(bundle, cfg, budgets)
    offsets = bundle.offsets

    stage1_local = _stage1(
        bundle.images, report.per_image_budgets, cfg.greedy_objective, workers
    )
    x1_global = [
        offsets[k] + i for k, local in enumerate(stage1_local) for i in local
    ]

    pooled = bundle.rows.gather(x1_global)
    picked = selection.greedy_rep_max(pooled, budgets.m2, cfg.greedy_objective)
    del pooled  # freed before the candidates are gathered and scored
    cand_global = [x1_global[p] for p in picked]

    cand = bundle.rows.gather(cand_global)
    if cand.rows >= 2:
        v = metrics.token_diversity_fast(cand)
    else:
        v = np.zeros(cand.rows, dtype=np.float64)  # lone candidate: no pairs
    ctx = metrics.build_alignment_context(bundle.text, cfg.align_on_normalized)
    a = metrics.alignment_fast(cand, ctx, cfg.align_on_normalized)

    points = [
        selection.ParetoPoint(index=p, v=float(v[p]), a=float(a[p]))
        for p in range(cand.rows)
    ]
    kept_pos = selection.pareto_budgeted(points, budgets.m_final)
    kept_global = sorted(cand_global[p] for p in kept_pos)

    kept_per_image: list[tuple[int, ...]] = []
    for lo, count in zip(offsets, bundle.counts):
        hi = lo + count
        kept_per_image.append(tuple(g - lo for g in kept_global if lo <= g < hi))

    sel = Selection(
        kept_per_image=tuple(kept_per_image),
        kept_global=tuple(kept_global),
        scores=tuple(
            (g, float(v[p]), float(a[p])) for p, g in enumerate(cand_global)
        ),
        stage_sizes=(
            budgets.m0,
            len(x1_global),
            len(cand_global),
            len(kept_global),
        ),
    )
    return report, sel


def apply_selection(bundle: TokenBundle, sel: Selection) -> TokenBundle:
    """Materialize a pruned bundle containing only the kept rows.

    Row values are copied bit-exactly in their original relative order;
    images left with zero kept tokens are dropped from the output (the
    report still records them).  Raises SelectionMismatch when the
    selection does not fit this bundle, is not a Selection or holds
    something else than its fields' counts and indices, and
    ShapeMismatch when ``bundle`` is not a TokenBundle.
    """
    _instance("bundle", bundle, TokenBundle, ShapeMismatch)
    _instance("selection", sel, Selection, SelectionMismatch)
    sizes = _items("selection stage_sizes", sel.stage_sizes, SelectionMismatch)
    if len(sizes) != 4:
        raise SelectionMismatch(
            f"selection stage_sizes must hold 4 counts, got {len(sizes)}"
        )
    for i, m in enumerate(sizes):
        _integer(f"selection stage_sizes[{i}]", m, 0, SelectionMismatch)
    if sizes[0] != bundle.total_tokens:
        raise SelectionMismatch(
            f"selection was made for {sizes[0]} tokens, "
            f"bundle has {bundle.total_tokens}"
        )
    per_image = _items(
        "selection kept_per_image", sel.kept_per_image, SelectionMismatch
    )
    if len(per_image) != bundle.n_images:
        raise SelectionMismatch(
            f"selection covers {len(per_image)} images, "
            f"bundle has {bundle.n_images}"
        )
    offsets = bundle.offsets
    merged: list[int] = []
    for k, locals_k in enumerate(per_image):
        rows_k = bundle.counts[k]
        for i in _items(f"image {k} kept indices", locals_k, SelectionMismatch):
            i = _integer(f"image {k}: local index", i, 0, SelectionMismatch)
            if i >= rows_k:
                raise SelectionMismatch(
                    f"image {k}: local index {i} out of range ({rows_k} rows)"
                )
            merged.append(offsets[k] + i)
    merged.sort()
    kept_global = _items("selection kept_global", sel.kept_global, SelectionMismatch)
    if merged != list(kept_global):
        raise SelectionMismatch("per-image and global kept indices disagree")

    text_rows = range(bundle.total_tokens, bundle.rows.rows)
    return TokenBundle(
        bundle.rows.gather([*merged, *text_rows]),
        tuple(len(locals_k) for locals_k in per_image if locals_k),
    )
