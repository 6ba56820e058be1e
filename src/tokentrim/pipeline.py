"""End-to-end pruning: signals, budgets, then the two selection stages.

Stage 1 prunes each image independently down to its allocated quota;
stage 2 pools the survivors, filters them globally by dispersion, scores
the candidates on (diversity, alignment) and keeps the budgeted Pareto
selection.  All indices in the result refer to positions in the original
bundle.

The signals and budgets read only each image's norms and sums.  Rows are
read through one accessor, ``gather``: a view of an in-memory bundle's, a
read of a bundle whose rows stay in their file (``types._FileBundle``,
the command line's).  Each stage-1 job takes its image's rows at its
first work item and keeps only the rows it picks; stage 2, scoring and
Pareto run on those survivors, and ``apply_selection`` gathers the kept
rows by their global index.  The same body runs on both kinds of bundle.
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
    _selection_fields,
    _stacked,
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
def _stage1_workers(images: int, items: int):
    """Yield the stage-1 worker count for ``images`` stage-1 jobs that
    give ``items`` work items (:class:`selection._Greedy`): the OpenBLAS
    thread count w when it is at least 2 and each worker gets at least
    one image and four items, else 1.  Above 1, OpenBLAS runs on one
    thread until the last such block in the process exits, which restores
    w."""
    global _pinned, _saved_threads
    workers = 1
    if _BLAS is not None:
        get, put = _BLAS
        with _pin_lock:
            w = _saved_threads if _pinned else get()
            if w >= 2 and images >= w and items >= 4 * w:
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


def _stage1(jobs: list[selection._Greedy], workers: int) -> list[list[int]]:
    """Each job's selection, on ``workers`` threads: the calling thread and
    ``workers - 1`` started here.  Each thread takes the first work item
    (i, t) it may from one shared queue and reduces item t of job i, and
    the thread that reduces a job's last item finishes that job (its seed
    check and steps).  An image is open from its first taken item until
    its finish returns, and an item of an image not yet open may be taken
    only while fewer than ``workers`` images are open, so stage 1 holds at
    most one image per worker.  A thread always finds an item while any
    is queued: each open image with none queued is being reduced or
    finished by one of the other ``workers - 1`` threads.

    The last ``workers`` jobs of several items have theirs dealt in turn,
    and when one of them has its last item reduced while another's are
    still queued, its finish is queued behind them as item (i, None), so
    that their finishes start together.  No item is taken once one has
    failed, and the first failure by image index is raised after every
    thread has been joined."""
    tail = [i for i, job in enumerate(jobs) if job.items > 1][-workers:]
    order = [(i, t) for i, job in enumerate(jobs) for t in range(job.items)]
    dealt = sorted((item for item in order if item[0] in tail), key=lambda it: it[1])
    queue = [item for item in order if item[0] not in tail] + dealt
    left = [job.items for job in jobs]
    opened: set[int] = set()
    results: list = [None] * len(jobs)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()

    def take():
        with lock:
            if not errors:
                room = len(opened) < workers
                for n, (i, _) in enumerate(queue):
                    if room or i in opened:
                        opened.add(i)
                        return queue.pop(n)
        return None

    def work():
        while (item := take()) is not None:
            i, t = item
            try:
                if t is not None:
                    jobs[i].reduce(t)
                    with lock:
                        left[i] -= 1
                        last = not left[i]
                        if last and i in tail and any(u is not None for _, u in queue):
                            queue.append((i, None))  # behind the other tail tiles
                            last = False
                    if not last:
                        continue
                results[i] = jobs[i].finish()
                with lock:
                    opened.discard(i)
            except BaseException as exc:
                with lock:
                    errors.setdefault(i, exc)
                return

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        with lock:
            queue.clear()  # an interrupt stops the other workers too
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

    ``bundle`` may also be ``types._FileBundle``, whose rows stay in their
    file: each job then reads its image at its first item and drops it
    when it finishes, so the rows in memory at once are at most one image
    per stage-1 worker (:func:`_stage1` opens no more) and the survivors.

    Stage 1 runs one :class:`selection._Greedy` job per image, made once
    the quotas are known, as work items: one per seed-filter tile for an
    image with more rows than dims and than one tile holds (a 2880 × 1024
    image has 18), else one.  They run on w threads when numpy's OpenBLAS
    runs with w >= 2 threads and each thread gets at least one image and
    four items (32 video frames, or two or more 2880 × 1024 images at
    w = 2); else one after another in the calling thread, with BLAS left
    as it is.  While the pool runs, OpenBLAS is set to one thread from
    stage 1 through scoring (the signals make no threaded BLAS call), and
    w is restored when the last pooled prune in the process returns or
    raises; meanwhile other threads' BLAS calls run on one thread too.
    Each image's selection depends only on that image, and its tiles'
    reductions merge the same in any order, so the result does not
    depend on the worker count.

    ``threads`` must be the integer 1; any other value raises BadConfig
    before any work is done.  Arguments of the wrong type raise as in
    :func:`analyze`.
    """
    if _integer("threads", threads, 1, BadConfig) != 1:
        raise BadConfig(f"threads must be 1, got {threads!r}")
    budgets = resolve_config(cfg, bundle, require_text=True)
    report = _signals(bundle, cfg, budgets)
    offsets = bundle.offsets
    jobs = [
        selection._Greedy(img, k, cfg.greedy_objective)
        for img, k in zip(bundle.images, report.per_image_budgets)
    ]
    with _stage1_workers(len(jobs), sum(job.items for job in jobs)) as workers:
        stage1_local = _stage1(jobs, workers)
        x1_global = [
            offsets[k] + i for k, local in enumerate(stage1_local) for i in local
        ]

        stage2 = selection._Greedy(
            _stacked([job.kept for job in jobs]), budgets.m2, cfg.greedy_objective
        )
        del jobs
        picked = stage2.run()
        cand = stage2.kept
        del stage2  # the pooled rows are freed before the scores are taken
        cand_global = [x1_global[p] for p in picked]

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
        stage_sizes=(budgets.m0, len(x1_global), len(cand_global), len(kept_global)),
    )
    return report, sel


def apply_selection(bundle: TokenBundle, sel: Selection) -> TokenBundle:
    """Materialize a pruned bundle containing only the kept rows.

    Row values are copied bit-exactly in their original relative order;
    images left with zero kept tokens are dropped from the output (the
    report still records them).  Raises SelectionMismatch when the
    selection is not well-formed (``types._selection_fields``, the check
    that ``result_document`` makes too) or does not fit this bundle
    (:func:`_applied`).  Raises ShapeMismatch when ``bundle`` is not a
    TokenBundle.
    """
    _instance("bundle", bundle, TokenBundle, ShapeMismatch)
    per_image, kept_global, sizes, _ = _selection_fields(sel)
    return _applied(bundle, per_image, kept_global, sizes)


def _applied(
    bundle: TokenBundle, per_image: list, kept_global: list[int], sizes: list[int]
) -> TokenBundle:
    """:func:`apply_selection` of a Selection whose fields
    ``_selection_fields`` has checked, given as it returns them.  Raises
    SelectionMismatch when they do not fit the bundle: the first stage
    size is not its token count, they list indices for another number of
    images, a local index is out of its image's range, or the per-image
    indices are not ``kept_global``.  The kept rows and the text are taken
    by one ``gather`` of their global indices."""
    if sizes[0] != bundle.total_tokens:
        raise SelectionMismatch(
            f"selection was made for {sizes[0]} tokens, "
            f"bundle has {bundle.total_tokens}"
        )
    if len(per_image) != bundle.n_images:
        raise SelectionMismatch(
            f"selection covers {len(per_image)} images, "
            f"bundle has {bundle.n_images}"
        )
    merged: list[int] = []
    images = zip(bundle.offsets, bundle.counts, per_image)
    for k, (lo, rows_k, local) in enumerate(images):
        if local and max(local) >= rows_k:
            raise SelectionMismatch(
                f"image {k}: local index {max(local)} out of range ({rows_k} rows)"
            )
        merged += (lo + i for i in local)
    if sorted(merged) != kept_global:
        raise SelectionMismatch("per-image and global kept indices disagree")

    text_rows = range(bundle.total_tokens, bundle.rows.rows)
    return TokenBundle(
        bundle.rows.gather([*kept_global, *text_rows]),
        tuple(len(local) for local in per_image if local),
    )
