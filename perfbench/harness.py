"""Closed-loop, golden-checked benchmark of the tokentrim pipeline.

One client in one process sends one request at a time; the next request
starts only after the previous one has returned.  A request is one TTB1
bundle through the in-process CLI path (``tokentrim.cli.main``).  The
inputs are a pool of synthetic bundles made from ``--seed``, written just
before timing so that reads hit the page cache: read time measures parsing
and validation, not the disk.

Every request's output is checked after the timed phase: the invariants
of ``check_output``, plus either the committed golden fixture (default
seed) or the first result of the same bundle in this run (any other seed).
A request that raises, exits nonzero or fails a check counts as failed.

``--trace 1`` runs a separate loop that alternates untraced requests with
traced ones.  A traced request rebuilds ``prune`` (or ``analyze``) from the
layers' public calls, in the order ``pipeline`` makes them, times each
call, and must select exactly what ``pipeline.prune`` selects.  Every span
is opened on every traced request; a layer the workload does not run is an
empty span, so its reading is the cost of the timer alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import tokentrim
from tokentrim import (
    PruneConfig,
    RedundancyReport,
    Selection,
    allocation,
    cli,
    io_formats,
    metrics,
    pipeline,
    selection,
)
from tokentrim.types import build_token_matrix, resolve_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
WORK_ROOT = HERE / "_work"

DEFAULT_SEED = 0
TEXT_TOKENS = 32
CLUSTERS = 16
# (noise, drift) of each pool bundle.  Low noise with low drift makes s
# large and pushes m1 towards m_max = 454; high noise and drift give s ~ 1
# and m1 ~ 374, so the pool spans the budgets stage 1 sees.
POOL_GRID = ((0.1, 0.05), (0.3, 0.05), (0.1, 0.2), (1.0, 1.0))
SETUP_BATCH = 3
# The tail is the 11th-slowest request: the highest order statistic with
# at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_REQUESTS = TAIL_BEYOND + 1


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a bundle shape and the CLI call made on it."""

    name: str
    images: int
    tokens: int
    dim: int
    command: str
    final: int | None = None
    emit: bool = False

    def argv(self, src: Path, out: Path, emit: Path | None) -> list[str]:
        argv = [self.command, "--input", str(src), "--output", str(out)]
        if self.final is not None:
            argv += ["--final", str(self.final)]
        if emit is not None:
            argv += ["--emit-pruned", str(emit)]
        return argv

    def config(self) -> PruneConfig:
        """The PruneConfig the CLI builds from ``argv``."""
        if self.final is not None:
            return PruneConfig(final_tokens=self.final, retention_ratio=None)
        return PruneConfig()


WORKLOADS = {
    w.name: w
    for w in (
        # Many small images: load/validate and per-image signals are about
        # 30% of a request, and --final 64 makes Pareto peeling and the
        # emitted bundle do real work.
        Workload("video_32x576", 32, 576, 1024, "prune", final=64, emit=True),
        # Few large images: the stage-1 seed-pair scan and greedy loop are
        # most of a request; Pareto is bypassed (m_final == m2).
        Workload("hires_4x2880", 4, 2880, 1024, "prune"),
        # Signals and budgets only: selection never runs, so a selection
        # change predicts no change here, and work moved into load shows.
        Workload("analyze_8x576", 8, 576, 1024, "analyze"),
    )
}


@dataclasses.dataclass(frozen=True)
class PoolEntry:
    path: Path
    noise: float
    drift: float
    counts: tuple[int, ...]
    sha256: str

    @property
    def m0(self) -> int:
        return sum(self.counts)

    @property
    def offsets(self) -> list[int]:
        return [sum(self.counts[:k]) for k in range(len(self.counts))]


def make_pool(wl: Workload, seed: int, workdir: Path) -> list[PoolEntry]:
    """Write one TTB1 bundle per POOL_GRID slot; the same seed, the same bytes."""
    pool = []
    for j, (noise, drift) in enumerate(POOL_GRID):
        spec = io_formats.SyntheticSpec(
            n_images=wl.images,
            tokens_per_image=wl.tokens,
            dim=wl.dim,
            seed=seed * len(POOL_GRID) + j,
            clusters=min(CLUSTERS, wl.tokens),
            noise=noise,
            drift=drift,
            text_tokens=TEXT_TOKENS,
        )
        path = workdir / f"in{j}.ttb"
        io_formats.write_bundle(io_formats.generate_synthetic(spec), path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
            os.fsync(fh.fileno())  # write back now, not during the timed phase
        pool.append(
            PoolEntry(path, noise, drift, (wl.tokens,) * wl.images, digest)
        )
    return pool


# ---------------------------------------------------------------- checks


def _ttb1_rows(path: Path):
    """(counts, rows as raw bits) of a TTB1 file, parsed here, not by the program."""
    with open(path, "rb") as fh:
        _, _, n_images, n_text, dim = struct.unpack("<4sIIII", fh.read(20))
        counts = struct.unpack(f"<{n_images}I", fh.read(4 * n_images))
    shape = (sum(counts) + n_text, dim)
    return counts, np.memmap(path, dtype="<u4", mode="r", offset=20 + 4 * n_images, shape=shape)


def record_of(doc: dict, command: str) -> dict:
    """The fields the golden fixture pins, taken from a result document."""
    rec = {
        "m1": doc["report"]["m1"],
        "per_image_budgets": doc["report"]["per_image_budgets"],
    }
    if command == "prune":
        rec["stage_sizes"] = doc["selection"]["stage_sizes"]
        rec["kept_global"] = doc["selection"]["kept_global"]
    return rec


def check_output(
    wl: Workload, entry: PoolEntry, out: Path, emit: Path | None
) -> tuple[list[str], dict | None]:
    """Invariant violations of one request's output, and its record."""
    try:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        rec = record_of(doc, wl.command)
        return _violations(wl, entry, doc, rec, emit), rec
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed result: {exc!r}"], None


def _violations(wl: Workload, entry: PoolEntry, doc: dict, rec: dict, emit: Path | None) -> list[str]:
    problems = []
    quotas = rec["per_image_budgets"]
    if len(quotas) != len(entry.counts):
        problems.append(f"{len(quotas)} quotas for {len(entry.counts)} images")
    if sum(quotas) != rec["m1"]:
        problems.append(f"quotas sum to {sum(quotas)}, not m1={rec['m1']}")
    if any(not 1 <= q <= c for q, c in zip(quotas, entry.counts)):
        problems.append("a quota lies outside [1, image tokens]")
    if wl.command != "prune":
        return problems

    sel = doc["selection"]
    stages, kept = rec["stage_sizes"], rec["kept_global"]
    if len(stages) != 4 or stages[0] != entry.m0 or stages[1] != rec["m1"]:
        problems.append(f"stage sizes {stages} do not start at (M0, m1)")
    if any(a < b for a, b in zip(stages, stages[1:])):
        problems.append(f"stage sizes {stages} increase")
    if kept != sorted(set(kept)) or len(kept) != stages[-1]:
        problems.append("kept_global is not a sorted set of the final size")
    offsets = entry.offsets
    merged = [offsets[k] + i for k, loc in enumerate(sel["kept_per_image"]) for i in loc]
    if merged != kept:
        problems.append("kept_per_image does not parse back to kept_global")
    cand = [s[0] for s in sel["scores"]]
    if len(cand) != stages[2] or not set(kept) <= set(cand):
        problems.append("kept tokens are not among the scored candidates")
    if emit is not None and not problems:
        problems += _check_emitted(entry, kept, emit)
    return problems


def _check_emitted(entry: PoolEntry, kept: list[int], emit: Path) -> list[str]:
    """The emitted TTB1 rows must be the source rows at kept_global, bit for bit."""
    try:
        counts, rows = _ttb1_rows(emit)
    except (OSError, ValueError, struct.error) as exc:
        return [f"unreadable emitted bundle: {exc!r}"]
    _, src = _ttb1_rows(entry.path)
    want = np.concatenate([src[kept], src[entry.m0 :]])
    if sum(counts) != len(kept) or rows.shape != want.shape:
        return [f"emitted bundle has shape {rows.shape}, expected {want.shape}"]
    if not np.array_equal(rows, want):
        return ["emitted rows differ from the source rows at kept_global"]
    return []


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Expectations:
    """What each pool bundle must produce: golden entries or first results."""

    def __init__(self, wl: Workload, pool: list[PoolEntry], golden: dict | None):
        self.first: dict[int, dict] = {}
        self.golden = None
        if golden is not None:
            entries = golden.get("workloads", {}).get(wl.name)
            if entries is None or len(entries) != len(pool):
                raise SystemExit(f"golden fixture has no entries for {wl.name}")
            self.golden = entries

    def compare(self, j: int, entry: PoolEntry, rec: dict) -> list[str]:
        if self.golden is not None:
            want = dict(self.golden[j])
            if want.pop("input_sha256") != entry.sha256:
                return [f"pool bundle {j} differs from the golden fixture's input"]
        else:
            want = self.first.setdefault(j, rec)
        return [] if rec == want else [f"pool bundle {j}: result differs from {self._what()}"]

    def _what(self) -> str:
        return "the golden fixture" if self.golden is not None else "its first run"


# ---------------------------------------------------------------- requests


@dataclasses.dataclass
class Request:
    j: int
    out: Path
    emit: Path | None
    seconds: float
    error: str | None
    ok: bool = False


class Runner:
    """Sends requests through cli.main and checks them after timing."""

    def __init__(self, wl: Workload, pool: list[PoolEntry], expect: Expectations, outdir: Path):
        self.wl, self.pool, self.expect, self.outdir = wl, pool, expect, outdir
        self.pending: list[Request] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.n = 0

    def send(self, j: int) -> Request:
        self.n += 1
        out = self.outdir / f"r{self.n}.json"
        emit = self.outdir / f"e{self.n}.ttb" if self.wl.emit else None
        argv = self.wl.argv(self.pool[j].path, out, emit)
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a raising request is a failed request
            rc, error = None, repr(exc)
        dt = time.perf_counter() - t0
        if rc != 0 and error is None:
            error = f"exit code {rc}"
        req = Request(j, out, emit, dt, error)
        self.pending.append(req)
        return req

    def verify(self) -> list[Request]:
        """Check every pending request; returns them, each marked ok or not."""
        for req in self.pending:
            entry = self.pool[req.j]
            problems = [req.error] if req.error else []
            if not problems:
                problems, rec = check_output(self.wl, entry, req.out, req.emit)
                if rec is not None:
                    problems += self.expect.compare(req.j, entry, rec)
            for p in (req.out, req.emit):
                if p is not None and p.exists():
                    p.unlink()
            req.ok = not problems
            if problems:
                self.failures.append(f"request {req.out.stem}: {'; '.join(problems)}")
        checked, self.pending = self.pending, []
        self.attempted += len(checked)
        return checked


def closed_loop(runner: Runner, seconds: float, min_requests: int, step=None) -> list[float]:
    """Cycle through the pool for ``seconds`` and ``min_requests``; returns latencies."""
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < min_requests:
        j = len(latencies) % len(runner.pool)
        latencies.append(runner.send(j).seconds)
        if step is not None:
            step(j)
    return latencies


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class SetupProbe:
    """Wall time of fresh processes that import tokentrim and write one result.

    The input is a small bundle of the workload's dim, so the figure is the
    fixed cost every CLI invocation pays, not the request itself.  The
    machine's speed drifts over seconds, so a run samples in several
    batches spread over its length and reports the median.
    """

    CODE = "import sys; from tokentrim.cli import main; sys.exit(main(sys.argv[1:]))"

    def __init__(self, wl: Workload, workdir: Path):
        self.wl = dataclasses.replace(wl, images=2, tokens=64)
        self.workdir = workdir / "setup"
        self.workdir.mkdir()
        self.entry = make_pool(self.wl, 0, self.workdir)[0]
        self.out = self.workdir / "setup.json"
        self.emit = self.workdir / "setup.ttb" if wl.emit else None
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def sample(self, repeats: int) -> None:
        argv = self.wl.argv(self.entry.path, self.out, self.emit)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for _ in range(repeats):
            self.out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", self.CODE, *argv],
                env=env, cwd=self.workdir, timeout=120,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            self.times.append(time.perf_counter() - t0)
            self.attempted += 1
            if proc.returncode != 0:
                self.failures.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
            elif problems := check_output(self.wl, self.entry, self.out, self.emit)[0]:
                self.failures.append(f"set-up probe: {'; '.join(problems)}")


def first_pass(runner: Runner, measure_memory: bool) -> int:
    """One request per pool bundle; the largest tracemalloc peak in bytes."""
    peak = 0
    for j in range(len(runner.pool)):
        if measure_memory:
            tracemalloc.start()
        runner.send(j)
        if measure_memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    return peak


# ---------------------------------------------------------------- tracing


class Spans:
    """Per-request span durations in milliseconds, keyed by layer name."""

    def __init__(self):
        self.ms: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] = self.ms.get(name, 0.0) + (time.perf_counter() - t0) * 1e3


PIPELINE_CHILDREN = (
    "metrics.signals",
    "allocation.budget",
    "selection.stage1",
    "selection.stage2",
    "metrics.scoring",
    "selection.pareto",
)
CLI_CHILDREN = (
    "io_formats.read",
    "pipeline.prune",
    "io_formats.write_result",
    "pipeline.apply_selection",
    "io_formats.write_bundle",
)


def _gather(bundle, offsets: list[int], global_rows: list[int]):
    """A TokenMatrix of the given global rows, in order (pipeline's gather)."""
    rows = np.empty((len(global_rows), bundle.dim), dtype=np.float32)
    for pos, g in enumerate(global_rows):
        k = int(np.searchsorted(offsets, g, side="right")) - 1
        rows[pos] = bundle.images[k].data[g - offsets[k]]
    return build_token_matrix(len(global_rows), bundle.dim, rows)


def traced_request(wl: Workload, src: Path, out: Path, emit: Path | None):
    """One request rebuilt from the layers' public calls, each one timed.

    Returns (span ms, counts, report, selection or None).
    """
    sp = Spans()
    argv = wl.argv(src, out, emit)
    sel = None
    with sp.span("cli"):
        cli.build_parser().parse_args(argv)
        cfg = wl.config()
        with sp.span("io_formats.read"):
            bundle = io_formats.read_bundle(src)
        budgets = resolve_config(cfg, bundle, require_text=wl.command == "prune")
        with sp.span("pipeline.prune"):
            with sp.span("metrics.signals"):
                per_image, d_mean = metrics.intra_diversity_mean(bundle)
                if bundle.n_images >= 2:
                    steps = metrics.inter_variation_steps(bundle)
                    d_inter = metrics.inter_variation_mean(steps)
                else:
                    steps, d_inter = [], None
                s = metrics.s_factor(d_mean, d_inter)
            with sp.span("allocation.budget"):
                m1 = max(
                    allocation.stage1_budget(s, budgets.m_min, budgets.m_max, cfg.lam),
                    bundle.n_images,
                )
                weights = allocation.image_weights(per_image, cfg.last_image_rule)
                quotas = allocation.per_image_budgets(
                    weights, m1, [img.rows for img in bundle.images]
                )
            report = RedundancyReport(
                tuple(per_image), d_mean, tuple(steps), d_inter, s, m1, tuple(quotas)
            )
            if wl.command == "prune":
                sel = _rebuilt_selection(sp, bundle, cfg, budgets, quotas)
            else:
                for name in PIPELINE_CHILDREN[2:]:
                    with sp.span(name):
                        pass
        with sp.span("io_formats.write_result"):
            if sel is not None:
                io_formats.write_result(report, sel, out, cfg, budgets)
            else:
                doc = io_formats.report_document(report, cfg, budgets)
                out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        pruned = None
        with sp.span("pipeline.apply_selection"):
            if emit is not None:
                pruned = pipeline.apply_selection(bundle, sel)
        with sp.span("io_formats.write_bundle"):
            if pruned is not None:
                io_formats.write_bundle(pruned, emit)

    # Extra calls outside the request, estimating shares of layers above.
    with sp.span("types.build"):
        for mat in (*bundle.images, bundle.text):
            build_token_matrix(mat.rows, mat.dim, mat.data)
    with sp.span("selection.seed_pair"):
        if wl.command == "prune":
            for img in bundle.images:
                selection.greedy_rep_max(img, 2, cfg.greedy_objective)

    counts = {
        "io_formats.bytes_read": src.stat().st_size,
        "io_formats.bytes_written": out.stat().st_size + (emit.stat().st_size if emit else 0),
        "selection.stage1_rows_out": sel.stage_sizes[1] if sel else 0,
        "selection.stage2_rows_out": sel.stage_sizes[2] if sel else 0,
        "selection.kept_rows": sel.stage_sizes[3] if sel else 0,
    }
    return sp.ms, counts, report, sel


def _rebuilt_selection(sp: Spans, bundle, cfg, budgets, quotas) -> Selection:
    """pipeline.prune after the budgets, call for call."""
    offsets = list(bundle.offsets)
    with sp.span("selection.stage1"):
        local = [
            selection.greedy_rep_max(img, q, cfg.greedy_objective)
            for img, q in zip(bundle.images, quotas)
        ]
    x1 = [offsets[k] + i for k, loc in enumerate(local) for i in loc]
    if budgets.m2 >= len(x1):
        cand_global = list(x1)
        with sp.span("selection.stage2"):
            pass
    else:
        pooled = _gather(bundle, offsets, x1)
        with sp.span("selection.stage2"):
            picked = selection.greedy_rep_max(pooled, budgets.m2, cfg.greedy_objective)
        cand_global = [x1[p] for p in picked]
    cand = _gather(bundle, offsets, cand_global)
    with sp.span("metrics.scoring"):
        if cand.rows >= 2:
            v = metrics.token_diversity_fast(cand)
        else:
            v = np.zeros(cand.rows, dtype=np.float64)
        ctx = metrics.build_alignment_context(bundle.text, cfg.align_on_normalized)
        a = metrics.alignment_fast(cand, ctx, cfg.align_on_normalized)
    points = [
        selection.ParetoPoint(index=p, v=float(v[p]), a=float(a[p]))
        for p in range(cand.rows)
    ]
    with sp.span("selection.pareto"):
        kept_pos = selection.pareto_budgeted(points, budgets.m_final)
    kept = sorted(cand_global[p] for p in kept_pos)
    ends = offsets[1:] + [budgets.m0]
    return Selection(
        kept_per_image=tuple(
            tuple(g - lo for g in kept if lo <= g < hi) for lo, hi in zip(offsets, ends)
        ),
        kept_global=tuple(kept),
        scores=tuple((g, float(v[p]), float(a[p])) for p, g in enumerate(cand_global)),
        stage_sizes=(budgets.m0, len(x1), len(cand_global), len(kept)),
    )


def _same_selection(doc: dict, report: RedundancyReport, sel: Selection | None) -> bool:
    """The written result parses back to the in-memory report and selection."""
    rep = doc["report"]
    if rep["m1"] != report.m1 or tuple(rep["per_image_budgets"]) != report.per_image_budgets:
        return False
    if sel is None:
        return True
    got = doc["selection"]
    return (
        tuple(tuple(loc) for loc in got["kept_per_image"]) == sel.kept_per_image
        and tuple(got["kept_global"]) == sel.kept_global
        and tuple(got["stage_sizes"]) == sel.stage_sizes
        and tuple(tuple(s) for s in got["scores"]) == sel.scores
    )


def traced_loop(runner: Runner, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced requests; per-layer medians by name."""
    wl, pool = runner.wl, runner.pool
    reference: dict[int, tuple] = {}
    spans: list[dict[str, float]] = []
    counts: list[dict[str, int]] = []

    def traced_step(j: int) -> None:
        out = runner.outdir / "traced.json"
        emit = runner.outdir / "traced.ttb" if wl.emit else None
        runner.attempted += 1
        try:
            if j not in reference:
                bundle = io_formats.read_bundle(pool[j].path)
                if wl.command == "prune":
                    reference[j] = pipeline.prune(bundle, wl.config())
                else:
                    reference[j] = (pipeline.analyze(bundle, wl.config()), None)
                del bundle
            ms, cnt, report, sel = traced_request(wl, pool[j].path, out, emit)
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except Exception as exc:  # a raising request is a failed request
            runner.failures.append(f"traced request on bundle {j}: {exc!r}")
            return
        ref_report, ref_sel = reference[j]
        if (report.m1, report.per_image_budgets) != (ref_report.m1, ref_report.per_image_budgets) or (
            sel is not None and (sel.kept_global, sel.stage_sizes) != (ref_sel.kept_global, ref_sel.stage_sizes)
        ):
            runner.failures.append(f"traced rebuild of bundle {j} differs from pipeline.{wl.command}")
        elif not _same_selection(doc, report, sel):
            runner.failures.append(f"traced result of bundle {j} does not parse back to its selection")
        spans.append(ms)
        counts.append(cnt)

    untraced = closed_loop(runner, seconds, len(pool), traced_step)
    if not spans:
        return {}
    layer = {f"{name}_ms": statistics.median(s[name] for s in spans) for name in spans[0]}
    layer["io_formats.read_mb_per_s"] = statistics.median(
        c["io_formats.bytes_read"] / s["io_formats.read"] / 1e3 for s, c in zip(spans, counts)
    )
    for name in counts[0]:
        layer[name] = statistics.median(c[name] for c in counts)
    layer["pipeline.self_ms"] = statistics.median(
        s["pipeline.prune"] - sum(s[c] for c in PIPELINE_CHILDREN) for s in spans
    )
    layer["cli.self_ms"] = statistics.median(
        s["cli"] - sum(s[c] for c in CLI_CHILDREN) for s in spans
    )
    layer["trace.overhead_ms"] = layer["cli_ms"] - statistics.median(untraced) * 1e3
    print(f"traced: {len(spans)} traced and {len(untraced)} untraced requests, alternating")
    return {name: layer[name] for name in PER_LAYER}


PER_LAYER = (
    "io_formats.read_ms",
    "io_formats.read_mb_per_s",
    "io_formats.write_result_ms",
    "io_formats.write_bundle_ms",
    "io_formats.bytes_read",
    "io_formats.bytes_written",
    "types.build_ms",
    "metrics.signals_ms",
    "metrics.scoring_ms",
    "allocation.budget_ms",
    "selection.seed_pair_ms",
    "selection.stage1_ms",
    "selection.stage2_ms",
    "selection.pareto_ms",
    "selection.stage1_rows_out",
    "selection.stage2_rows_out",
    "selection.kept_rows",
    "pipeline.prune_ms",
    "pipeline.self_ms",
    "pipeline.apply_selection_ms",
    "cli.self_ms",
    "trace.overhead_ms",
)


# ---------------------------------------------------------------- reporting


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "tokentrim": tokentrim.__version__,
    }


UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_tokens_per_s": "tokens/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.startswith("io_formats.bytes"):
        return "bytes"
    return "count"


def timed_run(runner: Runner, seconds: float, probe: SetupProbe) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    probe.sample(SETUP_BATCH)
    # The memory pass also warms caches and fixes each bundle's first result.
    peak = first_pass(runner, measure_memory=True)
    runner.verify()
    probe.sample(SETUP_BATCH)
    t0 = time.perf_counter()
    latencies = closed_loop(runner, seconds, MIN_REQUESTS)
    phase = time.perf_counter() - t0
    timed = runner.verify()
    probe.sample(SETUP_BATCH)
    runner.attempted += probe.attempted
    runner.failures += probe.failures

    tail_s, tail_pct = tail(latencies)
    print(f"timed: {len(latencies)} requests in {phase:.2f} s, closed loop, 1 client")
    print(f"latency_tail_ms is p{tail_pct:.1f}: {TAIL_BEYOND} samples beyond it, n={len(latencies)}")
    print(f"setup_s is the median of {len(probe.times)} fresh processes")
    print(f"peak_mem_mb is the largest tracemalloc peak of {len(runner.pool)} requests")
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_tokens_per_s": sum(runner.pool[r.j].m0 for r in timed if r.ok) / phase,
        "setup_s": statistics.median(probe.times),
        "peak_mem_mb": peak / 1e6,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, golden: dict | None) -> dict:
    """One benchmark run; returns the result object printed last."""
    workdir = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        pool = make_pool(wl, seed, workdir)
        print(f"pool: {len(pool)} bundles of {wl.images} x {wl.tokens} x {wl.dim}, "
              f"(noise, drift) = {[(e.noise, e.drift) for e in pool]}, seed {seed}")
        runner = Runner(wl, pool, Expectations(wl, pool, golden), workdir / "out")
        if trace:
            first_pass(runner, measure_memory=False)
            runner.verify()
            values = traced_loop(runner, seconds)
            runner.verify()
            units = {name: layer_unit(name) for name in values}
        else:
            values = timed_run(runner, seconds, SetupProbe(wl, workdir))
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAIL {line}")
    print(f"error_rate {failed / runner.attempted:.6g} ({failed} failed / {runner.attempted} attempted)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def write_golden(path: Path, workloads) -> None:
    """Record every pool bundle's result at DEFAULT_SEED as the golden fixture."""
    entries = {}
    for wl in workloads:
        workdir = WORK_ROOT / f"golden-{wl.name}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "out").mkdir(parents=True)
        try:
            pool = make_pool(wl, DEFAULT_SEED, workdir)
            runner = Runner(wl, pool, Expectations(wl, pool, None), workdir / "out")
            entries[wl.name] = []
            for j, entry in enumerate(pool):
                req = runner.send(j)
                problems, rec = check_output(wl, entry, req.out, req.emit)
                if req.error or problems:
                    raise SystemExit(f"{wl.name} bundle {j}: {req.error or problems}")
                entries[wl.name].append({"input_sha256": entry.sha256, **rec})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    lines = ",\n".join(
        f'    "{name}": [\n' + ",\n".join(f"      {json.dumps(e)}" for e in recs) + "\n    ]"
        for name, recs in entries.items()
    )
    path.write_text(
        f'{{\n  "seed": {DEFAULT_SEED},\n  "workloads": {{\n{lines}\n  }}\n}}\n',
        encoding="utf-8",
    )
