"""Two-stage pruning pipeline: signals, nesting, determinism, application."""

import dataclasses
import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from tokentrim import (
    PruneConfig,
    Selection,
    TokenBundle,
    TokenMatrix,
    analyze,
    apply_selection,
    build_token_matrix,
    generate_synthetic,
    make_bundle,
    prune,
)
from tokentrim import pipeline, selection, types
from tokentrim.io_formats import SyntheticSpec
from tokentrim.errors import BadConfig, EmptyText, SelectionMismatch, ShapeMismatch
from tokentrim.selection import (
    ParetoPoint,
    greedy_rep_max,
    pareto_front_sortscan,
)


def random_matrix(rng, rows, dim):
    return build_token_matrix(rows, dim, rng.standard_normal(rows * dim))


def random_bundle(rng, sizes, dim, text_rows=6):
    images = [random_matrix(rng, m, dim) for m in sizes]
    return make_bundle(images, random_matrix(rng, text_rows, dim))


def gather_global(bundle, indices):
    """Rebuild the candidate matrix from original rows, via public API only."""
    offsets = bundle.offsets
    out = []
    for g in indices:
        k = int(np.searchsorted(offsets, g, side="right")) - 1
        out.append(bundle.images[k].data[g - offsets[k]])
    stacked = np.stack(out)
    return build_token_matrix(len(indices), bundle.dim, stacked.ravel())


class TestAnalyze:
    def test_single_image_fallbacks(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng, [16], dim=8)
        report = analyze(bundle, PruneConfig())
        assert report.d_k_list == ()
        assert report.d_inter is None
        assert report.s == 1.0
        assert len(report.d_intra_per_image) == 1
        assert report.d_intra_mean == report.d_intra_per_image[0]
        assert sum(report.per_image_budgets) == report.m1

    def test_identical_images_saturate_s(self):
        rng = np.random.default_rng(1)
        img = random_matrix(rng, 10, 8)
        bundle = make_bundle([img, img, img], random_matrix(rng, 4, 8))
        report = analyze(bundle, PruneConfig())
        assert report.d_inter == pytest.approx(0.0, abs=1e-7)
        assert math.isinf(report.s)
        # saturated s pins the stage-1 budget to the (clamped) maximum
        assert report.m1 == 30

    def test_degenerate_images_fall_back_to_neutral(self):
        # every image is one repeated token: no intra spread, no inter motion
        row = np.array([3.0, 4.0, 0.0, 0.0], dtype=np.float64)
        img = build_token_matrix(4, 4, np.tile(row, 4))
        bundle = make_bundle([img, img], build_token_matrix(1, 4, row))
        cfg = PruneConfig(m_min=2, m_max=10, lam=0.5)
        report = analyze(bundle, cfg)
        # float32 unit rows self-dot to 1 +/- 2**-22, not exactly 1
        assert abs(report.d_intra_mean) < 1e-6
        assert report.s == 1.0
        # m_max clamps to the 8 available tokens: 2 + round(6 * 0.5) = 5
        assert report.m1 == 5
        assert report.per_image_budgets == (3, 2)  # zero weights -> uniform

    def test_identical_rows_beside_a_diverse_image(self):
        # copies of this row sum to a norm that rounds above n, so the
        # image's diversity is a tiny negative number, not 0
        row = np.array([1.0, 1.0, 1.0, 3.0])
        img = build_token_matrix(4, 4, np.tile(row, 4))
        rng = np.random.default_rng(5)
        bundle = make_bundle([img, random_matrix(rng, 6, 4)], random_matrix(rng, 2, 4))
        cfg = PruneConfig(m_min=2, m_max=10, final_tokens=3, retention_ratio=None)
        report = analyze(bundle, cfg)
        assert -1e-12 < report.d_intra_per_image[0] < 0.0
        assert report.per_image_budgets[0] == 1
        assert sum(report.per_image_budgets) == report.m1
        pruned_report, sel = prune(bundle, cfg)
        assert pruned_report.per_image_budgets == report.per_image_budgets
        assert sel.stage_sizes[1] == report.m1
        assert sel.stage_sizes[-1] == len(sel.kept_global) > 0

    def test_budgets_respect_image_sizes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            sizes = [int(m) for m in rng.integers(1, 30, size=n)]
            bundle = random_bundle(rng, sizes, dim=6)
            report = analyze(bundle, PruneConfig())
            assert len(report.per_image_budgets) == n
            assert sum(report.per_image_budgets) == report.m1
            for quota, img in zip(report.per_image_budgets, bundle.images):
                assert 1 <= quota <= img.rows

    def test_positionwise_variant_is_wired(self):
        rng = np.random.default_rng(3)
        bundle = random_bundle(rng, [8, 8], dim=6)
        cfg = PruneConfig(inter_variant="position_wise")
        report = analyze(bundle, cfg)
        assert len(report.d_k_list) == 1
        global_report = analyze(bundle, PruneConfig())
        assert report.d_k_list != global_report.d_k_list


class TestPrune:
    def test_keep_all_passthrough(self):
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, [5, 7], dim=6)
        cfg = PruneConfig(final_tokens=12, retention_ratio=None)
        report, sel = prune(bundle, cfg)
        assert sel.stage_sizes == (12, 12, 12, 12)
        assert sel.kept_global == tuple(range(12))
        assert sel.kept_per_image == (tuple(range(5)), tuple(range(7)))
        pruned = apply_selection(bundle, sel)
        assert pruned.n_images == 2
        for got, want in zip(pruned.images, bundle.images):
            np.testing.assert_array_equal(got.data, want.data)

    def test_report_matches_analyze(self):
        rng = np.random.default_rng(5)
        bundle = random_bundle(rng, [12, 9, 20], dim=8)
        cfg = PruneConfig()
        report, _ = prune(bundle, cfg)
        assert report == analyze(bundle, cfg)

    def test_stages_nest_and_shrink(self):
        """Recompute both greedy stages independently and match the result."""
        rng = np.random.default_rng(6)
        bundle = random_bundle(rng, [100, 100, 100], dim=16)
        cfg = PruneConfig()
        report, sel = prune(bundle, cfg)
        m0, s1, s2, s3 = sel.stage_sizes
        assert m0 == 300 and m0 >= s1 >= s2 >= s3
        assert s2 == 252 and s3 == 60  # 0.2 retention of 300

        offsets = bundle.offsets
        x1 = []
        for k, (img, quota) in enumerate(
            zip(bundle.images, report.per_image_budgets)
        ):
            x1.extend(offsets[k] + i for i in greedy_rep_max(img, quota))
        assert len(x1) == s1

        pooled = gather_global(bundle, x1)
        picked = greedy_rep_max(pooled, 252)
        want_candidates = [x1[p] for p in picked]
        got_candidates = [g for g, _, _ in sel.scores]
        assert got_candidates == want_candidates
        assert set(sel.kept_global) <= set(got_candidates) <= set(x1)

    def test_no_float64_copy_of_a_row_set(self, monkeypatch):
        """Neither stage nor the scoring makes a float64 copy of every row
        of an image, the pool or the candidates: with no decision left to
        the float64 fallback (noise 0.1), ``unit64()`` is never called."""
        spec = SyntheticSpec(
            n_images=4, tokens_per_image=120, dim=1024, seed=0, clusters=16,
            noise=0.1, drift=0.05, text_tokens=8,
        )
        bundle = generate_synthetic(spec)
        calls = []
        real = TokenMatrix.unit64

        def spy(self):
            calls.append(self.data.shape)
            return real(self)

        monkeypatch.setattr(TokenMatrix, "unit64", spy)
        _, sel = prune(bundle, PruneConfig())
        assert sel.stage_sizes[1] > sel.stage_sizes[2] == 252  # stage 2 ran
        assert calls == []

    def test_determinism_and_thread_parity(self):
        rng = np.random.default_rng(7)
        bundle = random_bundle(rng, [40, 25, 33, 18], dim=12)
        cfg = PruneConfig()
        first = prune(bundle, cfg)
        second = prune(bundle, cfg)
        assert first == second == prune(bundle, cfg, 1)
        # threads admits only 1; the stage-1 pool follows the BLAS threads.
        for threads in (0, 2, 4, True):
            with pytest.raises(BadConfig, match="threads must be"):
                prune(bundle, cfg, threads)

    def test_scores_are_permutation_equivariant(self):
        """With passthrough budgets, per-token scores follow the rows."""
        rng = np.random.default_rng(8)
        sizes = [8, 8, 8]
        bundle = random_bundle(rng, sizes, dim=10)
        cfg = PruneConfig(final_tokens=6, retention_ratio=None)
        _, sel = prune(bundle, cfg)
        assert sel.stage_sizes[:3] == (24, 24, 24)

        perms = [rng.permutation(m) for m in sizes]
        shuffled = make_bundle(
            [img.gather(list(p)) for img, p in zip(bundle.images, perms)],
            bundle.text,
        )
        _, sel_p = prune(shuffled, cfg)

        # global index in shuffled bundle -> global index in original bundle
        offsets = bundle.offsets
        back = {}
        for k, p in enumerate(perms):
            for new_local, old_local in enumerate(p):
                back[offsets[k] + new_local] = offsets[k] + int(old_local)

        orig = {g: (v, a) for g, v, a in sel.scores}
        for g, v, a in sel_p.scores:
            v0, a0 = orig[back[g]]
            np.testing.assert_allclose(v, v0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a, a0, rtol=0, atol=1e-12)

        # Fully retained Pareto layers must map through the permutation; the
        # boundary layer is an anti-chain whose rank sums all tie, so its
        # members are chosen by index and only their count is stable.
        mapped = sorted(back[g] for g in sel_p.kept_global)
        assert len(mapped) == len(sel.kept_global)
        remaining = [ParetoPoint(index=g, v=v, a=a) for g, v, a in sel.scores]
        taken = 0
        while remaining:
            front = pareto_front_sortscan(remaining)
            if taken + len(front) > 6:
                break
            assert set(front) <= set(mapped) and set(front) <= set(sel.kept_global)
            taken += len(front)
            remaining = [p for p in remaining if p.index not in front]

    def test_duplicate_heavy_bundle_is_stable(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((4, 6))
        rows = base[rng.integers(0, 4, size=30)]  # thirty copies of four rows
        img = build_token_matrix(30, 6, rows.ravel())
        bundle = make_bundle([img], random_matrix(rng, 3, 6))
        cfg = PruneConfig(m_min=8, m_max=8, m2=8, final_tokens=4, retention_ratio=None)
        out1 = prune(bundle, cfg)
        out2 = prune(bundle, cfg)
        assert out1 == out2
        sel = out1[1]
        assert len(set(sel.kept_global)) == len(sel.kept_global) == 4

    def test_two_images_ignore_last_image_rule(self):
        rng = np.random.default_rng(10)
        bundle = random_bundle(rng, [20, 20], dim=8)
        with_rule = prune(bundle, PruneConfig(last_image_rule=True))
        without = prune(bundle, PruneConfig(last_image_rule=False))
        assert with_rule == without

    def test_empty_text_rejected(self):
        rng = np.random.default_rng(11)
        images = [random_matrix(rng, 6, 4)]
        bundle = make_bundle(images, build_token_matrix(0, 4, []))
        assert analyze(bundle, PruneConfig()).m1 >= 1  # analyze is fine
        with pytest.raises(EmptyText):
            prune(bundle, PruneConfig())

    def test_many_single_token_images(self):
        rng = np.random.default_rng(12)
        bundle = random_bundle(rng, [1] * 500, dim=4)
        report, sel = prune(bundle, PruneConfig())
        assert report.m1 == 500  # floor of one token per image
        assert sel.stage_sizes == (500, 500, 252, 100)
        assert all(len(k) <= 1 for k in sel.kept_per_image)

    def test_single_candidate_scores_zero_diversity(self):
        rng = np.random.default_rng(13)
        bundle = random_bundle(rng, [5], dim=4)
        cfg = PruneConfig(
            m_min=1, m_max=1, m2=1, final_tokens=1, retention_ratio=None
        )
        _, sel = prune(bundle, cfg)
        assert sel.stage_sizes == (5, 1, 1, 1)
        assert len(sel.scores) == 1
        assert sel.scores[0][1] == 0.0


class FakeBlas:
    """Stands in for numpy's OpenBLAS thread-count getter and setter: the
    count starts at ``threads`` and every set is recorded."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def set(self, n):
        self.calls.append(n)
        self.threads = n


def pool_bundle(n_images=8):
    return generate_synthetic(
        SyntheticSpec(
            n_images=n_images, tokens_per_image=48, dim=32, seed=5, clusters=4,
            noise=0.3, drift=0.05, text_tokens=4,
        )
    )


def count_thread_starts(monkeypatch):
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestStage1Pool:
    """Stage 1 runs on w workers when BLAS runs with w >= 2 threads and
    the bundle has at least 4 w images; a fake BLAS handle sets w."""

    def test_pool_matches_one_worker_bit_for_bit(self, monkeypatch):
        bundle = pool_bundle()
        cfg = PruneConfig(final_tokens=20, retention_ratio=None)
        one = FakeBlas(1)
        monkeypatch.setattr(pipeline, "_BLAS", (one.get, one.set))
        started = count_thread_starts(monkeypatch)
        serial = prune(bundle, cfg)
        assert started == [] and one.calls == []

        two = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (two.get, two.set))
        pooled = prune(bundle, cfg)
        assert len(started) == 1  # the calling thread is the other worker
        assert two.calls == [1, 2]
        assert pooled == serial
        assert repr(pooled[1].scores) == repr(serial[1].scores)

    def test_first_failure_by_image_is_raised_after_join(self, monkeypatch):
        """A failing image restores the BLAS count and joins every worker;
        of several failures, the lowest image's is raised."""
        bundle = pool_bundle()
        fake = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        failures = {5: RuntimeError("image 5"), 7: RuntimeError("image 7")}
        real = selection._Greedy.finish

        def finish(job):
            for i, exc in failures.items():
                if job.tokens is bundle.images[i]:
                    raise exc
            return real(job)

        monkeypatch.setattr(selection._Greedy, "finish", finish)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            prune(bundle, PruneConfig())
        assert err.value is failures[5]
        assert fake.calls == [1, 2]
        assert threading.active_count() == before

    def test_no_handle_or_few_images_start_no_thread(self, monkeypatch):
        started = count_thread_starts(monkeypatch)
        monkeypatch.setattr(pipeline, "_BLAS", None)
        prune(pool_bundle(), PruneConfig())
        fake = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        prune(pool_bundle(n_images=7), PruneConfig())  # fewer than 4 w
        assert started == [] and fake.calls == []

    def test_concurrent_prunes_restore_the_count(self, monkeypatch):
        """Two host threads inside pooled prunes at once: the first pins
        BLAS, the last restores the count the first found."""
        bundle = pool_bundle()
        cfg = PruneConfig()
        want = prune(bundle, cfg)
        fake = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        both_inside = threading.Barrier(2, timeout=60)
        real = pipeline._stage1

        def stage1(*args):
            both_inside.wait()
            return real(*args)

        monkeypatch.setattr(pipeline, "_stage1", stage1)
        started = count_thread_starts(monkeypatch)
        results, errors = [], []

        def host():
            try:
                results.append(prune(bundle, cfg))
            except BaseException as exc:  # reported below
                errors.append(exc)

        hosts = [threading.Thread(target=host) for _ in range(2)]
        for t in hosts:
            t.start()
        for t in hosts:
            t.join(timeout=120)
            assert not t.is_alive()
        assert errors == []
        assert results == [want, want]
        assert len(started) == 4  # two hosts, each with one more worker
        assert fake.threads == 2
        assert fake.calls == [1, 2]

    def test_stress_more_workers_than_cores(self, monkeypatch):
        """Three host threads prune a 16-image bundle on four workers each,
        switching threads every microsecond: every image is selected once
        (each result equals the serial one), BLAS stays pinned while any
        image is being selected and the count is restored at the end."""
        bundle = pool_bundle(n_images=16)
        cfg = PruneConfig()
        want = prune(bundle, cfg)
        fake = FakeBlas(4)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        real = selection._Greedy.reduce
        unpinned = []

        def reduce(job, t):
            if fake.threads != 1:
                unpinned.append(job.k)
            return real(job, t)

        monkeypatch.setattr(selection._Greedy, "reduce", reduce)
        results = []
        hosts = [
            threading.Thread(target=lambda: results.append(prune(bundle, cfg)))
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in hosts:
                t.start()
            for t in hosts:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 3
        assert unpinned == []
        assert fake.threads == 4


def small_tiles(monkeypatch):
    """Cut a 48-row image's seed filter into 12 tiles of at most 8 x 16."""
    monkeypatch.setattr(selection, "_TILE_ROWS", 8)
    monkeypatch.setattr(selection, "_TILE_COLS", 16)


def split_config(n_images):
    """Stage-1 quotas of 13-16 rows, below the 48 rows of a pool image."""
    return PruneConfig(
        m_min=10 * n_images, m_max=16 * n_images, m2=8 * n_images,
        final_tokens=4 * n_images, retention_ratio=None,
    )


def open_images(monkeypatch, n_images, is_held):
    """Count the stage-1 jobs that have loaded their rows and not yet
    finished, and hold the finish of the job ``is_held`` picks until the
    other ``n_images - 1`` have finished (60 s at most), so that the other
    workers go through the rest of the bundle while it holds its rows.
    Returns a list whose one entry is the largest count."""
    lock, loaded, others_done = threading.Lock(), set(), threading.Event()
    finished, peak = [0], [0]
    real_load, real_finish = selection._Greedy.load, selection._Greedy.finish

    def load(job):
        with lock:
            loaded.add(job)
            peak[0] = max(peak[0], len(loaded))
        return real_load(job)

    def finish(job):
        if is_held(job):
            others_done.wait(timeout=60)
        try:
            return real_finish(job)
        finally:
            with lock:
                loaded.discard(job)
                finished[0] += 1
                if finished[0] == n_images - 1:
                    others_done.set()

    monkeypatch.setattr(selection._Greedy, "load", load)
    monkeypatch.setattr(selection._Greedy, "finish", finish)
    return peak


class Interrupted(BaseException):
    """Stands in for KeyboardInterrupt."""


class TestTiledStage1Pool:
    """Stage 1 also takes seed-filter tiles as work items: the 48 x 32 pool
    images, with small tiles, give 12 items each."""

    @pytest.mark.parametrize("n_images", [1, 2, 3, 5])
    def test_split_images_match_one_worker_bit_for_bit(self, monkeypatch, n_images):
        """The pool runs with at least one image and four items per worker,
        so one image stays on one worker; its items on two workers give
        one worker's selections too."""
        small_tiles(monkeypatch)
        bundle, cfg = pool_bundle(n_images), split_config(n_images)
        assert all(
            selection._Greedy(img, 13, "sum_distance").items == 12
            for img in bundle.images
        )
        one = FakeBlas(1)
        monkeypatch.setattr(pipeline, "_BLAS", (one.get, one.set))
        serial = prune(bundle, cfg)
        two = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (two.get, two.set))
        started = count_thread_starts(monkeypatch)
        pooled = prune(bundle, cfg)
        assert len(started) == (n_images >= 2)
        assert pooled == serial
        assert repr(pooled[1].scores) == repr(serial[1].scores)
        quotas = serial[0].per_image_budgets

        def jobs():
            return [
                selection._Greedy(img, k, cfg.greedy_objective)
                for img, k in zip(bundle.images, quotas)
            ]

        assert pipeline._stage1(jobs(), 2) == pipeline._stage1(jobs(), 1)

    @pytest.mark.parametrize("method", ["reduce", "finish"])
    @pytest.mark.parametrize("error", [MemoryError, RuntimeError])
    def test_failing_item_is_its_images_failure(self, monkeypatch, method, error):
        """A tile that raises, or an image's finish, fails that image: of
        several, the lowest image's failure is raised after every worker
        has joined, and the BLAS count is restored."""
        small_tiles(monkeypatch)
        bundle = pool_bundle(n_images=4)
        fake = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        failures = {1: error("image 1"), 3: error("image 3")}
        real = getattr(selection._Greedy, method)

        def failing(job, *args):
            for i, exc in failures.items():
                if job.tokens is bundle.images[i] and args in ((), (5,)):
                    raise exc
            return real(job, *args)

        monkeypatch.setattr(selection._Greedy, method, failing)
        before = threading.active_count()
        with pytest.raises(error) as err:
            prune(bundle, split_config(4))
        assert err.value is failures[1]
        assert fake.calls == [1, 2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("w, n_images", [(2, 4), (2, 5), (3, 6)])
    def test_at_most_one_open_image_per_worker(self, monkeypatch, w, n_images):
        """Image 0's finish is held until every other image has finished,
        so the other workers go through the bundle while it is open: no
        more than w images are loaded and unfinished at once, and the
        result is one worker's."""
        small_tiles(monkeypatch)
        bundle, cfg = pool_bundle(n_images), split_config(n_images)
        serial = prune(bundle, cfg)
        fake = FakeBlas(w)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        peak = open_images(
            monkeypatch, n_images, lambda job: job.tokens is bundle.images[0]
        )
        pooled = prune(bundle, cfg)
        assert fake.calls == [1, w]
        assert peak == [w]
        assert pooled == serial

    @pytest.mark.parametrize("method", ["reduce", "finish"])
    def test_failure_while_every_slot_is_open(self, monkeypatch, method):
        """Image 0's finish holds its rows until image 2 fails at its
        sixth tile or its finish, then fails too: prune raises image 0's
        failure, the lowest, with every worker joined and the BLAS count
        restored."""
        small_tiles(monkeypatch)
        bundle = pool_bundle(n_images=4)
        fake = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        failed = threading.Event()
        held, failure = RuntimeError("image 0"), RuntimeError("image 2")
        real = {m: getattr(selection._Greedy, m) for m in ("reduce", "finish")}

        def fails(job, *args):
            if job.tokens is bundle.images[2] and args in ((), (5,)):
                failed.set()
                raise failure
            return real[method](job, *args)

        def finish(job):
            if job.tokens is bundle.images[0]:
                assert failed.wait(timeout=60)
                raise held
            return fails(job) if method == "finish" else real["finish"](job)

        monkeypatch.setattr(selection._Greedy, method, fails)
        monkeypatch.setattr(selection._Greedy, "finish", finish)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            prune(bundle, split_config(4))
        assert err.value is held
        assert fake.calls == [1, 2]
        assert threading.active_count() == before

    def test_interrupt_in_the_calling_thread_stops_the_pool(self, monkeypatch):
        """An interrupt that reaches the calling thread between items (here
        at its first take) empties the queue: the other worker takes
        nothing once its item is done, is joined, and the BLAS count is
        restored."""
        small_tiles(monkeypatch)
        bundle, cfg = pool_bundle(n_images=4), split_config(4)
        fake = FakeBlas(2)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        emptied = threading.Event()
        caller = threading.current_thread()

        class Lock:
            """_stage1's lock: the caller's first entry raises Interrupted,
            and its next (the queue being emptied) sets ``emptied``."""

            def __init__(self):
                self.lock, self.entries = threading.Lock(), 0

            def __enter__(self):
                if threading.current_thread() is caller:
                    self.entries += 1
                    if self.entries == 1:
                        raise Interrupted
                self.lock.acquire()

            def __exit__(self, *exc):
                self.lock.release()
                if threading.current_thread() is caller:
                    emptied.set()

        monkeypatch.setattr(
            pipeline, "threading", SimpleNamespace(Lock=Lock, Thread=threading.Thread)
        )
        reduced = []
        real = selection._Greedy.reduce

        def reduce(job, t):
            reduced.append(t)
            assert emptied.wait(timeout=60)
            return real(job, t)

        monkeypatch.setattr(selection._Greedy, "reduce", reduce)
        before = threading.active_count()
        with pytest.raises(Interrupted):
            prune(bundle, cfg)
        assert len(reduced) <= 1
        assert fake.calls == [1, 2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("w", [2, 3])
    def test_pooled_prune_starts_w_minus_one_threads(self, monkeypatch, w):
        small_tiles(monkeypatch)
        bundle, cfg = pool_bundle(n_images=3), split_config(3)
        fake = FakeBlas(w)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        started = count_thread_starts(monkeypatch)
        for rounds in (1, 2):
            prune(bundle, cfg)
            assert len(started) == rounds * (w - 1)
        assert fake.calls == [1, w] * 2

    def test_stress_tiles_on_more_workers_than_cores(self, monkeypatch):
        """Three host threads prune 5 split images on four workers each,
        switching threads every microsecond: each image is finished once,
        after its last tile, so every result equals the serial one."""
        small_tiles(monkeypatch)
        bundle, cfg = pool_bundle(n_images=5), split_config(5)
        want = prune(bundle, cfg)
        fake = FakeBlas(4)
        monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
        real = selection._Greedy.finish
        early = []

        def finish(job):
            early.extend(t for t, part in enumerate(job.parts) if part is None)
            return real(job)

        monkeypatch.setattr(selection._Greedy, "finish", finish)
        results = []
        hosts = [
            threading.Thread(target=lambda: results.append(prune(bundle, cfg)))
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in hosts:
                t.start()
            for t in hosts:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 3
        assert early == []
        assert fake.threads == 4


class TestApplySelection:
    def test_widens_no_row_until_sums_are_read(self, monkeypatch):
        """apply_selection's output, and a bundle split from one segment,
        take a view's row sums on its first read only: no widening pass
        runs before, and the sums equal the build's bit for bit."""
        rng = np.random.default_rng(16)
        bundle = random_bundle(rng, [30, 20], dim=8)
        _, sel = prune(bundle, PruneConfig(final_tokens=9, retention_ratio=None))
        whole = bundle.rows.gather(slice(None))
        calls = []
        real = types._widen

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(types, "_widen", spy)
        apply_selection(bundle, sel)
        split = TokenBundle(whole, bundle.counts)
        assert calls == []
        for _ in range(2):
            sums = split.images[1].row_sums()
            assert sums.tobytes() == bundle.images[1].row_sums().tobytes()
        assert calls == [(20,)]

    def test_gather_is_bit_exact(self):
        rng = np.random.default_rng(14)
        bundle = random_bundle(rng, [30, 30], dim=8)
        _, sel = prune(bundle, PruneConfig(final_tokens=9, retention_ratio=None))
        pruned = apply_selection(bundle, sel)
        assert pruned.total_tokens == 9
        offsets = bundle.offsets
        cursor = 0
        flat = [row for img in pruned.images for row in img.data]
        for k, locals_k in enumerate(sel.kept_per_image):
            for i in locals_k:
                np.testing.assert_array_equal(
                    flat[cursor], bundle.images[k].data[i]
                )
                cursor += 1
        np.testing.assert_array_equal(pruned.text.data, bundle.text.data)

    def test_empty_images_are_dropped(self):
        rng = np.random.default_rng(15)
        bundle = random_bundle(rng, [4, 4], dim=4)
        sel = Selection(
            kept_per_image=((), (1, 3)),
            kept_global=(5, 7),
            scores=((5, 0.1, 0.2), (7, 0.3, 0.4)),
            stage_sizes=(8, 8, 2, 2),
        )
        pruned = apply_selection(bundle, sel)
        assert pruned.n_images == 1
        np.testing.assert_array_equal(
            pruned.images[0].data, bundle.images[1].data[[1, 3]]
        )

    def test_mismatches_rejected(self):
        rng = np.random.default_rng(16)
        bundle = random_bundle(rng, [4, 4], dim=4)
        _, sel = prune(bundle, PruneConfig(final_tokens=3, retention_ratio=None))

        other = random_bundle(rng, [4, 5], dim=4)
        with pytest.raises(SelectionMismatch):
            apply_selection(other, sel)

        wrong_images = Selection(
            kept_per_image=((0,),),
            kept_global=(0,),
            scores=((0, 0.0, 0.0),),
            stage_sizes=(8, 8, 1, 1),
        )
        with pytest.raises(SelectionMismatch):
            apply_selection(bundle, wrong_images)

        out_of_range = Selection(
            kept_per_image=((9,), ()),
            kept_global=(9,),
            scores=((9, 0.0, 0.0),),
            stage_sizes=(8, 8, 1, 1),
        )
        with pytest.raises(SelectionMismatch):
            apply_selection(bundle, out_of_range)

        inconsistent = Selection(
            kept_per_image=((0,), ()),
            kept_global=(4,),
            scores=((4, 0.0, 0.0),),
            stage_sizes=(8, 8, 1, 1),
        )
        with pytest.raises(SelectionMismatch):
            apply_selection(bundle, inconsistent)


def test_selection_fields_of_the_wrong_kind():
    """A Selection whose fields do not hold counts and indices raises
    SelectionMismatch, not a raw Python error."""
    rng = np.random.default_rng(18)
    bundle = random_bundle(rng, [4, 4, 4], dim=4)
    _, sel = prune(bundle, PruneConfig(final_tokens=3, retention_ratio=None))
    for bad in (
        Selection(("ab", "c", "d"), sel.kept_global, sel.scores, sel.stage_sizes),
        dataclasses.replace(sel, stage_sizes=()),
        dataclasses.replace(sel, stage_sizes=12),
        dataclasses.replace(sel, kept_per_image=None),
        dataclasses.replace(sel, kept_per_image=((0,), 1, ())),
        dataclasses.replace(sel, kept_global=7),
    ):
        with pytest.raises(SelectionMismatch):
            apply_selection(bundle, bad)


def test_stage_sizes_must_be_counts():
    """Each stage size is checked as a count, not only the first against
    the bundle: a string, None or float entry raises SelectionMismatch
    naming it."""
    rng = np.random.default_rng(18)
    bundle = random_bundle(rng, [4, 4, 4], dim=4)
    _, sel = prune(bundle, PruneConfig(final_tokens=3, retention_ratio=None))
    m0 = bundle.total_tokens
    for sizes, where in (
        ((m0, "x", None, 4), r"stage_sizes\[1\]"),
        ((60.0, 20, 8, 4), r"stage_sizes\[0\]"),
        ((m0, 8, 3, True), r"stage_sizes\[3\]"),
        ((m0, -1, 3, 3), r"stage_sizes\[1\]"),
    ):
        with pytest.raises(SelectionMismatch, match=where):
            apply_selection(bundle, dataclasses.replace(sel, stage_sizes=sizes))


def test_stage_sizes_must_fit_the_selection():
    """Stage sizes that increase, or that do not end at the kept count,
    and a row kept twice under stage sizes that fit it raise
    SelectionMismatch instead of materializing a bundle."""
    rng = np.random.default_rng(18)
    bundle = random_bundle(rng, [4, 4], dim=4)
    _, sel = prune(bundle, PruneConfig(final_tokens=2, retention_ratio=None))
    assert len(sel.kept_global) == 2
    repeated = {"kept_per_image": ((1, 1), ()), "kept_global": (1, 1)}
    for fields, why in (
        ({"stage_sizes": (8, 1, 999, 5)}, "increase"),
        ({"stage_sizes": (8, 8, 8, 7)}, "end at 7"),
        ({"stage_sizes": (8, 2, 3, 2)}, "increase"),
        ({**repeated, "stage_sizes": (8, 8, 8, 2)}, "repeats a kept index"),
    ):
        with pytest.raises(SelectionMismatch, match=why):
            apply_selection(bundle, dataclasses.replace(sel, **fields))


def test_arguments_of_the_wrong_kind():
    """A bundle, config or selection of the wrong type raises the
    package's error for that argument, not a raw Python error."""
    rng = np.random.default_rng(17)
    bundle = random_bundle(rng, [4, 4], dim=4)
    cfg = PruneConfig(final_tokens=3, retention_ratio=None)
    _, sel = prune(bundle, cfg)
    calls = (
        (lambda: prune(bundle, "cfg"), BadConfig),
        (lambda: prune(None, cfg), ShapeMismatch),
        (lambda: analyze(bundle, None), BadConfig),
        (lambda: analyze(bundle.rows, cfg), ShapeMismatch),
        (lambda: apply_selection(bundle, None), SelectionMismatch),
        (lambda: apply_selection(bundle, sel.kept_global), SelectionMismatch),
        (lambda: apply_selection(None, sel), ShapeMismatch),
    )
    for call, error in calls:
        with pytest.raises(error, match="must be of type"):
            call()
