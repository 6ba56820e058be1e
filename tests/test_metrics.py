"""Redundancy signals: reference values, fast/naive agreement, invariances."""

import math
import tracemalloc

import numpy as np
import pytest

from tokentrim import (
    PruneConfig,
    TokenMatrix,
    analyze,
    build_token_matrix,
    generate_synthetic,
    io_formats,
    make_bundle,
    read_bundle,
    types,
    write_bundle,
)
from tokentrim.io_formats import SyntheticSpec
from tokentrim.bench import (
    alignment_naive,
    intra_diversity_naive,
    token_diversity_naive,
)
from tokentrim.errors import (
    BadConfig,
    DimMismatch,
    EmptySteps,
    EmptyText,
    PositionMismatch,
    TooFewTokens,
    ZeroMeanImage,
)
from tokentrim.metrics import (
    alignment_fast,
    build_alignment_context,
    inter_variation_mean,
    inter_variation_positionwise,
    inter_variation_steps,
    intra_diversity_fast,
    intra_diversity_mean,
    s_factor,
    token_diversity_fast,
)

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]
MID = [2**-0.5, 2**-0.5]

# Frozen reference values, computed independently from the definitions.
TRIO_DIVERSITY = 0.5285954792089683  # {e1, e2, (e1+e2)/sqrt 2}
E1_MID_STEP = 0.2928932188134524  # 1 - sqrt(2)/2


def matrix(rows):
    flat = [x for row in rows for x in row]
    return build_token_matrix(len(rows), len(rows[0]), flat)


def random_matrix(rng, rows, dim):
    return build_token_matrix(rows, dim, rng.standard_normal(rows * dim))


class TestIntraDiversity:
    def test_identical_rows_zero(self):
        m = matrix([E1, E1])
        assert intra_diversity_naive(m) == pytest.approx(0.0, abs=1e-12)
        assert intra_diversity_fast(m) == pytest.approx(0.0, abs=1e-6)

    def test_orthonormal_pair_is_one(self):
        m = matrix([E1, E2])
        assert intra_diversity_naive(m) == pytest.approx(1.0, abs=1e-6)
        assert intra_diversity_fast(m) == pytest.approx(1.0, abs=1e-6)

    def test_trio_reference_value(self):
        m = matrix([E1, E2, MID])
        assert intra_diversity_naive(m) == pytest.approx(TRIO_DIVERSITY, abs=1e-4)
        assert intra_diversity_fast(m) == pytest.approx(TRIO_DIVERSITY, abs=1e-4)

    def test_single_token_zero(self):
        assert intra_diversity_naive(matrix([E1])) == 0.0
        assert intra_diversity_fast(matrix([E1])) == 0.0

    def test_n_copies_of_one_row(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(8)
        for n in range(2, 65):
            m = build_token_matrix(n, 8, np.tile(row, n))
            assert intra_diversity_fast(m) == pytest.approx(0.0, abs=1e-6)

    def test_fast_matches_naive_randomly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 120))
            dim = int(rng.integers(2, 48))
            m = random_matrix(rng, n, dim)
            naive = intra_diversity_naive(m)
            fast = intra_diversity_fast(m)
            assert abs(fast - naive) <= 1e-6 * max(1.0, abs(naive))

    def test_range_and_permutation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            m = random_matrix(rng, n, 16)
            d = intra_diversity_fast(m)
            assert 0.0 <= d <= 2.0
            perm = rng.permutation(n)
            shuffled = build_token_matrix(n, 16, m.data[perm].ravel())
            assert intra_diversity_fast(shuffled) == pytest.approx(d, rel=1e-9)

    def test_scale_invariance(self):
        """Power-of-two row rescaling is exact in float32, so bit-identical."""
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 12, 6)
        scales = np.array([0.5, 2.0, 4.0, 0.25] * 3, dtype=np.float32)
        scaled = build_token_matrix(12, 6, (m.data * scales[:, None]).ravel())
        assert intra_diversity_fast(scaled) == intra_diversity_fast(m)
        assert intra_diversity_naive(scaled) == intra_diversity_naive(m)


class TestIntraDiversityMean:
    def test_single_image(self):
        rng = np.random.default_rng(10)
        img = random_matrix(rng, 6, 4)
        b = make_bundle([img], random_matrix(rng, 2, 4))
        per, mean = intra_diversity_mean(b)
        assert mean == per[0] == pytest.approx(intra_diversity_fast(img))

    def test_mean_is_arithmetic(self):
        rng = np.random.default_rng(11)
        b = make_bundle(
            [random_matrix(rng, int(rng.integers(2, 20)), 8) for _ in range(5)],
            random_matrix(rng, 2, 8),
        )
        per, mean = intra_diversity_mean(b)
        assert mean == pytest.approx(np.mean(per), abs=1e-9)
        naive_per = [intra_diversity_naive(img) for img in b.images]
        assert mean == pytest.approx(np.mean(naive_per), abs=1e-6)

    def test_per_image_matches_naive(self):
        rng = np.random.default_rng(12)
        b = make_bundle(
            [random_matrix(rng, 10, 8) for _ in range(3)],
            random_matrix(rng, 2, 8),
        )
        per, _ = intra_diversity_mean(b)
        naive_per = [intra_diversity_naive(img) for img in b.images]
        np.testing.assert_allclose(per, naive_per, atol=1e-6)


class TestInterVariation:
    def test_identical_images(self):
        rng = np.random.default_rng(13)
        img = random_matrix(rng, 5, 6)
        twin = build_token_matrix(5, 6, img.data.ravel())
        b = make_bundle([img, twin], random_matrix(rng, 2, 6))
        assert inter_variation_steps(b) == [pytest.approx(0.0, abs=1e-12)]

    def test_orthogonal_means(self):
        b = make_bundle([matrix([E1]), matrix([E2])], matrix([E1]))
        assert inter_variation_steps(b) == [pytest.approx(1.0)]

    def test_e1_to_mid_step(self):
        b = make_bundle([matrix([E1]), matrix([MID])], matrix([E1]))
        (step,) = inter_variation_steps(b)
        assert step == pytest.approx(E1_MID_STEP, abs=1e-6)

    def test_single_image_gives_empty_list(self):
        b = make_bundle([matrix([E1])], matrix([E1]))
        assert inter_variation_steps(b) == []

    def test_permutation_within_image_invariant(self):
        rng = np.random.default_rng(14)
        imgs = [random_matrix(rng, 8, 6) for _ in range(3)]
        text = random_matrix(rng, 2, 6)
        base = inter_variation_steps(make_bundle(imgs, text))
        perm = rng.permutation(8)
        shuffled = [
            build_token_matrix(8, 6, img.data[perm].ravel()) for img in imgs
        ]
        np.testing.assert_allclose(
            inter_variation_steps(make_bundle(shuffled, text)), base, atol=1e-9
        )

    def test_zero_mean_image(self):
        bad = matrix([E1, [-1.0, 0.0]])  # rows cancel exactly
        b = make_bundle([matrix([E1]), bad], matrix([E1]))
        with pytest.raises(ZeroMeanImage) as err:
            inter_variation_steps(b)
        assert err.value.image == 2

    def test_step_range(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            b = make_bundle(
                [random_matrix(rng, 4, 5) for _ in range(4)],
                random_matrix(rng, 1, 5),
            )
            for d in inter_variation_steps(b):
                assert 0.0 <= d <= 2.0


class TestInterVariationPositionwise:
    def test_identical_images(self):
        rng = np.random.default_rng(16)
        img = random_matrix(rng, 5, 6)
        twin = build_token_matrix(5, 6, img.data.ravel())
        b = make_bundle([img, twin], random_matrix(rng, 1, 6))
        # float32 unit rows self-dot to 1 +- 2**-22, so "zero" is ~1e-7 here
        assert inter_variation_positionwise(b) == [pytest.approx(0.0, abs=1e-6)]

    def test_swapped_rows_asymmetry(self):
        """Row order flips the position-wise signal but not the global one."""
        b = make_bundle([matrix([E1, E2]), matrix([E2, E1])], matrix([E1]))
        assert inter_variation_positionwise(b) == [pytest.approx(1.0)]
        assert inter_variation_steps(b) == [pytest.approx(0.0, abs=1e-12)]

    def test_each_image_widens_once(self, monkeypatch):
        """Each image's unit rows are built once and carried to the next
        step, and the steps are those of widening both images per step."""
        rng = np.random.default_rng(18)
        b = make_bundle(
            [random_matrix(rng, 6, 5) for _ in range(5)], random_matrix(rng, 1, 5)
        )
        want = [
            float(np.mean(1.0 - np.einsum("ij,ij->i", cur.unit64(), prev.unit64())))
            for prev, cur in zip(b.images, b.images[1:])
        ]
        calls = []
        real = TokenMatrix.unit64

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(TokenMatrix, "unit64", spy)
        assert inter_variation_positionwise(b) == want
        assert len(calls) == b.n_images

    def test_count_mismatch(self):
        rng = np.random.default_rng(17)
        b = make_bundle(
            [random_matrix(rng, 4, 6), random_matrix(rng, 5, 6)],
            random_matrix(rng, 1, 6),
        )
        with pytest.raises(PositionMismatch) as err:
            inter_variation_positionwise(b)
        assert err.value.step == 2


class TestInterVariationMean:
    def test_values(self):
        assert inter_variation_mean([0.0]) == 0.0
        assert inter_variation_mean([1.0, E1_MID_STEP]) == pytest.approx(
            0.6464466094067263, abs=1e-9
        )
        assert inter_variation_mean([0.37]) == pytest.approx(0.37)

    def test_empty_rejected(self):
        with pytest.raises(EmptySteps):
            inter_variation_mean([])


class TestSFactor:
    def test_plain_ratio(self):
        assert s_factor(0.6, 0.4) == pytest.approx(1.5)

    def test_single_image_fallback(self):
        assert s_factor(0.5, None) == 1.0

    def test_saturation(self):
        assert math.isinf(s_factor(0.5, 1e-12))

    def test_double_degenerate(self):
        assert s_factor(1e-12, 1e-12) == 1.0

    def test_monotonicity(self):
        intra = np.linspace(0.1, 1.9, 12)
        values = [s_factor(x, 0.7) for x in intra]
        assert all(b > a for a, b in zip(values, values[1:]))
        inter = np.linspace(0.1, 1.9, 12)
        values = [s_factor(0.7, x) for x in inter]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestAlignment:
    def test_token_equals_single_text(self):
        tokens = matrix([E1])
        text = matrix([E1])
        assert alignment_naive(tokens, text)[0] == pytest.approx(0.0, abs=1e-12)
        ctx = build_alignment_context(text)
        assert alignment_fast(tokens, ctx)[0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_text_pair(self):
        tokens = matrix([E1])
        text = matrix([[0.0, 1.0], [0.0, -1.0]])
        assert alignment_naive(tokens, text)[0] == pytest.approx(-2.0)
        ctx = build_alignment_context(text)
        # mu_t = 0 and C = 1, so the expansion gives -1 - 1 + 0
        assert ctx.c_t == pytest.approx(1.0)
        np.testing.assert_allclose(ctx.mu_t, [0.0, 0.0], atol=1e-9)
        assert alignment_fast(tokens, ctx)[0] == pytest.approx(-2.0)

    def test_duplicated_text_token(self):
        rng = np.random.default_rng(18)
        row = rng.standard_normal(6).astype(np.float32)
        tokens = build_token_matrix(1, 6, row)
        text = build_token_matrix(5, 6, np.tile(row, 5))
        assert alignment_naive(tokens, text)[0] == pytest.approx(0.0, abs=1e-9)

    def test_context_matches_recompute(self):
        rng = np.random.default_rng(19)
        text = random_matrix(rng, 12, 7)
        ctx = build_alignment_context(text)
        wide = text.data.astype(np.float64)
        np.testing.assert_allclose(ctx.mu_t, wide.mean(axis=0), atol=1e-9)
        assert ctx.c_t == pytest.approx(
            float(np.mean(np.sum(wide * wide, axis=1))), abs=1e-9
        )
        assert ctx.m_text == 12

    def test_fast_matches_naive_randomly(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 257))
            m = int(rng.integers(1, 33))
            dim = int(rng.integers(2, 65))
            tokens = random_matrix(rng, n, dim)
            text = random_matrix(rng, m, dim)
            naive = alignment_naive(tokens, text)
            fast = alignment_fast(tokens, build_alignment_context(text))
            worst = max(worst, float(np.max(np.abs(naive - fast))))
            np.testing.assert_allclose(fast, naive, atol=1e-4, rtol=1e-5)
        assert worst < 1e-4

    def test_normalized_variant(self):
        rng = np.random.default_rng(21)
        tokens = random_matrix(rng, 20, 9)
        text = random_matrix(rng, 6, 9)
        naive = alignment_naive(tokens, text, on_normalized=True)
        ctx = build_alignment_context(text, on_normalized=True)
        fast = alignment_fast(tokens, ctx, on_normalized=True)
        np.testing.assert_allclose(fast, naive, atol=1e-4, rtol=1e-5)
        # unit rows with unit text bound the distance by (1+1)^2
        assert np.all(naive >= -4.0) and np.all(naive <= 0.0)

    def test_context_records_its_normalization(self):
        """Scoring with the other normalization than the context was built
        with raises BadConfig instead of mixing the two formulas."""
        rng = np.random.default_rng(25)
        tokens = random_matrix(rng, 5, 4)
        text = random_matrix(rng, 3, 4)
        for built in (False, True):
            ctx = build_alignment_context(text, built)
            assert ctx.on_normalized is built
            alignment_fast(tokens, ctx, built)
            with pytest.raises(BadConfig, match="on_normalized"):
                alignment_fast(tokens, ctx, not built)
        with pytest.raises(BadConfig):
            alignment_fast(tokens, build_alignment_context(text, True))

    @pytest.mark.parametrize(
        "n, dim",
        [(1, 1024), (32, 1024), (33, 1024), (65, 1024), (252, 1024), (1345, 48)],
    )
    def test_normalized_scores_equal_the_whole_matrix_formula(self, n, dim):
        """Widened a chunk at a time, the normalized alignment equals the
        formula on the whole ``unit64()`` matrix bit for bit."""
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, dim)) + 0.3 * rng.standard_normal(dim)
        cand = build_token_matrix(n, dim, rows.ravel())
        ctx = build_alignment_context(random_matrix(rng, 32, dim), True)
        xs = cand.unit64()
        want = -np.einsum("ij,ij->i", xs, xs) - ctx.c_t + 2.0 * (xs @ ctx.mu_t)
        got = alignment_fast(cand, ctx, True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_always_nonpositive_and_finite(self):
        rng = np.random.default_rng(22)
        tokens = random_matrix(rng, 30, 5)
        text = random_matrix(rng, 4, 5)
        a = alignment_naive(tokens, text)
        assert np.all(a <= 0.0) and np.all(np.isfinite(a))

    def test_dim_mismatch(self):
        rng = np.random.default_rng(23)
        with pytest.raises(DimMismatch):
            alignment_naive(random_matrix(rng, 2, 4), random_matrix(rng, 2, 5))
        ctx = build_alignment_context(random_matrix(rng, 2, 5))
        with pytest.raises(DimMismatch):
            alignment_fast(random_matrix(rng, 2, 4), ctx)

    def test_empty_text_rejected(self):
        rng = np.random.default_rng(24)
        empty = build_token_matrix(0, 4, [])
        with pytest.raises(EmptyText):
            alignment_naive(random_matrix(rng, 2, 4), empty)
        with pytest.raises(EmptyText):
            build_alignment_context(empty)


class TestTokenDiversity:
    def test_orthonormal_pair(self):
        np.testing.assert_allclose(
            token_diversity_fast(matrix([E1, E2])), [1.0, 1.0], atol=1e-6
        )

    def test_duplicate_plus_outlier(self):
        v = token_diversity_fast(matrix([E1, E1, E2]))
        np.testing.assert_allclose(v, [0.5, 0.5, 1.0], atol=1e-6)

    def test_identical_rows_zero(self):
        rng = np.random.default_rng(25)
        row = rng.standard_normal(6)
        m = build_token_matrix(10, 6, np.tile(row, 10))
        np.testing.assert_allclose(token_diversity_fast(m), np.zeros(10), atol=1e-6)

    def test_too_few(self):
        with pytest.raises(TooFewTokens):
            token_diversity_fast(matrix([E1]))
        with pytest.raises(TooFewTokens):
            token_diversity_naive(matrix([E1]))

    def test_fast_matches_naive_randomly(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 90))
            m = random_matrix(rng, n, int(rng.integers(2, 32)))
            naive = token_diversity_naive(m)
            fast = token_diversity_fast(m)
            tol = 1e-6 * np.maximum(1.0, np.abs(naive))
            assert np.all(np.abs(fast - naive) <= tol)


class TestChunkedScoring:
    """The per-token scores widen the candidates a few rows at a time and
    still return the values of the whole-matrix float64 formulas."""

    @pytest.mark.parametrize(
        "n, dim",
        # 32 rows a chunk at dim 1024, 512 at dim 64 and 672 at dim 48
        [(1, 1024), (2, 1024), (31, 1024), (32, 1024), (33, 1024), (65, 1024),
         (252, 1024), (513, 64), (1345, 48)],
    )
    def test_scores_equal_the_whole_matrix_formulas_bit_for_bit(self, n, dim):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, dim)) + 0.3 * rng.standard_normal(dim)
        cand = build_token_matrix(n, dim, rows.ravel())
        ctx = build_alignment_context(random_matrix(rng, 32, dim))
        want_a = -cand.norms_sq - ctx.c_t + 2.0 * (cand.data @ ctx.mu_t)
        assert np.array_equal(
            alignment_fast(cand, ctx).view(np.uint64), want_a.view(np.uint64)
        )
        if n >= 2:
            unit = cand.unit64()
            want_v = (n - unit @ unit.sum(axis=0)) / (n - 1)
            assert np.array_equal(
                token_diversity_fast(cand).view(np.uint64), want_v.view(np.uint64)
            )

    def test_scoring_stays_below_one_float32_copy(self):
        """Each score of 252 x 1024 candidates peaks under one float32 copy
        of them (1.03 MB); one float64 copy is 2.06 MB."""
        rng = np.random.default_rng(27)
        cand = random_matrix(rng, 252, 1024)
        ctx = build_alignment_context(random_matrix(rng, 32, 1024))
        calls = ((token_diversity_fast, (cand,)), (alignment_fast, (cand, ctx)))
        for score, args in calls:
            tracemalloc.start()
            try:
                score(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 252 * 1024 * 4


class TestWideningOnce:
    """Each stored value is widened to float64 once per request: by the
    bundle's build, which leaves the sums the signals read."""

    @staticmethod
    def spy_on_widening(monkeypatch):
        calls = []
        real = types._widen

        def spy(data, ends, *ready):
            calls.append((data.shape[0], ends))
            return real(data, ends, *ready)

        monkeypatch.setattr(types, "_widen", spy)
        monkeypatch.setattr(io_formats, "_widen", spy)
        return calls

    def test_one_pass_per_build_and_none_in_the_signals(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(3, 40, 16, seed=5, clusters=4, noise=0.3, text_tokens=5)
        path = tmp_path / "b.ttb"
        write_bundle(generate_synthetic(spec), path)
        calls = self.spy_on_widening(monkeypatch)
        bundle = read_bundle(path)
        assert calls == [(125, (40, 80, 120, 125))]
        for variant in ("global_mean", "position_wise"):
            analyze(bundle, PruneConfig(inter_variant=variant))
        assert len(calls) == 1
        calls.clear()
        generate_synthetic(spec)
        make_bundle(bundle.images, bundle.text)
        assert calls == [(125, (40, 80, 120, 125))] * 2

    def test_signals_read_the_carried_sums(self):
        """intra reads the unit-row sum and inter the raw-row sum over the
        count; both agree with float64 sums of the widened rows."""
        rng = np.random.default_rng(19)
        b = make_bundle(
            [random_matrix(rng, n, 7) for n in (1, 33, 64, 5)], random_matrix(rng, 3, 7)
        )
        means = []
        for img in b.images:
            wide = img.data.astype(np.float64)
            s = (wide / np.sqrt(img.norms_sq)[:, None]).sum(axis=0)
            n = img.rows
            want = 0.0 if n < 2 else (n * (n - 1) - (s @ s - n)) / (n * (n - 1))
            assert intra_diversity_fast(img) == pytest.approx(want, rel=1e-12, abs=1e-12)
            mu = wide.mean(axis=0)
            means.append(mu / np.linalg.norm(mu))
        want = [1.0 - a @ b_ for a, b_ in zip(means[1:], means)]
        np.testing.assert_allclose(inter_variation_steps(b), want, rtol=1e-12, atol=1e-15)

    def test_gathered_rows_take_their_sums_from_the_same_pass(self):
        rng = np.random.default_rng(20)
        m = random_matrix(rng, 70, 9)
        picked = [5, 64, 2, 33, 40]
        alone = build_token_matrix(5, 9, m.data[picked])
        np.testing.assert_array_equal(m.gather(picked).row_sums(), alone.row_sums())
        assert intra_diversity_fast(m.gather(picked)) == intra_diversity_fast(alone)
