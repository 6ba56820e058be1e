"""Container construction, validation and budget resolution."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tokentrim import (
    PruneConfig,
    TokenBundle,
    TokenMatrix,
    build_token_matrix,
    make_bundle,
)
from tokentrim.errors import (
    BadConfig,
    DimMismatch,
    EmptyText,
    NonFiniteRow,
    ShapeMismatch,
    ZeroNormRow,
)
from tokentrim.types import resolve_config, round_half_away


def random_matrix(rng, rows, dim):
    return build_token_matrix(rows, dim, rng.standard_normal(rows * dim))


class TestRoundHalfAway:
    def test_half_cases(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.5) == 3
        assert round_half_away(-0.5) == -1
        assert round_half_away(-2.5) == -3

    def test_non_half_cases(self):
        assert round_half_away(2.4) == 2
        assert round_half_away(2.6) == 3
        assert round_half_away(0.0) == 0


class TestBuildTokenMatrix:
    def test_orthonormal_rows(self):
        m = build_token_matrix(2, 2, [1, 0, 0, 1])
        np.testing.assert_array_equal(m.norms_sq, [1.0, 1.0])
        np.testing.assert_array_equal(m.data, [[1, 0], [0, 1]])

    def test_three_four_five(self):
        m = build_token_matrix(1, 3, [3, 0, 4])
        assert m.norms_sq[0] == pytest.approx(25.0)
        np.testing.assert_allclose(m.unit64()[0], [0.6, 0.0, 0.8], rtol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroNormRow) as err:
            build_token_matrix(1, 2, [0, 0])
        assert err.value.index == 0

    def test_zero_row_index_reported(self):
        with pytest.raises(ZeroNormRow) as err:
            build_token_matrix(3, 2, [1, 0, 0, 0, 0, 1])
        assert err.value.index == 1

    def test_non_finite_row_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteRow) as err:
                build_token_matrix(3, 2, [1, 0, 0, 1, bad, 1])
            assert err.value.index == 2

    def test_first_bad_row_wins(self):
        with pytest.raises(NonFiniteRow) as err:
            build_token_matrix(3, 2, [1, 0, np.nan, 1, 0, 0])
        assert err.value.index == 1
        with pytest.raises(ZeroNormRow) as err:
            build_token_matrix(3, 2, [1, 0, 0, 0, np.nan, 1])
        assert err.value.index == 1

    def test_bad_row_in_a_later_block(self):
        values = np.ones((2500, 3), dtype=np.float32)
        values[2100, 1] = np.nan
        with pytest.raises(NonFiniteRow) as err:
            build_token_matrix(2500, 3, values)
        assert err.value.index == 2100

    def test_huge_finite_rows_accepted(self):
        big = float(np.finfo(np.float32).max)
        m = build_token_matrix(1, 4, [big, -big, big, big])
        assert np.isfinite(m.norms_sq[0])

    def test_blocked_build_matches_whole_matrix(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((2500, 7)).astype(np.float32)
        m = build_token_matrix(2500, 7, values)
        wide = values.astype(np.float64)
        norms_sq = np.einsum("ij,ij->i", wide, wide)
        np.testing.assert_array_equal(m.norms_sq, norms_sq)
        np.testing.assert_array_equal(m.unit64(), wide / np.sqrt(norms_sq)[:, None])

    def test_copies_every_caller_buffer(self):
        """The matrix never shares a caller's values: a writable array and
        one over ``bytes`` are both copied."""
        values = np.array([1, 2, 3, 4], dtype=np.float32)
        copied = build_token_matrix(2, 2, values)
        values[0] = 9
        assert copied.data[0, 0] == 1
        frozen = np.frombuffer(values.tobytes(), dtype=np.float32)
        assert not np.shares_memory(build_token_matrix(2, 2, frozen).data, frozen)

    def test_one_float32_copy_of_a_float64_input(self):
        """A float64 input is converted straight into the matrix's float32
        rows: the build's peak is that one copy (2.36 MB at 576x1024) plus
        the widening pass's small buffers, not a second float32 copy."""
        values = np.random.default_rng(3).standard_normal((576, 1024))
        tracemalloc.start()
        try:
            build_token_matrix(576, 1024, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_read_only_arrays_are_copied(self):
        """Whoever holds a read-only array that owns its memory, or an array
        it views, can make it writable again, so the matrix copies it:
        later writes leave its rows and their norms as built."""
        for size, view in ((4, slice(None)), (8, slice(2, 6))):
            owner = np.ones(size, np.float32)
            owner.setflags(write=False)
            m = build_token_matrix(2, 2, owner[view])
            owner.setflags(write=True)
            owner[:] = 100
            np.testing.assert_array_equal(m.data, np.ones((2, 2)))
            np.testing.assert_array_equal(m.norms_sq, [2, 2])

    def test_gather_reuses_cached_rows(self):
        rng = np.random.default_rng(14)
        m = random_matrix(rng, 9, 5)
        g = m.gather([7, 2, 2])
        for got, want in ((g.data, m.data), (g.norms_sq, m.norms_sq)):
            np.testing.assert_array_equal(got, want[[7, 2, 2]])
            assert not got.flags.writeable
        np.testing.assert_array_equal(g.unit64(), m.unit64()[[7, 2, 2]])

    def test_wrong_length(self):
        with pytest.raises(ShapeMismatch):
            build_token_matrix(2, 3, [1, 2, 3, 4])

    def test_bad_dim(self):
        with pytest.raises(ShapeMismatch):
            build_token_matrix(1, 0, [])

    def test_empty_matrix_allowed(self):
        """Zero rows is legal (text matrices may be empty for diagnostics)."""
        m = build_token_matrix(0, 4, [])
        assert m.rows == 0 and m.dim == 4

    def test_dim_is_capped_at_what_ttb1_stores(self):
        """An empty matrix's zero sums take no memory at any legal dim; a dim
        beyond a TTB1 header's u32 raises ShapeMismatch, not numpy's
        ValueError."""
        m = build_token_matrix(0, 2**32 - 1, [])
        assert m.row_sums().shape == (2, 2**32 - 1) and m.row_sums().strides[-1] == 0
        for dim in (2**32, 2**62, 10**30):
            with pytest.raises(ShapeMismatch, match="dim must be <= 4294967295"):
                build_token_matrix(0, dim, [])

    def test_values_beyond_float32_are_non_finite_rows(self):
        """A float64 value beyond float32's range is stored as inf, so its
        row raises NonFiniteRow, with no overflow RuntimeWarning."""
        with pytest.raises(NonFiniteRow) as err:
            build_token_matrix(2, 2, np.array([1.0, 2.0, 1e300, 1.0]))
        assert err.value.index == 1

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 64))
            values = rng.standard_normal(rows * dim).astype(np.float32)
            m = build_token_matrix(rows, dim, values)
            np.testing.assert_array_equal(m.data.ravel(), values)

    def test_cached_views_consistent(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = random_matrix(rng, int(rng.integers(1, 60)), int(rng.integers(2, 80)))
            wide = m.data.astype(np.float64)
            np.testing.assert_allclose(
                m.norms_sq, np.einsum("ij,ij->i", wide, wide), rtol=1e-6
            )
            unit_norms = np.linalg.norm(m.unit64(), axis=1)
            assert np.all(np.abs(unit_norms - 1.0) <= 1e-12)

    def test_direct_construction_is_refused(self):
        """Selection's certified bounds trust ``norms_sq``, so a matrix
        whose norms did not come from the build's widening pass cannot be
        made: a direct call, dataclasses.replace included, raises."""
        m = build_token_matrix(2, 2, [1, 2, 3, 4])
        forgeries = (
            lambda: TokenMatrix(m.data, m.norms_sq),
            lambda: TokenMatrix(m.data, m.norms_sq * 4, (2,), None),
            lambda: TokenMatrix(m.data.astype(np.float64), m.norms_sq),
            lambda: TokenMatrix("ab", None),
            lambda: dataclasses.replace(m, norms_sq=m.norms_sq * 4),
        )
        for forge in forgeries:
            with pytest.raises(ShapeMismatch, match="made by build_token_matrix"):
                forge()

    def test_arrays_read_only(self):
        m = build_token_matrix(1, 2, [1, 2])
        for arr in (m.data, m.norms_sq):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestTokenBundle:
    def test_basic_accessors(self):
        rng = np.random.default_rng(0)
        b = make_bundle(
            [random_matrix(rng, 3, 4), random_matrix(rng, 5, 4)],
            random_matrix(rng, 2, 4),
        )
        assert b.n_images == 2
        assert b.total_tokens == 8
        assert b.offsets == (0, 3)
        assert b.dim == 4

    def test_images_and_text_are_views_of_rows(self):
        rng = np.random.default_rng(5)
        imgs = [random_matrix(rng, 3, 4), random_matrix(rng, 5, 4)]
        text = random_matrix(rng, 2, 4)
        b = make_bundle(imgs, text)
        assert b.rows.rows == 10 and b.counts == (3, 5)
        for view, src in zip((*b.images, b.text), (*imgs, text)):
            assert np.shares_memory(view.data, b.rows.data)
            np.testing.assert_array_equal(view.data, src.data)
            np.testing.assert_array_equal(view.norms_sq, src.norms_sq)
            np.testing.assert_array_equal(view.unit64(), src.unit64())

    def test_counts_must_fit_rows(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeMismatch):
            TokenBundle(random_matrix(rng, 4, 2), (2, 3))
        with pytest.raises(ShapeMismatch):
            TokenBundle(random_matrix(rng, 4, 2), (2, 0))
        b = TokenBundle(random_matrix(rng, 4, 2), (1, 2))
        assert b.total_tokens == 3 and b.text.rows == 1

    def test_counts_must_be_integers(self):
        rng = np.random.default_rng(7)
        rows = random_matrix(rng, 5, 2)
        for counts in ((2.5, 2), (True, 2), ("2", 2), (2, 2.0)):
            with pytest.raises(ShapeMismatch):
                TokenBundle(rows, counts)
        b = TokenBundle(rows, (np.int64(2), np.int32(2)))
        assert b.counts == (2, 2) and b.text.rows == 1
        assert all(type(m) is int for m in b.counts)
        for n_rows, dim in ((True, 4), (1, 4.0), (1.0, 4), (1, "4")):
            with pytest.raises(ShapeMismatch):
                build_token_matrix(n_rows, dim, np.ones(4))

    def test_arguments_of_the_wrong_kind(self):
        """Rows that are not a TokenMatrix, counts that are not iterable and
        values that are not real numbers raise ShapeMismatch, not a raw
        Python or numpy error."""
        rows = random_matrix(np.random.default_rng(8), 5, 2)
        calls = (
            lambda: TokenBundle(rows, 3),
            lambda: TokenBundle(np.ones((5, 2)), (2,)),
            lambda: TokenBundle(rows.data, (2,)),
            lambda: build_token_matrix(1, 2, "ab"),
            lambda: build_token_matrix(1, 2, ["1", "2"]),
            lambda: build_token_matrix(2, 2, [[1, 2], [3]]),
            lambda: build_token_matrix(1, 2, [1 + 1j, 2]),
            lambda: build_token_matrix(1, 2, None),
        )
        for call in calls:
            with pytest.raises(ShapeMismatch):
                call()
        assert TokenBundle(rows, np.array([2, 3])).counts == (2, 3)
        assert TokenBundle(rows, [4]).counts == (4,)
        matrix = build_token_matrix(1, 2, [True, 2])
        np.testing.assert_array_equal(matrix.data, [[1, 2]])

    def test_make_bundle_arguments_of_the_wrong_kind(self):
        """Images that are not an iterable of TokenMatrix, or text that is
        not a TokenMatrix, raise ShapeMismatch, not a raw Python error."""
        rng = np.random.default_rng(9)
        img, text = random_matrix(rng, 3, 2), random_matrix(rng, 2, 2)
        calls = (
            lambda: make_bundle(5, text),
            lambda: make_bundle(None, text),
            lambda: make_bundle([img], "text"),
            lambda: make_bundle([img], text.data),
            lambda: make_bundle([img, img.data], text),
            lambda: make_bundle("ab", text),
        )
        for call in calls:
            with pytest.raises(ShapeMismatch, match="must be of type"):
                call()

    def test_zero_dimensional_counts_and_images(self):
        """A 0-d array is not iterable: as counts or as images it raises
        ShapeMismatch, not numpy's TypeError."""
        rng = np.random.default_rng(10)
        rows = random_matrix(rng, 3, 2)
        with pytest.raises(ShapeMismatch, match="counts must be of type Iterable"):
            TokenBundle(rows, np.array(3))
        with pytest.raises(ShapeMismatch, match="images must be of type Iterable"):
            make_bundle(np.array(3), rows)

    def test_views_carry_their_segment_sums(self):
        """Each view's sums are its own rows' (unit-row sum, raw-row sum),
        read-only, whether the rows were built with the bundle's segments
        or split here from one segment."""
        rng = np.random.default_rng(11)
        values = rng.standard_normal((40, 3)).astype(np.float32)
        whole = build_token_matrix(40, 3, values)
        spans = ((0, 33), (33, 38), (38, 40))
        parts = [whole.gather(slice(lo, hi)) for lo, hi in spans]
        for b in (make_bundle(parts[:2], parts[2]), TokenBundle(whole, (33, 5))):
            for view, (lo, hi) in zip((*b.images, b.text), spans):
                wide = values[lo:hi].astype(np.float64)
                unit = wide / np.linalg.norm(wide, axis=1, keepdims=True)
                sums = view.row_sums()
                np.testing.assert_allclose(sums[0], unit.sum(axis=0), rtol=1e-12)
                np.testing.assert_allclose(sums[1], wide.sum(axis=0), rtol=1e-12)
                assert not sums.flags.writeable

    def test_rejects_no_images(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeMismatch):
            make_bundle([], random_matrix(rng, 1, 4))

    def test_rejects_empty_image(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeMismatch):
            make_bundle(
                [build_token_matrix(0, 4, [])], random_matrix(rng, 1, 4)
            )

    def test_rejects_dim_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimMismatch):
            make_bundle(
                [random_matrix(rng, 2, 4), random_matrix(rng, 2, 5)],
                random_matrix(rng, 1, 4),
            )
        with pytest.raises(DimMismatch):
            make_bundle([random_matrix(rng, 2, 4)], random_matrix(rng, 1, 3))

    def test_empty_text_allowed(self):
        rng = np.random.default_rng(4)
        b = make_bundle([random_matrix(rng, 2, 4)], build_token_matrix(0, 4, []))
        assert b.text.rows == 0


class TestPruneConfig:
    def test_defaults(self):
        cfg = PruneConfig()
        assert (cfg.m_min, cfg.m_max, cfg.lam, cfg.m2) == (294, 454, 0.5, 252)
        assert cfg.retention_ratio == 0.2 and cfg.final_tokens is None
        assert cfg.last_image_rule
        assert cfg.inter_variant == "global_mean"
        assert cfg.greedy_objective == "sum_distance"

    def test_rejects_bad_ordering(self):
        with pytest.raises(BadConfig):
            PruneConfig(m_min=454, m_max=294)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(BadConfig):
            PruneConfig(lam=0.0)
        with pytest.raises(BadConfig):
            PruneConfig(lam=-1.0)

    def test_exactly_one_final_budget(self):
        with pytest.raises(BadConfig):
            PruneConfig(final_tokens=10, retention_ratio=0.5)
        with pytest.raises(BadConfig):
            PruneConfig(final_tokens=None, retention_ratio=None)
        assert PruneConfig(final_tokens=10, retention_ratio=None).final_tokens == 10

    def test_unset_ratio_follows_final_budget(self):
        assert PruneConfig().retention_ratio == 0.2
        assert PruneConfig().final_tokens is None
        cfg = PruneConfig(final_tokens=64)
        assert (cfg.final_tokens, cfg.retention_ratio) == (64, None)
        with pytest.raises(BadConfig):
            PruneConfig(final_tokens=64, retention_ratio=0.2)

    def test_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BadConfig):
                PruneConfig(retention_ratio=bad)

    def test_rejects_unknown_variants(self):
        with pytest.raises(BadConfig):
            PruneConfig(inter_variant="pairwise")
        with pytest.raises(BadConfig):
            PruneConfig(greedy_objective="max_sum")

    def test_rejects_bad_counts(self):
        with pytest.raises(BadConfig):
            PruneConfig(m2=0)
        with pytest.raises(BadConfig):
            PruneConfig(final_tokens=0, retention_ratio=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"final_tokens": 10.5, "retention_ratio": None},
            {"m2": 7.5},
            {"m_min": True, "m_max": 30},
            {"lam": "0.5"},
            {"lam": True},
            {"lam": math.inf},
            {"lam": math.nan},
            {"lam": 10**400},
            {"retention_ratio": "0.2"},
            {"last_image_rule": "no"},
            {"align_on_normalized": 1},
            {"inter_variant": None},
        ],
    )
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises(BadConfig):
            PruneConfig(**kwargs)

    def test_numpy_numbers_become_builtins(self):
        cfg = PruneConfig(m_min=np.int64(3), m_max=np.int32(9), lam=np.float32(0.5))
        assert (cfg.m_min, cfg.m_max, cfg.lam) == (3, 9, 0.5)
        assert (type(cfg.m_min), type(cfg.m_max), type(cfg.lam)) == (int, int, float)


def bundle_with_tokens(rng, total, dim=8, n_images=3):
    """Bundle with a prescribed total token count split across images."""
    extra = rng.multinomial(total - n_images, [1.0 / n_images] * n_images)
    images = [random_matrix(rng, 1 + int(c), dim) for c in extra]
    return make_bundle(images, random_matrix(rng, 4, dim))


class TestResolveConfig:
    def test_large_bundle_no_clamps_bind(self):
        """At M_0 = 5760 no clamp binds and the ratio budget caps at m2."""
        rng = np.random.default_rng(5)
        b = bundle_with_tokens(rng, 5760, dim=4, n_images=4)
        r = resolve_config(PruneConfig(), b)
        assert (r.m_min, r.m_max, r.m2, r.m_final) == (294, 454, 252, 252)
        assert r.m0 == 5760

    def test_small_bundle_all_clamps_bind(self):
        rng = np.random.default_rng(6)
        b = bundle_with_tokens(rng, 100, dim=4, n_images=2)
        r = resolve_config(PruneConfig(), b)
        assert (r.m_min, r.m_max, r.m2) == (100, 100, 100)
        assert r.m_final == 20  # round(0.2 * 100)

    def test_absolute_final_budget(self):
        rng = np.random.default_rng(7)
        b = bundle_with_tokens(rng, 100, dim=4, n_images=2)
        r = resolve_config(PruneConfig(final_tokens=37, retention_ratio=None), b)
        assert r.m_final == 37
        r = resolve_config(PruneConfig(final_tokens=5000, retention_ratio=None), b)
        assert r.m_final == 100

    def test_final_budget_floor_of_one(self):
        rng = np.random.default_rng(8)
        b = bundle_with_tokens(rng, 3, dim=4, n_images=1)
        r = resolve_config(PruneConfig(retention_ratio=0.01), b)
        assert r.m_final == 1

    def test_empty_text_gate(self):
        rng = np.random.default_rng(9)
        b = make_bundle([random_matrix(rng, 4, 4)], build_token_matrix(0, 4, []))
        assert resolve_config(PruneConfig(), b).m0 == 4  # diagnostics fine
        with pytest.raises(EmptyText):
            resolve_config(PruneConfig(), b, require_text=True)

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            b = bundle_with_tokens(rng, int(rng.integers(3, 900)), n_images=3)
            cfg = PruneConfig(
                m_min=int(rng.integers(1, 400)),
                m_max=int(rng.integers(400, 700)),
                m2=int(rng.integers(1, 600)),
                final_tokens=int(rng.integers(1, 600)),
                retention_ratio=None,
            )
            r1 = resolve_config(cfg, b)
            again = PruneConfig(
                m_min=r1.m_min,
                m_max=r1.m_max,
                m2=r1.m2,
                final_tokens=r1.m_final,
                retention_ratio=None,
            )
            assert resolve_config(again, b) == r1

    def test_ordering_chain_random(self):
        """M_final' <= m2' <= m_min' <= m_max' <= M_0 on 10,000 random pairs."""
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            m0 = int(rng.integers(2, 2000))
            lo = int(rng.integers(1, 800))
            hi = lo + int(rng.integers(0, 800))
            if rng.random() < 0.5:
                cfg = PruneConfig(
                    m_min=lo,
                    m_max=hi,
                    m2=int(rng.integers(1, 900)),
                    final_tokens=int(rng.integers(1, 2200)),
                    retention_ratio=None,
                )
            else:
                cfg = PruneConfig(
                    m_min=lo,
                    m_max=hi,
                    m2=int(rng.integers(1, 900)),
                    final_tokens=None,
                    retention_ratio=float(rng.uniform(0.01, 0.99)),
                )
            b = bundle_with_tokens(np.random.default_rng(m0), m0, dim=2, n_images=2)
            r = resolve_config(cfg, b)
            assert 1 <= r.m_final <= r.m2 <= r.m_min <= r.m_max <= r.m0
            assert r.m0 == m0
