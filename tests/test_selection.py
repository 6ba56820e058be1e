"""Greedy dispersion selection and Pareto-front machinery."""

import tracemalloc

import numpy as np
import pytest

from tokentrim import build_token_matrix, selection
from tokentrim.bench import greedy_objective_value, pareto_front_naive
from tokentrim.errors import BadBudget, BadConfig, BadSubset
from tokentrim.io_formats import SyntheticSpec, generate_synthetic
from tokentrim.selection import (
    ParetoPoint,
    greedy_rep_max,
    pareto_budgeted,
    pareto_front_sortscan,
)
from tokentrim.types import TokenMatrix

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]
MID = [2**-0.5, 2**-0.5]
TRIO_DIVERSITY = 0.5285954792089683


def matrix(rows):
    flat = [x for row in rows for x in row]
    return build_token_matrix(len(rows), len(rows[0]), flat)


def random_matrix(rng, rows, dim):
    return build_token_matrix(rows, dim, rng.standard_normal(rows * dim))


def points_from(vs, avals):
    return [
        ParetoPoint(i, float(v), float(a)) for i, (v, a) in enumerate(zip(vs, avals))
    ]


def brute_force_farthest_pair(m):
    """Lexicographically smallest max-distance pair, by full enumeration."""
    unit = m.unit64()
    best, best_pair = -np.inf, None
    for i in range(m.rows):
        for j in range(i + 1, m.rows):
            d = 1.0 - float(unit[i] @ unit[j])
            if d > best:
                best, best_pair = d, (i, j)
    return best_pair


def is_dominated(p, q):
    return q.v >= p.v and q.a >= p.a and (q.v > p.v or q.a > p.a)


def blockwise_greedy_oracle(tokens, k, objective):
    """greedy_rep_max written row by row: the seed scan masks each gram row
    in a Python loop, and each greedy step masks the selected tokens with a
    ``taken`` array and a fresh ``np.where`` copy.  Same row blocks and
    products, so it must agree bit for bit, ties included."""
    n = tokens.rows
    if k >= n:
        return list(range(n))
    unit = tokens.unit64()
    best, (i, j) = np.inf, (0, 1)
    for r0 in range(0, n - 1, 1024):
        block = unit[r0 : min(r0 + 1024, n - 1)]
        gram = block @ unit.T
        for li in range(block.shape[0]):
            gram[li, : r0 + li + 1] = np.inf
        flat = int(np.argmin(gram))
        value = float(gram.flat[flat])
        if value < best:
            best = value
            li, col = divmod(flat, n)
            i, j = r0 + li, col
    if k == 1:
        return [i]
    selected = [i, j]
    taken = np.zeros(n, dtype=bool)
    taken[[i, j]] = True
    if objective == "sum_distance":
        score = unit @ unit[i] + unit @ unit[j]
    else:
        score = np.maximum(unit @ unit[i], unit @ unit[j])
    while len(selected) < k:
        nxt = int(np.argmin(np.where(taken, np.inf, score)))
        selected.append(nxt)
        taken[nxt] = True
        step = unit @ unit[nxt]
        if objective == "sum_distance":
            score += step
        else:
            score = np.maximum(score, step)
    return sorted(selected)


class TestGreedyRepMax:
    def test_budget_at_least_rows_is_identity(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 7, 4)
        assert greedy_rep_max(m, 7) == list(range(7))
        assert greedy_rep_max(m, 50) == list(range(7))

    def test_bad_budget(self):
        rng = np.random.default_rng(1)
        with pytest.raises(BadBudget):
            greedy_rep_max(random_matrix(rng, 3, 4), 0)

    def test_non_integral_budget(self):
        m = random_matrix(np.random.default_rng(1), 5, 4)
        for k in (2.5, 2.0, True, "2"):
            with pytest.raises(BadBudget):
                greedy_rep_max(m, k)
        assert greedy_rep_max(m, np.int64(5)) == list(range(5))
        assert len(greedy_rep_max(m, np.int32(2))) == 2

    def test_unknown_objective(self):
        m = random_matrix(np.random.default_rng(1), 3, 4)
        for k in (2, 3, 50):  # also when k >= rows skips all arithmetic
            with pytest.raises(BadConfig, match="bogus"):
                greedy_rep_max(m, k, "bogus")

    def test_duplicate_tie_break(self):
        """Duplicate of e1 at index 1 loses the tie to index 0."""
        assert greedy_rep_max(matrix([E1, E1, E2]), 2) == [0, 2]

    def test_farthest_pair_beats_mid(self):
        assert greedy_rep_max(matrix([E1, E2, MID]), 2) == [0, 1]

    def test_k1_returns_lower_seed_index(self):
        assert greedy_rep_max(matrix([MID, E1, E2]), 1) == [1]

    def test_k2_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 64))
            m = random_matrix(rng, n, 6)
            assert tuple(greedy_rep_max(m, 2)) == brute_force_farthest_pair(m)

    def test_k2_matches_brute_force_larger(self):
        rng = np.random.default_rng(3)
        for n in (256, 1100):  # 1100 rows span two seed-scan blocks
            m = random_matrix(rng, n, 8)
            assert tuple(greedy_rep_max(m, 2)) == brute_force_farthest_pair(m)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 40, 8)
        first = greedy_rep_max(m, 9)
        assert all(greedy_rep_max(m, 9) == first for _ in range(5))

    def test_output_sorted_and_unique(self):
        rng = np.random.default_rng(5)
        for objective in ("sum_distance", "min_distance"):
            for _ in range(20):
                n = int(rng.integers(3, 50))
                k = int(rng.integers(1, n))
                got = greedy_rep_max(random_matrix(rng, n, 5), k, objective)
                assert got == sorted(set(got))
                assert len(got) == k

    def test_statistical_quality_floor(self):
        """Greedy is a heuristic, not an exact solver: at n <= 12 it lands
        below the enumerated optimum on a measurable share of instances, so
        the floor asserted here is statistical — always above the median
        random subset, never far below the best of 1,000 random draws, and
        near-optimal in aggregate."""
        rng = np.random.default_rng(6)
        percentile_sum = 0.0
        trials = 20
        for _ in range(trials):
            n = int(rng.integers(6, 13))
            k = int(rng.integers(3, min(7, n)))
            m = random_matrix(rng, n, 5)
            mine = greedy_objective_value(m, greedy_rep_max(m, k))
            samples = np.array(
                [
                    greedy_objective_value(m, rng.choice(n, size=k, replace=False))
                    for _ in range(1000)
                ]
            )
            assert mine >= np.median(samples)
            assert mine >= 0.85 * samples.max()
            percentile_sum += float((samples <= mine + 1e-12).mean())
        assert percentile_sum / trials >= 0.9

    def test_min_distance_variant_spreads(self):
        # three tight pairs of near-duplicates; max-min picks one per pair
        base = np.array([E1, E2, [-1.0, 0.0]])
        rows = np.repeat(base, 2, axis=0) + 1e-3 * np.arange(12).reshape(6, 2)
        m = build_token_matrix(6, 2, rows.ravel())
        got = greedy_rep_max(m, 3, objective="min_distance")
        assert len({i // 2 for i in got}) == 3

    def test_matches_blockwise_oracle(self):
        """Same selections as the row-by-row oracle, exact ties included.

        Copies of one row make every dot product equal in exact arithmetic,
        so only rounding picks the pair.  With 1032 rows the second seed
        block is a 7-row gemm tail, which rounds differently from the first
        block with OpenBLAS's Haswell kernels: a change of gemm shapes there
        moves the pair.
        """
        rng = np.random.default_rng(12)
        dim = 64
        one_row = np.random.default_rng(0).standard_normal((1, dim))
        for n in (2, 575, 1032, 1100, 1500):
            inputs = (
                rng.standard_normal((n, dim)),
                # 0/1 entries: many pairs share overlap and norms, so many
                # dot products are equal
                rng.integers(0, 2, (n, dim)).astype(np.float64),
                # every row an exact copy of one of five prototypes
                rng.standard_normal((5, dim))[rng.integers(0, 5, n)],
                np.repeat(one_row, n, axis=0),
            )
            for rows in inputs:
                m = build_token_matrix(n, dim, rows.ravel())
                for objective in ("sum_distance", "min_distance"):
                    for k in sorted({1, 2, 3, n // 4 + 1, n - 1}):
                        expected = blockwise_greedy_oracle(m, k, objective)
                        assert greedy_rep_max(m, k, objective) == expected


class TestSeedPairScan:
    def test_near_tie_below_float32_resolution(self):
        """Two near-antipodal pairs whose dot products differ by ~1e-9.

        Both round to exactly -1 in float32, where the first occurrence
        (0, 1) wins; in float64 the last pair is farther apart, by far more
        than float64 rounding, so the float64 check must pick it.
        """
        rng = np.random.default_rng(13)
        dim, n = 8, 300
        rows = rng.standard_normal((n, dim))
        rows[:2] = 0.0
        rows[0, 0], rows[1, :2] = 1.0, (-1.0, np.sqrt(4e-9))  # gap 2e-9
        rows[-2:] = 0.0
        rows[-2, 2], rows[-1, 2:4] = 1.0, (-1.0, np.sqrt(2e-9))  # gap 1e-9
        m = build_token_matrix(n, dim, rows.ravel())
        u32 = m.unit64().astype(np.float32)
        assert u32[0] @ u32[1] == u32[-2] @ u32[-1] == -1.0
        job = selection._Greedy(m, 2, "sum_distance")
        assert job.column(0)[1] == job.column(n - 2)[n - 1] == -1.0
        expected = brute_force_farthest_pair(m)
        assert expected == (n - 2, n - 1)
        for objective in ("sum_distance", "min_distance"):
            assert blockwise_greedy_oracle(m, 2, objective) == list(expected)
            assert greedy_rep_max(m, 2, objective) == list(expected)

    @pytest.mark.parametrize("seed", [2, 3, 22, 31, 46, 56, 75, 115])
    def test_float32_order_reversed(self, seed):
        """Six pairs (x, -x + noise) whose dot products lie within ~1e-9 of
        each other.  For most of these seeds the scaled float32 rows put
        the farthest pair one to four float32 steps above the smallest
        float32 value (measured with OpenBLAS; four for seed 115), so a
        filter keeping only the float32 minimum would miss it."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 8))
        scale = 3e-5 * np.linalg.norm(x, axis=1, keepdims=True)
        rows = np.stack([x, -x + scale * rng.standard_normal((6, 8))], axis=1)
        m = build_token_matrix(12, 8, rows.ravel())
        expected = brute_force_farthest_pair(m)
        assert blockwise_greedy_oracle(m, 2, "sum_distance") == list(expected)
        assert greedy_rep_max(m, 2) == list(expected)

    def test_noisy_image_is_certified(self):
        """On a noisy image the filter over the scaled float32 rows decides
        without the fallback."""
        spec = SyntheticSpec(
            n_images=2, tokens_per_image=576, dim=64, seed=0, clusters=16,
            noise=0.2, drift=0.1, text_tokens=4,
        )
        for img in generate_synthetic(spec).images:
            unit = img.unit64()
            job = selection._Greedy(img, 2, "sum_distance")
            for t in range(len(job.tiles)):
                job.reduce(t)
            found = selection._merge(job.parts, job.tol)
            pair = selection._certified_seed_pair(img, found)
            assert pair is not None
            assert pair == selection._exact_seed_pair(unit)

    def test_duplicate_rows_stay_within_memory(self):
        """Every pair of 2880 copies is a candidate: the cap must fall back
        before storing them (4.1M pairs would take ~80 MB)."""
        one_row = np.random.default_rng(0).standard_normal((1, 64))
        m = build_token_matrix(2880, 64, np.repeat(one_row, 2880, axis=0).ravel())
        tracemalloc.start()
        try:
            got = greedy_rep_max(m, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 35e6
        assert got == blockwise_greedy_oracle(m, 2, "sum_distance")


def seed_filter(m, order=None):
    """The streamed seed filter's merged candidates for m as pair tuples,
    its tiles reduced in ``order`` (default: tile order)."""
    job = selection._Greedy(m, 2, "sum_distance")
    assert job.gram is None and len(job.tiles) > 1
    for t in order or range(len(job.tiles)):
        job.reduce(t)
    found = selection._merge(job.parts, job.tol)
    return found and list(zip(found[0].tolist(), found[1].tolist()))


class TestSeedFilterTiles:
    """The streamed seed filter cut into 8 x 12 tiles: on 40 rows, row
    blocks start at 0, 8, .., 32 and their columns are cut at 10, 20, 30
    (rows 0-7), 18, 29 (rows 8-15), ..."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(selection, "_TILE_ROWS", 8)
        monkeypatch.setattr(selection, "_TILE_COLS", 12)

    def test_tiles_cover_the_upper_triangle_once(self):
        for n in (2, 3, 9, 40, 41, 100):
            covered = np.zeros((n, n), dtype=int)
            for r0, rows, c0, cols in selection._tiles(n):
                assert 1 <= rows <= 8 and 1 <= cols <= 12
                i, j = np.ogrid[r0 : r0 + rows, c0 : c0 + cols]
                covered[r0 : r0 + rows, c0 : c0 + cols] += j > i
            assert np.array_equal(covered, np.triu(np.ones((n, n), dtype=int), 1))

    @pytest.mark.parametrize("pair", [(7, 10), (8, 9), (7, 8), (15, 29), (31, 39)])
    def test_farthest_pair_on_tile_boundaries(self, monkeypatch, pair):
        """The farthest pair's row ends a row block and its column starts
        or ends a column span: the tiles certify it without the fallback."""
        i, j = pair
        rng = np.random.default_rng(i * 40 + j)
        rows = rng.standard_normal((40, 4)) + 3.0  # all in one orthant
        rows[j] = -rows[i] + 0.01 * rng.standard_normal(4)
        m = build_token_matrix(40, 4, rows.ravel())
        assert brute_force_farthest_pair(m) == pair
        assert selection._exact_seed_pair(m.unit64()) == pair
        assert pair in seed_filter(m)
        monkeypatch.setattr(TokenMatrix, "unit64", no_widening)
        for objective in ("sum_distance", "min_distance"):
            assert greedy_rep_max(m, 2, objective) == list(pair)

    def test_near_ties_in_different_tiles(self, monkeypatch):
        """TestSeedPairScan's two near-antipodal pairs, 1e-9 apart, one in
        the first tile and one in the last: both survive the merge and the
        float64 check picks the farther."""
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((40, 8))
        rows[[1, 2, 37, 39]] = 0.0
        rows[1, 0], rows[2, :2] = 1.0, (-1.0, np.sqrt(4e-9))  # gap 2e-9
        rows[37, 2], rows[39, 2:4] = 1.0, (-1.0, np.sqrt(2e-9))  # gap 1e-9
        m = build_token_matrix(40, 8, rows.ravel())
        assert brute_force_farthest_pair(m) == (37, 39)
        assert {(1, 2), (37, 39)} <= set(seed_filter(m))
        monkeypatch.setattr(TokenMatrix, "unit64", no_widening)
        assert greedy_rep_max(m, 2) == [37, 39]

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_duplicate_rows_across_tiles(self, objective):
        """Copies of a few rows in every tile tie exactly: the float64
        computation decides, as the oracle does."""
        rng = np.random.default_rng(21)
        for prototypes in (1, 2, 3, 5):
            rows = rng.standard_normal((prototypes, 6))[rng.integers(0, prototypes, 40)]
            m = build_token_matrix(40, 6, rows.ravel())
            for k in (1, 2, 3, 7, 39):
                want = blockwise_greedy_oracle(m, k, objective)
                assert greedy_rep_max(m, k, objective) == want
        # one row and two copies of its opposite, in different column spans
        rows = rng.standard_normal((40, 6)) + 3.0
        rows[25] = rows[11] = -rows[3]
        m = build_token_matrix(40, 6, rows.ravel())
        assert {(3, 11), (3, 25)} <= set(seed_filter(m))
        want = blockwise_greedy_oracle(m, 2, objective)
        assert greedy_rep_max(m, 2, objective) == want

    def test_reduction_order_does_not_matter(self):
        rng = np.random.default_rng(22)
        for rows in (
            rng.standard_normal((40, 4)),
            rng.integers(-1, 2, (40, 4)).astype(np.float64) + np.eye(40, 4),
        ):
            m = build_token_matrix(40, 4, rows.ravel())
            tiles = range(len(selection._tiles(40)))
            forward = seed_filter(m)
            assert seed_filter(m, reversed(tiles)) == forward
            assert seed_filter(m, rng.permutation(tiles).tolist()) == forward


def oracle_order(tokens, k, objective):
    """The oracle's first k choices in the order it makes them."""
    order = blockwise_greedy_oracle(tokens, 2, objective)
    for t in range(3, k + 1):
        step = set(blockwise_greedy_oracle(tokens, t, objective)) - set(order)
        order.append(step.pop())
    return order


def float32_score(tokens, chosen, objective):
    """The float32 score greedy_rep_max keeps after choosing ``chosen``."""
    combine = np.add if objective == "sum_distance" else np.maximum
    column = selection._Greedy(tokens, 2, objective).column
    score = combine(column(chosen[0]), column(chosen[1]))
    for c in chosen[2:]:
        combine(score, column(c), out=score)
    score[chosen] = np.inf
    return score


def no_widening(self):
    raise AssertionError("the certified path built a float64 copy of the image")


def step_near_ties(monkeypatch, objective, dim):
    """Six 41-row images of the given dim, each with two rows whose float64
    scores at the fifth step differ by about 1e-9, far below float32
    resolution; returns how many of them the float32 score ranks wrong.

    The oracle's fifth choice p is replaced by two copies with a tiny
    component on an axis no other row uses: p keeps the one that scores
    worse in float64, and the better one is appended last.  Where the
    float32 score ranks p first, trusting the float32 argmin picks the
    wrong row; each selection must be the oracle's without the fallback.
    """
    n, step = 40, 5
    float32_wrong = 0
    for seed in range(6):
        rows = np.zeros((n + 1, dim))
        rows[:n, :-2] = np.random.default_rng(seed).standard_normal((n, dim - 2))
        m = build_token_matrix(n, dim, rows[:n].ravel())
        order = oracle_order(m, step, objective)
        p, prior = order[-1], order[:-1]
        unit = m.unit64()
        combine = np.add if objective == "sum_distance" else np.maximum
        # a tilt t scales p's score by 1/sqrt(1 + t**2), so when the
        # score is negative the larger tilt scores worse
        negative = combine.reduce(unit[prior] @ unit[p]) < 0
        worse, better = (4e-9, 2e-9) if negative else (2e-9, 4e-9)
        norm = np.linalg.norm(rows[p])
        rows[n] = rows[p]
        rows[p, -2] = np.sqrt(worse) * norm
        rows[n, -1] = np.sqrt(better) * norm
        m = build_token_matrix(n + 1, dim, rows.ravel())
        assert oracle_order(m, step, objective) == [*prior, n]
        score = float32_score(m, prior, objective)
        float32_wrong += bool(score[p] <= score[n])
        expected = {
            k: blockwise_greedy_oracle(m, k, objective) for k in (step, step + 4)
        }
        with monkeypatch.context() as patch:
            patch.setattr(TokenMatrix, "unit64", no_widening)
            for k, want in expected.items():
                assert greedy_rep_max(m, k, objective) == want
    return float32_wrong


class TestCertifiedGreedyLoop:
    def test_rows_round_from_float64_unit_rows(self):
        """Each scale is one float32 rounding of the reciprocal norm that
        ``unit64()`` divides by, every dot product read from either form of
        the float32 source (streamed tiles and columns, or the kept gram)
        lies within eps of the float64 unit rows' one, and float64 rows of
        a few indices are exactly those rows, even for rows whose norm is
        far from 1.  Norms up to 1e30 are above the 2**63 guard, so there
        the same construction has no float32 source."""

        def construction(top):
            rng = np.random.default_rng(14)
            scales = 10.0 ** rng.integers(-10, top, (300, 1))
            rows = rng.standard_normal((300, 24)) * scales
            rows[0, :12] *= 1e-30  # unit entries far below the others
            rows[0, 12:18] *= 1e-40  # unit entries subnormal in float32
            return build_token_matrix(300, 24, rows.ravel())

        assert selection._Greedy(construction(30), 2, "sum_distance").scale is None
        m = construction(18)
        assert 2.0**55 < np.sqrt(m.norms_sq).max() < 2.0**63
        unit = m.unit64()
        streamed = selection._Greedy(m, 2, "sum_distance")
        assert streamed.gram is None  # 300 rows > 24 dims
        kept = selection._Greedy(m, 2, "sum_distance")
        kept.gram = selection._scaled_gram(m.data, kept.scale)
        u = 2.0**-24
        recip = 1 / np.sqrt(m.norms_sq)
        assert np.all(np.abs(streamed.scale - recip) <= u * recip)
        # eps exactly as the module docstring derives it, for both forms
        s = max(1.0, float(streamed.scale.max()))
        gamma = 24 * u / (1 - 24 * u)
        eps = 1.01 * (5 * u + gamma * (1 + 5 * u) + 24 * s**2 * 2.0**-148)
        for job in (streamed, kept):
            assert job.eps == eps
        # eps for the source, delta for the float64 gram it is compared with
        bound = eps + selection._delta(24)
        gram = unit @ unit.T
        tiles = ((0, 299, 0, 300), (256, 43, 256, 44), (0, 40, 30, 9))
        for r0, rows, c0, cols in tiles:
            tile = selection._tile(m.data, streamed.scale, r0, rows, c0, cols)
            i, j = np.ogrid[r0 : r0 + rows, c0 : c0 + cols]
            below = j <= i
            assert np.array_equal(np.isposinf(tile), below)
            error = np.abs(tile - gram[r0 : r0 + rows, c0 : c0 + cols])
            assert np.all(error[~below] <= bound)
        off = ~np.eye(300, dtype=bool)
        assert np.all(np.abs(kept.gram - gram)[off] <= bound)
        assert np.all(np.isposinf(np.diag(kept.gram)))
        for job in (streamed, kept):
            for i in (0, 1, 150, 299):
                error = np.abs(job.column(i) - gram[i])
                assert np.all(np.delete(error, i) <= bound)
        idx = [299, 3, 3, 150]
        assert np.array_equal(
            selection._unit64_rows(m, idx).view(np.uint64), unit[idx].view(np.uint64)
        )

    def test_huge_norms_take_the_float64_path(self, monkeypatch):
        """A row norm of 2**63 or more could take a raw float32 dot product
        out of range (and above 2**126 its float32 scale is subnormal), so
        such an image has no float32 source, streamed or kept, and the
        float64 computation selects it."""
        calls = []
        exact_seed_pair = selection._exact_seed_pair

        def spy(unit):
            calls.append(unit.shape)
            return exact_seed_pair(unit)

        monkeypatch.setattr(selection, "_exact_seed_pair", spy)
        rng = np.random.default_rng(15)
        for n, dim in ((40, 8), (30, 40)):
            for power in (126, 64):
                rows = rng.standard_normal((n, dim))
                rows[::3] *= 2.0**power  # norms near 2**power .. 2**(power + 2)
                m = build_token_matrix(n, dim, rows.ravel())
                assert np.sqrt(m.norms_sq).max() >= 2.0**63
                assert selection._Greedy(m, 2, "sum_distance").scale is None
                for objective in ("sum_distance", "min_distance"):
                    for k in (2, 3, 9, n - 1):
                        calls.clear()
                        got = greedy_rep_max(m, k, objective)
                        assert got == blockwise_greedy_oracle(m, k, objective)
                        assert calls == [(n, dim)]

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_near_tie_below_float32_resolution(self, monkeypatch, objective):
        """At the fifth step, two rows whose float64 scores differ by about
        1e-9, far below float32 resolution (see :func:`step_near_ties`):
        the float64 recheck must decide it without the fallback."""
        assert step_near_ties(monkeypatch, objective, dim=8) >= 1

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_tie_at_later_step_replays_float64(self, monkeypatch, objective):
        """Rows (h, h) are fixed by swapping the two halves of the
        coordinates, so each row (x, y) ties in exact arithmetic with its
        swap (y, x) at every step.  Rows 0 and 1 are clearly the farthest
        pair, so the seed certifies; the first tied step must hand the
        selection to the float64 loop, which replays the score."""
        replayed_at = []
        float64_steps = selection._float64_steps

        def spy(unit, selected, k, combine):
            replayed_at.append(len(selected))
            float64_steps(unit, selected, k, combine)

        def exact_seed_pair(unit):
            raise AssertionError("the seed pair was not certified")

        monkeypatch.setattr(selection, "_float64_steps", spy)
        monkeypatch.setattr(selection, "_exact_seed_pair", exact_seed_pair)
        half, deepest = 32, 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            h = rng.standard_normal((12, half))
            h[1] = -h[0] + 0.1 * rng.standard_normal(half)
            x, y = rng.standard_normal((2, 8, half))
            rows = np.vstack([np.hstack([h, h]), np.hstack([x, y]), np.hstack([y, x])])
            m = build_token_matrix(len(rows), 2 * half, rows.ravel())
            for k in range(3, m.rows):
                replayed_at.clear()
                assert greedy_rep_max(m, k, objective) == blockwise_greedy_oracle(
                    m, k, objective
                )
                if k == m.rows - 1:
                    assert len(replayed_at) == 1 and 2 <= replayed_at[0] < k
                    deepest = max(deepest, replayed_at[0])
        assert deepest >= 4  # the replay repeats certified steps' matvecs

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_too_many_step_candidates_replay_float64(self, monkeypatch, objective):
        """Rows e0 and -e0 are the certified seed; at the third step the
        100 copies of e1 and the row 0.5 e2 + 0.1 e3 all score 0, 101
        candidates, more than the float64 recheck takes.  The step hands
        the image to the float64 loop without rechecking them (the seed
        pair's is the one recheck), and the loop replays from the seed.
        With the cap raised, the same step rechecks all 101 instead."""
        rows = np.zeros((103, 8))
        rows[0, 0], rows[1, 0] = 1.0, -1.0
        rows[2:102, 1] = 1.0
        rows[102, 2:4] = 0.5, 0.1
        m = build_token_matrix(103, 8, rows.ravel())
        rechecked, replayed_at = [], []
        clear_winner = selection._clear_winner
        float64_steps = selection._float64_steps

        def recheck(value, b64):
            rechecked.append(len(value))
            return clear_winner(value, b64)

        def replay(unit, selected, k, combine):
            replayed_at.append(len(selected))
            float64_steps(unit, selected, k, combine)

        def exact_seed_pair(unit):
            raise AssertionError("the seed pair was not certified")

        monkeypatch.setattr(selection, "_clear_winner", recheck)
        monkeypatch.setattr(selection, "_float64_steps", replay)
        monkeypatch.setattr(selection, "_exact_seed_pair", exact_seed_pair)
        assert 101 > selection._MAX_CANDIDATES
        want = blockwise_greedy_oracle(m, 4, objective)
        assert want == [0, 1, 2, 102]
        assert greedy_rep_max(m, 4, objective) == want
        assert rechecked == [1] and replayed_at == [2]

        rechecked.clear()
        replayed_at.clear()
        monkeypatch.setattr(selection, "_MAX_CANDIDATES", 128)
        assert greedy_rep_max(m, 4, objective) == want
        assert rechecked == [1, 101] and replayed_at == [2]

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_noisy_image_takes_no_fallback(self, monkeypatch, objective):
        """A noisy 576 x 1024 image is selected from float32 rows alone."""
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=576, dim=1024, seed=3, clusters=16,
            noise=0.3, drift=0.05, text_tokens=1,
        )
        img = generate_synthetic(spec).images[0]
        want = blockwise_greedy_oracle(img, 144, objective)
        monkeypatch.setattr(TokenMatrix, "unit64", no_widening)
        assert greedy_rep_max(img, 144, objective) == want

    def test_certified_path_stays_below_one_float32_copy(self):
        """The float32 source is the stored rows, so the certified path
        holds no copy of the image: a 2880-row image streams one 256-row
        float32 gram block at a time and a few float64 rows, under one
        float32 copy (11.8 MB)."""
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=2880, dim=1024, seed=0, clusters=16,
            noise=0.3, drift=0.05, text_tokens=1,
        )
        img = generate_synthetic(spec).images[0]
        tracemalloc.start()
        try:
            greedy_rep_max(img, 112)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2880 * 1024 * 4

    @pytest.mark.parametrize("n, dim", [(20, 64), (40, 8)])
    def test_fallback_frees_the_float32_source_first(self, monkeypatch, n, dim):
        """Rows 3 and n - 1 are exact copies, so they tie wherever one of
        them is taken and the selection falls back to float64.  The job
        holds its scales (and, with n <= dim, its kept gram) until then,
        and drops them before ``unit64()`` makes the float64 copy."""
        rows = np.random.default_rng(19).standard_normal((n, dim))
        rows[-1] = rows[3]
        m = build_token_matrix(n, dim, rows.ravel())
        objectives = ("sum_distance", "min_distance")
        want = [blockwise_greedy_oracle(m, n - 1, o) for o in objectives]
        unit64, jobs, widened = TokenMatrix.unit64, [], []

        def widen(tokens):
            assert jobs[-1].gram is None and jobs[-1].scale is None
            widened.append(tokens.rows)
            return unit64(tokens)

        monkeypatch.setattr(TokenMatrix, "unit64", widen)
        for objective, expected in zip(objectives, want):
            job = selection._Greedy(m, n - 1, objective)
            jobs.append(job)
            for t in range(job.items):
                job.reduce(t)
            assert job.scale is not None and (job.gram is not None) == (n <= dim)
            widened.clear()
            assert job.finish() == expected
            assert widened == [n]


class TestGramSource:
    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_matches_blockwise_oracle(self, monkeypatch, objective):
        """With 2 n <= dim and large budgets the steps read the kept
        float32 gram and recheck many steps in float64; the selections stay
        the oracle's, exact ties included."""
        sources = record_sources(monkeypatch)
        rng = np.random.default_rng(16)
        for n, dim in ((24, 48), (60, 128), (100, 200)):
            half = rng.standard_normal((n // 2, dim))
            inputs = (
                rng.integers(0, 2, (n, dim)).astype(np.float64),
                # every row an exact copy of one of five prototypes
                rng.standard_normal((5, dim))[rng.integers(0, 5, n)],
                # copies of seven prototypes, each moved by 1e-9 .. 1e-6
                rng.standard_normal((7, dim))[rng.integers(0, 7, n)]
                + 10.0 ** rng.integers(-9, -5, (n, 1)) * rng.standard_normal((n, dim)),
                rng.integers(-3, 4, (n, dim)).astype(np.float64),
                # antipodal pairs whose dot products differ by ~1e-16
                np.vstack([half, -half + 1e-8 * rng.standard_normal(half.shape)]),
            )
            for rows in inputs:
                m = build_token_matrix(len(rows), dim, rows.ravel())
                for k in sorted({m.rows // 2, 3 * m.rows // 4, m.rows - 1}):
                    sources.clear()
                    want = blockwise_greedy_oracle(m, k, objective)
                    assert greedy_rep_max(m, k, objective) == want
                    assert sources == ["float32 gram"]

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_tie_at_later_gram_step_replays_float64(self, monkeypatch, objective):
        """TestCertifiedGreedyLoop's swapped halves at a kept gram shape:
        each row (x, y) ties in exact arithmetic with (y, x) at every step,
        and the gram's entries for the two need not round alike.  The first
        tied step must hand the selection to the float64 loop."""
        sources = record_sources(monkeypatch)
        replayed_at = []
        float64_steps = selection._float64_steps

        def spy(unit, selected, k, combine):
            replayed_at.append(len(selected))
            float64_steps(unit, selected, k, combine)

        monkeypatch.setattr(selection, "_float64_steps", spy)
        half, deepest = 64, 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            h = rng.standard_normal((12, half))
            h[1] = -h[0] + 0.1 * rng.standard_normal(half)
            x, y = rng.standard_normal((2, 8, half))
            rows = np.vstack([np.hstack([h, h]), np.hstack([x, y]), np.hstack([y, x])])
            m = build_token_matrix(len(rows), 2 * half, rows.ravel())
            sources.clear()
            replayed_at.clear()
            k = m.rows - 1
            assert greedy_rep_max(m, k, objective) == blockwise_greedy_oracle(
                m, k, objective
            )
            assert sources == ["float32 gram"]
            assert len(replayed_at) == 1 and 2 <= replayed_at[0] < k
            deepest = max(deepest, replayed_at[0])
        assert deepest >= 4  # certified gram steps came before the tie

    def test_rule_takes_the_gram_only_at_stage_two_shapes(self, monkeypatch):
        """Stage-1 shapes and a stage-2 shape (a few hundred pooled rows of
        dim 1024, k = 252) all score from the stored float32 rows: each
        call builds one float32 source and no float64 copy of its image."""
        built, widened = [], []
        init, finish = selection._Greedy.__init__, selection._Greedy.finish

        def spy(job, *args):
            init(job, *args)
            built.append(job)

        def full_source(job):
            # finish frees the source, so read it as the steps do
            assert job.scale.dtype == np.float32
            assert job.gram is None or job.gram.dtype == np.float32
            return finish(job)

        monkeypatch.setattr(selection._Greedy, "__init__", spy)
        monkeypatch.setattr(selection._Greedy, "finish", full_source)
        monkeypatch.setattr(
            TokenMatrix, "unit64", lambda self: widened.append(self.rows)
        )
        rng = np.random.default_rng(17)
        for n, dim, k in (
            (576, 1024, 14),
            (2880, 1024, 104),
            (576, 4096, 14),
            (400, 1024, 252),
        ):
            values = rng.standard_normal(n * dim, dtype=np.float32)
            m = build_token_matrix(n, dim, values)
            built.clear()
            assert len(greedy_rep_max(m, k)) == k
            assert len(built) == 1 and built[0].tokens.data.dtype == np.float32
        assert widened == []

    def test_gram_path_memory(self):
        """A stage-2-shaped pool (400 x 1024, k = 252) keeps its 0.64 MB
        float32 gram and widens only the rows its rechecks compare, so the
        call peaks under one float32 copy of the pool (1.64 MB), and picks
        the oracle's rows."""
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=400, dim=1024, seed=0, clusters=16,
            noise=0.3, drift=0.05, text_tokens=1,
        )
        pool = generate_synthetic(spec).images[0]
        tracemalloc.start()
        try:
            got = greedy_rep_max(pool, 252)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 1024 * 4
        assert got == blockwise_greedy_oracle(pool, 252, "sum_distance")


def record_sources(monkeypatch):
    """Patch selection to record, per image, the score source it reads:
    "float32 gram" or "streamed" (its seed filter streams tiles, counted
    at the first tile); returns that list."""
    sources = []

    def spy(name, label, first=lambda *args: True):
        inner = getattr(selection, name)

        def wrapper(*args):
            if first(*args):
                sources.append(label)
            return inner(*args)

        monkeypatch.setattr(selection, name, wrapper)

    spy("_scaled_gram", "float32 gram")
    spy("_tile", "streamed", lambda data, scale, r0, rows, c0, cols: r0 == c0 == 0)
    return sources


class TestKeptFloat32Gram:
    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_matches_blockwise_oracle(self, monkeypatch, objective):
        """With n <= dim the seed and every step read the kept float32
        gram, at every budget; the selections stay the oracle's, exact ties
        and near-ties included."""
        sources = record_sources(monkeypatch)
        rng = np.random.default_rng(18)
        for n, dim in ((40, 64), (64, 64), (20, 64)):
            half = rng.standard_normal((n // 2, dim))
            inputs = (
                rng.standard_normal((n, dim)),
                rng.integers(-2, 3, (n, dim)).astype(np.float64),
                rng.integers(0, 2, (n, dim)).astype(np.float64) + np.eye(n, dim),
                # every row an exact copy of one of five prototypes
                rng.standard_normal((5, dim))[rng.integers(0, 5, n)],
                # antipodal pairs whose dot products differ by ~1e-16
                np.vstack([half, -half + 1e-8 * rng.standard_normal(half.shape)]),
            )
            for rows in inputs:
                m = build_token_matrix(n, dim, rows.ravel())
                for k in range(1, n + 1):
                    sources.clear()
                    want = blockwise_greedy_oracle(m, k, objective)
                    assert greedy_rep_max(m, k, objective) == want
                    if k < n:
                        assert sources == ["float32 gram"]

    def test_seed_near_ties_below_float32_resolution(self):
        """TestSeedPairScan's six pairs (x, -x + noise) at dim 16, so the
        12 rows keep their gram: their dot products lie within ~1e-9 of
        each other, and for most seeds the gram puts the farthest pair one
        to three float32 steps above its smallest entry."""
        above = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((6, 16))
            scale = 3e-5 * np.linalg.norm(x, axis=1, keepdims=True)
            rows = np.stack([x, -x + scale * rng.standard_normal((6, 16))], axis=1)
            m = build_token_matrix(12, 16, rows.ravel())
            i, j = brute_force_farthest_pair(m)
            job = selection._Greedy(m, 2, "sum_distance")
            gram = selection._scaled_gram(m.data, job.scale)
            above += bool(min(gram[i, j], gram[j, i]) > gram.min())
            for objective in ("sum_distance", "min_distance"):
                assert greedy_rep_max(m, 2, objective) == [i, j]
        assert above >= 6

    @pytest.mark.parametrize("objective", ["sum_distance", "min_distance"])
    def test_step_near_ties_below_float32_resolution(self, monkeypatch, objective):
        """TestCertifiedGreedyLoop's step near-ties at dim 48, where the 41
        rows keep their gram."""
        sources = record_sources(monkeypatch)
        assert step_near_ties(monkeypatch, objective, dim=48) >= 1
        assert set(sources) == {"float32 gram"}

    def test_rule_keeps_the_float32_gram_only_when_rows_fit_in_dims(
        self, monkeypatch
    ):
        """The float32 gram is built exactly when n <= dim, whatever the
        budget, and never for n > dim."""
        sources = record_sources(monkeypatch)
        rng = np.random.default_rng(19)
        for n, dim, k, want in (
            (65, 64, 2, "streamed"),
            (65, 64, 40, "streamed"),
            (300, 24, 10, "streamed"),
            (64, 64, 2, "float32 gram"),
            (64, 64, 63, "float32 gram"),
            (33, 64, 20, "float32 gram"),
            (32, 64, 7, "float32 gram"),
            (32, 64, 8, "float32 gram"),
            (8, 1024, 1, "float32 gram"),
            (8, 1024, 2, "float32 gram"),
        ):
            m = random_matrix(rng, n, dim)
            sources.clear()
            assert len(greedy_rep_max(m, k)) == k
            assert sources == [want], (n, dim, k)

    def test_benchmark_shapes_take_their_sources(self, monkeypatch):
        """A video frame (576 x 1024, k = 12 or 14) keeps its float32 gram,
        a high-resolution image (2880 x 1024, k = 104 or 112) streams blocks,
        and a stage-2 pool (400 x 1024, k = 252) keeps its float32 gram too,
        as does a frame of dim 4096."""
        sources = record_sources(monkeypatch)
        rng = np.random.default_rng(20)
        for n, dim, k, want in (
            (576, 1024, 12, "float32 gram"),
            (576, 1024, 14, "float32 gram"),
            (2880, 1024, 104, "streamed"),
            (2880, 1024, 112, "streamed"),
            (576, 4096, 14, "float32 gram"),
            (400, 1024, 252, "float32 gram"),
        ):
            values = rng.standard_normal(n * dim, dtype=np.float32)
            sources.clear()
            assert len(greedy_rep_max(build_token_matrix(n, dim, values), k)) == k
            assert sources == [want], (n, dim, k)

    def test_seed_filter_reads_each_pair_once(self):
        """The seed filter reads a kept gram as one block and keeps only its
        entries above the diagonal: two exactly antipodal pairs give two
        candidates, each once with i < j."""
        rows = np.zeros((5, 8))
        rows[0, 0], rows[1, 0], rows[2, 1], rows[3, 1] = 1, -1, 1, -1
        rows[4, :2] = 1
        m = build_token_matrix(5, 8, rows.ravel())
        job = selection._Greedy(m, 2, "sum_distance")
        gram = selection._scaled_gram(m.data, job.scale)
        ci, cj = selection._merge([selection._reduce(gram, 0, 0, 1e-6)], 1e-6)
        assert list(zip(ci.tolist(), cj.tolist())) == [(0, 1), (2, 3)]

    def test_kept_gram_stays_below_one_float32_copy(self):
        """A 576 x 1024 frame at its video quota (k = 12) keeps its 1.3 MB
        float32 gram and a few float64 rows, under one float32 copy of the
        frame (2.4 MB)."""
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=576, dim=1024, seed=0, clusters=16,
            noise=0.3, drift=0.05, text_tokens=1,
        )
        img = generate_synthetic(spec).images[0]
        tracemalloc.start()
        try:
            greedy_rep_max(img, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 576 * 1024 * 4

    def test_rechecks_hold_no_float64_copy_of_the_selection(self, monkeypatch):
        """At k = 144 the same frame rechecks steps in float64 up to its
        last selections; sum_distance keeps only the float64 sum of the
        rows checked, so the call still peaks under one float32 copy of
        the frame (it held a float64 row for each of the k selections), and
        min_distance holds the rows checked, never more than k of them."""
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=576, dim=1024, seed=0, clusters=16,
            noise=0.3, drift=0.05, text_tokens=1,
        )
        img = generate_synthetic(spec).images[0]
        widened = []
        real = selection._unit64_rows

        def spy(tokens, idx):
            if isinstance(idx, list):  # selected rows, not candidates
                widened.append(len(idx))
            return real(tokens, idx)

        monkeypatch.setattr(selection, "_unit64_rows", spy)
        for objective, bound in (
            ("sum_distance", 576 * 1024 * 4),
            ("min_distance", 576 * 576 * 4 + 144 * 1024 * 8 + 0.3e6),
        ):
            widened.clear()
            tracemalloc.start()
            try:
                got = greedy_rep_max(img, 144, objective)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(widened) > 100  # selected rows checked in float64
            assert peak < bound
            monkeypatch.setattr(selection, "_unit64_rows", real)
            assert got == blockwise_greedy_oracle(img, 144, objective)
            monkeypatch.setattr(selection, "_unit64_rows", spy)


class TestGreedyObjectiveValue:
    def test_reference_values(self):
        assert greedy_objective_value(matrix([E1, E2]), [0, 1]) == pytest.approx(1.0)
        assert greedy_objective_value(matrix([E1, E1]), [0, 1]) == pytest.approx(
            0.0, abs=1e-12
        )
        assert greedy_objective_value(
            matrix([E1, E2, MID]), [0, 1, 2]
        ) == pytest.approx(TRIO_DIVERSITY, abs=1e-4)

    def test_bad_subsets(self):
        m = matrix([E1, E2, MID])
        with pytest.raises(BadSubset):
            greedy_objective_value(m, [0])
        with pytest.raises(BadSubset):
            greedy_objective_value(m, [0, 0])
        with pytest.raises(BadSubset):
            greedy_objective_value(m, [0, 3])
        with pytest.raises(BadSubset):
            greedy_objective_value(m, [-1, 1])


class TestParetoFront:
    def test_four_point_example(self):
        pts = points_from([3, 2, 1, 1.5], [1, 2, 3, 1.5])
        assert pareto_front_naive(pts) == [0, 1, 2]
        assert pareto_front_sortscan(pts) == [0, 1, 2]

    def test_single_point(self):
        pts = [ParetoPoint(4, 0.3, -2.0)]
        assert pareto_front_naive(pts) == [4]
        assert pareto_front_sortscan(pts) == [4]

    def test_anti_diagonal_all_retained(self):
        t = np.linspace(0, 1, 9)
        pts = points_from(t, 1.0 - t)
        assert pareto_front_naive(pts) == list(range(9))
        assert pareto_front_sortscan(pts) == list(range(9))

    def test_equal_v_groups(self):
        """Within one v value only the best-a point can survive."""
        pts = points_from([2, 2, 2, 1], [1, 5, 3, 6])
        assert pareto_front_naive(pts) == [1, 3]
        assert pareto_front_sortscan(pts) == [1, 3]

    def test_exact_duplicates_collapse_to_lowest_index(self):
        pts = [
            ParetoPoint(3, 1.0, 1.0),
            ParetoPoint(1, 1.0, 1.0),
            ParetoPoint(2, 0.5, 0.5),
        ]
        assert pareto_front_naive(pts) == [1]
        assert pareto_front_sortscan(pts) == [1]

    def test_sortscan_equals_naive_random(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(1, 200))
            if trial % 3 == 0:
                v, a = rng.random(n), rng.random(n)
            elif trial % 3 == 1:
                # heavy ties in both objectives
                v = rng.integers(0, 4, n).astype(float)
                a = rng.integers(0, 4, n).astype(float)
            else:
                v = np.round(rng.random(n), 2)
                a = np.round(rng.random(n), 2)
            pts = points_from(v, a)
            assert pareto_front_sortscan(pts) == pareto_front_naive(pts)

    def test_soundness_and_completeness(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 64))
            pts = points_from(np.round(rng.random(n), 1), np.round(rng.random(n), 1))
            front = set(pareto_front_naive(pts))
            by_index = {p.index: p for p in pts}
            reps = {}
            for p in pts:
                key = (p.v, p.a)
                if key not in reps or p.index < reps[key]:
                    reps[key] = p.index
            rep_indices = set(reps.values())
            for p in pts:
                if p.index in front:
                    assert not any(is_dominated(p, q) for q in pts)
                elif p.index in rep_indices:
                    assert any(is_dominated(p, by_index[f]) for f in front)


class TestParetoBudgeted:
    def test_rank_sum_tie_breaks_by_index(self):
        pts = points_from([3, 2, 1], [1, 2, 3])  # one front, all rank-sum 4
        assert pareto_budgeted(pts, 2) == [0, 1]

    def test_budget_covers_everything(self):
        pts = points_from([3, 2, 1], [1, 2, 3])
        assert pareto_budgeted(pts, 3) == [0, 1, 2]
        assert pareto_budgeted(pts, 10) == [0, 1, 2]

    def test_budget_one_of_two_extremes(self):
        pts = points_from([3, 1], [1, 3])
        assert pareto_budgeted(pts, 1) == [0]

    def test_bad_budget(self):
        with pytest.raises(BadBudget):
            pareto_budgeted(points_from([1], [1]), 0)

    def test_non_integral_budget(self):
        pts = points_from([3, 2, 1], [1, 2, 3])
        for budget in (2.5, 2.0, True, "2"):
            with pytest.raises(BadBudget):
                pareto_budgeted(pts, budget)
        assert pareto_budgeted(pts, np.int64(2)) == [0, 1]

    def test_non_finite_objectives(self):
        for bad in (np.nan, np.inf, -np.inf):
            for vs, avals in (([1, bad, 2], [3, 2, 1]), ([1, 2, 3], [3, 2, bad])):
                for budget in (1, 2, 5):  # also when the budget covers all
                    with pytest.raises(BadSubset):
                        pareto_budgeted(points_from(vs, avals), budget)

    def test_duplicate_indices(self):
        pts = [ParetoPoint(0, 1.0, 2.0), ParetoPoint(0, 2.0, 1.0)]
        for budget in (1, 5):  # also when the budget covers every point
            with pytest.raises(BadSubset):
                pareto_budgeted(pts, budget)

    def test_peels_successive_fronts(self):
        # two nested anti-diagonal fronts of three points each
        pts = points_from([3, 2, 1, 2.5, 1.5, 0.5], [1, 2, 3, 0.5, 1.5, 2.5])
        assert pareto_budgeted(pts, 3) == [0, 1, 2]
        assert pareto_budgeted(pts, 4) == [0, 1, 2, 3]

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            pts = points_from(np.round(rng.random(n), 2), np.round(rng.random(n), 2))
            previous = set()
            for budget in range(1, n + 1):
                current = set(pareto_budgeted(pts, budget))
                assert len(current) == budget
                assert previous <= current
                previous = current

    def test_front_fn_parity(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 120))
            pts = points_from(np.round(rng.random(n), 2), np.round(rng.random(n), 2))
            budget = int(rng.integers(1, n + 1))
            assert pareto_budgeted(
                pts, budget, front_fn=pareto_front_naive
            ) == pareto_budgeted(pts, budget, front_fn=pareto_front_sortscan)

    def test_exhaustive_small_fronts(self):
        """Front-based fill: every selected point from an earlier front than
        any unselected one, except inside the boundary front."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            pts = points_from(rng.random(n), rng.random(n))
            # peel layers by repeated front computation
            layer_of = {}
            remaining = list(pts)
            layer = 0
            while remaining:
                front = pareto_front_naive(remaining)
                for idx in front:
                    layer_of[idx] = layer
                remaining = [p for p in remaining if p.index not in front]
                layer += 1
            for budget in range(1, n):
                chosen = set(pareto_budgeted(pts, budget))
                boundary = max(layer_of[i] for i in chosen)
                for p in pts:
                    if layer_of[p.index] < boundary:
                        assert p.index in chosen
