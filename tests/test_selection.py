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
        expected = brute_force_farthest_pair(m)
        assert expected == (n - 2, n - 1)
        for objective in ("sum_distance", "min_distance"):
            assert blockwise_greedy_oracle(m, 2, objective) == list(expected)
            assert greedy_rep_max(m, 2, objective) == list(expected)

    @pytest.mark.parametrize("seed", [2, 3, 22, 46, 56])
    def test_float32_order_reversed(self, seed):
        """Six pairs (x, -x + noise) whose dot products lie within ~1e-9 of
        each other.  For these seeds OpenBLAS's float32 gemm put the
        farthest pair two or three float32 steps above the smallest float32
        value, so a filter keeping only the float32 minimum would miss it."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 8))
        scale = 3e-5 * np.linalg.norm(x, axis=1, keepdims=True)
        rows = np.stack([x, -x + scale * rng.standard_normal((6, 8))], axis=1)
        m = build_token_matrix(12, 8, rows.ravel())
        expected = brute_force_farthest_pair(m)
        assert blockwise_greedy_oracle(m, 2, "sum_distance") == list(expected)
        assert greedy_rep_max(m, 2) == list(expected)

    def test_noisy_image_is_certified(self):
        """On a noisy image the float32 filter decides without the fallback."""
        spec = SyntheticSpec(
            n_images=2, tokens_per_image=576, dim=64, seed=0, clusters=16,
            noise=0.2, drift=0.1, text_tokens=4,
        )
        for img in generate_synthetic(spec).images:
            unit = img.unit64()
            pair = selection._certified_seed_pair(unit)
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
