"""Budget arithmetic: stage-1 size, weights, and integer apportionment."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokentrim.allocation import (
    image_weights,
    per_image_budgets,
    stage1_budget,
)
from tokentrim.errors import InfeasibleBudget, ShapeMismatch


class TestStage1Budget:
    def test_default_parameter_table(self):
        """The published defaults map s to the expected budgets exactly."""
        table = {0.0: 294, 1.0: 374, 1.5: 414, 2.0: 454, 3.0: 454}
        for s, want in table.items():
            assert stage1_budget(s, 294, 454, 0.5) == want

    def test_clip_binds_above(self):
        assert stage1_budget(3.0, 294, 454, 0.5) == 454
        assert stage1_budget(float("inf"), 294, 454, 0.5) == 454

    def test_lower_bound(self):
        assert stage1_budget(0.0, 294, 454, 0.5) == 294

    def test_half_away_rounding(self):
        # (m_max - m_min) * clip = 10 * 0.25 = 2.5 -> 3, not 2
        assert stage1_budget(0.25, 100, 110, 1.0) == 103

    def test_monotone_in_s_and_lambda(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lo = int(rng.integers(1, 200))
            hi = lo + int(rng.integers(0, 300))
            lam = float(rng.uniform(0.05, 3.0))
            values = [
                stage1_budget(s, lo, hi, lam) for s in np.linspace(0, 3, 40)
            ]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[0] >= lo and values[-1] <= hi
        s = 0.8
        by_lambda = [stage1_budget(s, 10, 200, lam) for lam in (0.1, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(by_lambda, by_lambda[1:]))

    def test_endpoints_outside_clip_window(self):
        assert stage1_budget(0.0, 50, 90, 0.7) == 50
        assert stage1_budget(10.0, 50, 90, 0.7) == 90


class TestImageWeights:
    def test_last_image_promoted(self):
        assert image_weights([0.2, 0.5, 0.3]) == [0.2, 0.5, 0.5]

    def test_two_images_unchanged(self):
        assert image_weights([0.2, 0.5]) == [0.2, 0.5]

    def test_rule_disabled(self):
        assert image_weights([0.2, 0.5, 0.3], last_image_rule=False) == [
            0.2,
            0.5,
            0.3,
        ]

    def test_all_zero_uniform_fallback(self):
        assert image_weights([0.0, 0.0, 0.0]) == [pytest.approx(1 / 3)] * 3

    def test_last_already_max(self):
        assert image_weights([0.1, 0.2, 0.9]) == [0.1, 0.2, 0.9]


class TestPerImageBudgets:
    def test_exact_shares_no_residue(self):
        assert per_image_budgets([0.2, 0.5, 0.5], 120, [999] * 3) == [20, 50, 50]

    def test_equal_weights_residual_to_low_index(self):
        assert per_image_budgets([1, 1, 1], 100, [999] * 3) == [34, 33, 33]

    def test_cap_bind_redistributes(self):
        assert per_image_budgets([0.9, 0.1], 10, [5, 20]) == [5, 5]

    def test_floor_of_one(self):
        got = per_image_budgets([1.0, 1e-9, 1e-9], 5, [10, 10, 10])
        assert got[1] >= 1 and got[2] >= 1 and sum(got) == 5

    def test_infeasible(self):
        with pytest.raises(InfeasibleBudget):
            per_image_budgets([1, 1], 1, [5, 5])  # fewer tokens than images
        with pytest.raises(InfeasibleBudget):
            per_image_budgets([1, 1], 11, [5, 5])  # exceeds capacity
        with pytest.raises(InfeasibleBudget):
            per_image_budgets([0.0, 0.0], 4, [5, 5])  # zero weight mass

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            per_image_budgets([1, 1], 4, [5, 5, 5])

    def test_conservation_and_bounds_random(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            caps = [int(c) for c in rng.integers(1, 40, size=n)]
            m1 = int(rng.integers(n, sum(caps) + 1))
            weights = [float(w) for w in rng.uniform(0.0, 1.0, size=n)]
            if sum(weights) == 0.0:
                weights[0] = 1.0
            got = per_image_budgets(weights, m1, caps)
            assert sum(got) == m1
            assert all(1 <= b <= c for b, c in zip(got, caps))

    def test_proportional_when_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            shares = rng.integers(1, 30, size=n)
            m1 = int(shares.sum())
            weights = [float(x) for x in shares]
            got = per_image_budgets(weights, m1, [1000] * n)
            assert got == [int(x) for x in shares]

    def test_last_image_rule_never_hurts_last_budget(self):
        """Promoting the last weight to the max cannot shrink its quota."""
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(3, 10))
            d = [float(x) for x in rng.uniform(0.01, 1.0, size=n)]
            caps = [int(c) for c in rng.integers(2, 50, size=n)]
            m1 = int(rng.integers(n, sum(caps) + 1))
            with_rule = per_image_budgets(image_weights(d, True), m1, caps)
            without = per_image_budgets(image_weights(d, False), m1, caps)
            assert with_rule[-1] >= without[-1]


def test_bad_values_raise_infeasible_budget():
    """A non-finite weight, a weight sum or share beyond float range, no
    weights and a NaN s or lam raise the package's error, not Python's; an
    infinite s still saturates and a negative weight is repaired."""
    nan, inf = float("nan"), float("inf")
    calls = (
        lambda: per_image_budgets([nan, 1.0], 3, [3, 3]),
        lambda: per_image_budgets([inf, 1.0], 3, [3, 3]),
        lambda: per_image_budgets([1e308, 1e308], 3, [3, 3]),
        lambda: per_image_budgets([1e308, -1e308, 1e-300], 3, [3, 3, 3]),
        lambda: per_image_budgets([1.0, 1.0], 3, [3, 0]),
        lambda: image_weights([]),
        lambda: image_weights([0.5, nan]),
        lambda: stage1_budget(nan, 1, 5, 0.5),
        lambda: stage1_budget(1.0, 1, 5, nan),
        lambda: stage1_budget(inf, 1, 5, 0.0),
    )
    for call in calls:
        with pytest.raises(InfeasibleBudget):
            call()
    assert stage1_budget(inf, 1, 5, 0.5) == 5
    assert per_image_budgets([2.0, -1.0], 3, [3, 3]) == [2, 1]
    assert per_image_budgets([1.0, -3e-16], 5, [4, 4]) == [4, 1]



def one_unit_at_a_time(weights, m1, caps):
    """per_image_budgets as it was first written: the largest-remainder
    shares, clamped to [1, cap], then repaired one unit per pass over
    every image.  The oracle for the closed-form repair."""
    n = len(weights)
    total_w = math.fsum(weights)
    ideal = [w / total_w * m1 for w in weights]
    budget = [math.floor(q) for q in ideal]
    leftover = m1 - sum(budget)
    by_fraction = sorted(range(n), key=lambda k: (-(ideal[k] - budget[k]), k))
    for k in by_fraction[:leftover]:
        budget[k] += 1
    budget = [min(max(b, 1), caps[k]) for k, b in enumerate(budget)]
    while sum(budget) < m1:
        k = max(
            (k for k in range(n) if budget[k] < caps[k]),
            key=lambda k: (ideal[k] - budget[k], -k),
        )
        budget[k] += 1
    while sum(budget) > m1:
        k = max(
            (k for k in range(n) if budget[k] > 1),
            key=lambda k: (budget[k] - ideal[k], -k),
        )
        budget[k] -= 1
    return budget


@st.composite
def apportionments(draw):
    """Weights (zeros, ties, tiny negatives and magnitudes far apart
    included) with a positive sum, caps, and a feasible m1."""
    n = draw(st.integers(1, 12))
    weight = st.one_of(
        st.just(0.0),
        st.sampled_from([1.0, 2.0, 0.5]),
        st.floats(1e-12, 1e3),
        st.floats(-1e-15, 0.0),
    )
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    if math.fsum(weights) <= 0:
        weights[draw(st.integers(0, n - 1))] = draw(st.floats(1e-9, 10.0))
    caps = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    m1 = draw(st.integers(n, sum(caps)))
    return weights, m1, caps


@settings(derandomize=True, max_examples=400, deadline=None)
@given(apportionments())
@example(([1.0, 0.0] * 3, 6, [5] * 6))  # zero shares raised to 1, then taken back
@example(([1.0, 1e-9, 1e-9], 25, [10, 10, 10]))  # the first cap binds
@example(([2.0, -1.0], 3, [3, 3]))
@example(([1.0, -3e-16], 5, [4, 4]))
def test_closed_form_repair_matches_one_unit_moves(case):
    """The same budgets, bit for bit, as the loop that moves one unit per
    pass, on random weights, caps and m1."""
    weights, m1, caps = case
    assert per_image_budgets(weights, m1, caps) == one_unit_at_a_time(weights, m1, caps)


def test_repair_at_one_hour_video_scale():
    """3600 frames of 576 tokens, half of them of identical rows (weight
    0): every zero share is raised to one token and the rest taken back
    from the others, or every other share is capped and the rest spread.
    Both repairs move thousands of units; the loop takes about a second,
    the closed form milliseconds."""
    n = 3600
    weights = [1.0 if k % 2 else 0.0 for k in range(n)]
    for m1 in (n, 414720):
        start = time.perf_counter()
        got = per_image_budgets(weights, m1, [576] * n)
        assert time.perf_counter() - start < 0.25
        assert got == one_unit_at_a_time(weights, m1, [576] * n)
