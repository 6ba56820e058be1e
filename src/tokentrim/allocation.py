"""Integer budget allocation from redundancy signals.

Turns the scalar redundancy factor into the stage-1 total and splits that
total into per-image quotas that always sum exactly and respect both the
one-token floor and each image's token count.  An argument of the wrong
type or out of range raises InfeasibleBudget.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleBudget, ShapeMismatch
from .types import _instance, _integer, _items, _real, round_half_away


def _weights(values) -> list[float]:
    """``values`` as a nonempty list of finite floats, else InfeasibleBudget."""
    items = _items("weights", values, InfeasibleBudget)
    weights = [_real("weight", w, InfeasibleBudget) for w in items]
    if not weights:
        raise InfeasibleBudget("no weights: there are no images")
    if not all(math.isfinite(w) for w in weights):
        raise InfeasibleBudget("weights must be finite")
    return weights


def stage1_budget(s: float, m_min: int, m_max: int, lam: float) -> int:
    """Map the redundancy factor s to the stage-1 retention size.

    M_1 = m_min + round((m_max - m_min) * clip(lam * s, 0, 1)), rounding
    half away from zero.  Saturated (infinite) s clips to the upper bound.
    Monotone non-decreasing in both s and lam.  A NaN s or lam, or lam = 0
    with an infinite s, raises InfeasibleBudget.
    """
    m_min = _integer("m_min", m_min, 0, InfeasibleBudget)
    m_max = _integer("m_max", m_max, m_min, InfeasibleBudget)
    scaled = _real("lam", lam, InfeasibleBudget) * _real("s", s, InfeasibleBudget)
    if math.isnan(scaled):
        raise InfeasibleBudget(f"lam * s is not a number (s={s!r}, lam={lam!r})")
    clipped = min(max(scaled, 0.0), 1.0)
    return m_min + round_half_away((m_max - m_min) * clipped)


def image_weights(
    d_intra_per_image: list[float], last_image_rule: bool = True
) -> list[float]:
    """Retention weights: per-image diversity, with the last-image promotion.

    With the rule on and more than two images, the last image's weight is
    raised to the sequence maximum so the most recent context never starves.
    An all-zero profile falls back to uniform weights.  No weights, or a
    weight that is not finite, raises InfeasibleBudget.
    """
    weights = _weights(d_intra_per_image)
    _instance("last_image_rule", last_image_rule, bool, InfeasibleBudget)
    n = len(weights)
    if last_image_rule and n > 2:
        weights[-1] = max(weights)
    if max(weights) <= 0.0:
        return [1.0 / n] * n
    return weights


def per_image_budgets(
    weights: list[float], m1: int, caps: list[int]
) -> list[int]:
    """Split m1 tokens across images proportionally to their weights.

    Ideal shares q_k = (w_k / sum w) * m1 are integerized by the largest-
    remainder method (floor everything, hand the leftover units to the
    largest fractional parts, ties to the lower index).  The result is then
    repaired against the [1, caps[k]] bounds as if one unit moved at a
    time: units still owed go to the in-bounds image with the largest
    remaining ideal-share deficit, excess units are taken back from the
    image with the largest overshoot (ties to the lower index in both
    directions).  :func:`_repair` makes those moves in closed form.
    The output sums to m1 exactly with 1 <= budget[k] <= caps[k].  A
    negative weight is repaired like any other share: the diversity of an
    image of identical rows can round to a tiny negative value.  No
    weights, a weight that is not finite, a weight sum or share beyond
    float range or a cap below 1 raises InfeasibleBudget.
    """
    weights = _weights(weights)
    m1 = _integer("m1", m1, 0, InfeasibleBudget)
    items = _items("caps", caps, InfeasibleBudget)
    caps = [_integer("cap", c, 1, InfeasibleBudget) for c in items]
    n = len(weights)
    if len(caps) != n:
        raise ShapeMismatch(f"{n} weights but {len(caps)} caps")
    if m1 < n:
        raise InfeasibleBudget(f"m1={m1} cannot give each of {n} images a token")
    if m1 > sum(caps):
        raise InfeasibleBudget(f"m1={m1} exceeds total capacity {sum(caps)}")
    try:
        total_w = math.fsum(weights)
    except OverflowError:
        raise InfeasibleBudget("the weights' sum overflows") from None
    if total_w <= 0.0:
        raise InfeasibleBudget("weights must have a positive sum")

    ideal = [w / total_w * m1 for w in weights]
    if not all(math.isfinite(q) for q in ideal):
        raise InfeasibleBudget("a weight's share of the sum overflows")
    budget = [math.floor(q) for q in ideal]
    leftover = m1 - sum(budget)
    by_fraction = sorted(range(n), key=lambda k: (-(ideal[k] - budget[k]), k))
    for k in by_fraction[:leftover]:
        budget[k] += 1

    budget = [min(max(b, 1), caps[k]) for k, b in enumerate(budget)]
    owed = m1 - sum(budget)
    if owed:
        budget = _repair(ideal, budget, caps, owed)
    return budget


def _repair(
    ideal: list[float], budget: list[int], caps: list[int], owed: int
) -> list[int]:
    """``budget`` after :func:`per_image_budgets`' one-unit moves: ``owed``
    units added when it is positive, -``owed`` taken back when negative.

    Adding, image k's unit j (j = 0, 1, ...) is worth ideal[k] -
    (budget[k] + j), the deficit the loop reads before it gives that
    unit, and it has cap[k] - budget[k] units; taking back, its unit j is
    worth (budget[k] - j) - ideal[k], and it has budget[k] - 1.  Each
    worth is the float the loop computes, and it does not increase in j,
    so the loop, which always takes the largest (worth, -k), takes the
    |owed| largest units of all, lowest image first among equal worths.
    So does this, in O(n log n): a bisection over a real level L counts,
    per image, about worth(0) - L units above it, and stops once one unit
    of level brackets the last unit taken.  Every unit worth more than
    that bracket plus 1 is surely taken and none worth less than the
    bracket minus 1 is (each float worth lies within a few ulps of
    worth(0) - j, far below 1, while every count stays below 2**53).
    The few units in between, at most a handful per image, are sorted by
    their exact worths.
    """
    take = owed < 0
    units = abs(owed)
    b = np.array(budget, dtype=np.int64)
    x = np.array(ideal)
    room = np.minimum(b - 1 if take else np.array(caps, dtype=np.int64) - b, units)
    k = np.arange(len(b))

    def worth(k, j):
        return (b[k] - j) - x[k] if take else x[k] - (b[k] + j)

    first = worth(k, 0)

    def above(level: float) -> np.ndarray:
        """Each image's count of units worth more than ``level``, exactly."""
        j = np.clip(np.ceil(first - level), 0, room).astype(np.int64)
        while True:
            down = (j > 0) & (worth(k, j - 1) <= level)
            up = (j < room) & (worth(k, j) > level)
            if not (down.any() or up.any()):
                return j
            j += up.astype(np.int64) - down

    def about(level: float) -> int:
        return int(np.clip(np.ceil(first - level), 0, room).sum())

    hi = float(first.max()) + 1.0  # about(hi) == 0 < units
    lo = float((first - room).min()) - 1.0  # about(lo) == room.sum() >= units
    while hi - lo > 1.0:
        mid = (lo + hi) / 2
        if not lo < mid < hi:  # a level beyond 2**53: no float between
            break
        if about(mid) >= units:
            lo = mid
        else:
            hi = mid
    sure, near = above(hi + 1.0), above(lo - 1.0)
    # The units between: image ks[i]'s unit js[i], ordered by worth, then
    # image, then unit.
    between = near - sure
    ks = np.repeat(k, between)
    js = np.arange(len(ks)) - np.repeat(np.cumsum(between) - between, between)
    js += sure[ks]
    order = np.lexsort((js, ks, -worth(ks, js)))
    chosen = ks[order[: units - int(sure.sum())]]
    moved = sure + np.bincount(chosen, minlength=len(b))
    return (b - moved if take else b + moved).tolist()
