"""Pipeline invariants over random small bundles and valid configs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_selection import blockwise_greedy_oracle
from tokentrim import (
    PruneConfig,
    TokenBundle,
    apply_selection,
    build_token_matrix,
    prune,
)
from tokentrim.selection import greedy_rep_max

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def bundles_and_configs(draw):
    positionwise = draw(st.booleans())
    n_images = draw(st.integers(1, 4))
    if positionwise:
        counts = [draw(st.integers(1, 30))] * n_images
    else:
        counts = draw(st.lists(st.integers(1, 30), min_size=n_images, max_size=n_images))
    dim = draw(st.integers(2, 8))
    n_text = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((sum(counts) + n_text, dim))
    bundle = TokenBundle(build_token_matrix(len(values), dim, values), counts)

    m_min = draw(st.integers(1, 80))
    budget = draw(
        st.one_of(
            st.builds(dict, final_tokens=st.integers(1, 80), retention_ratio=st.none()),
            st.builds(dict, retention_ratio=st.floats(0.01, 0.99)),
        )
    )
    cfg = PruneConfig(
        m_min=m_min,
        m_max=m_min + draw(st.integers(0, 80)),
        lam=draw(st.floats(0.05, 5.0)),
        m2=draw(st.integers(1, 80)),
        last_image_rule=draw(st.booleans()),
        inter_variant="position_wise" if positionwise else "global_mean",
        align_on_normalized=draw(st.booleans()),
        greedy_objective=draw(st.sampled_from(["sum_distance", "min_distance"])),
        **budget,
    )
    return bundle, cfg


@PROPERTY_SETTINGS
@given(bundles_and_configs())
def test_stages_nest_and_budgets_hold(case):
    bundle, cfg = case
    report, sel = prune(bundle, cfg)
    sizes = sel.stage_sizes
    assert sizes[0] == bundle.total_tokens
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[3] >= 1

    quotas = report.per_image_budgets
    assert sum(quotas) == report.m1 == sizes[1]
    assert all(1 <= q <= count for q, count in zip(quotas, bundle.counts))

    assert len(sel.kept_per_image) == bundle.n_images
    mapped = []
    for lo, count, local in zip(bundle.offsets, bundle.counts, sel.kept_per_image):
        assert list(local) == sorted(set(local))
        assert all(0 <= i < count for i in local)
        mapped.extend(lo + i for i in local)
    assert tuple(sorted(mapped)) == sel.kept_global
    assert len(sel.kept_global) == sizes[3]
    assert set(sel.kept_global) <= {g for g, _, _ in sel.scores}


@PROPERTY_SETTINGS
@given(bundles_and_configs())
def test_applied_selection_copies_source_rows(case):
    bundle, cfg = case
    _, sel = prune(bundle, cfg)
    pruned = apply_selection(bundle, sel)
    source = [*sel.kept_global, *range(bundle.total_tokens, bundle.rows.rows)]
    np.testing.assert_array_equal(pruned.rows.data, bundle.rows.data[source])
    np.testing.assert_array_equal(pruned.rows.norms_sq, bundle.rows.norms_sq[source])
    assert pruned.counts == tuple(len(k) for k in sel.kept_per_image if k)


@PROPERTY_SETTINGS
@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
)
def test_unit_rows_derive_exactly_from_norms(values):
    wide = values.astype(np.float64)
    assume(np.all(np.einsum("ij,ij->i", wide, wide) >= 1e-24))
    m = build_token_matrix(*values.shape, values)
    want = wide / np.sqrt(m.norms_sq)[:, None]
    np.testing.assert_array_equal(m.unit64(), want)
    assert np.all(np.abs(np.linalg.norm(m.unit64(), axis=1) - 1.0) <= 1e-12)


@PROPERTY_SETTINGS
@given(
    hnp.arrays(
        np.int8,
        st.tuples(st.integers(2, 40), st.integers(1, 6)),
        elements=st.integers(-2, 2),
    ),
    st.sampled_from(["sum_distance", "min_distance"]),
)
def test_seed_pair_matches_blockwise_scan(values, objective):
    """Small integer entries give many equal and nearly equal dot products,
    so both the certified float32 scan and its float64 fallback are hit."""
    assume(np.all(np.any(values != 0, axis=1)))
    m = build_token_matrix(*values.shape, values)
    assert greedy_rep_max(m, 2, objective) == blockwise_greedy_oracle(m, 2, objective)
