"""Pipeline invariants over random small bundles and valid configs, and
the constructors' answers to arbitrary arguments."""

import dataclasses
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_selection import blockwise_greedy_oracle
from tokentrim import (
    PruneConfig,
    SyntheticSpec,
    TokenBundle,
    TokenMatrix,
    TokenTrimError,
    allocation,
    analyze,
    apply_selection,
    build_token_matrix,
    make_bundle,
    pipeline,
    prune,
    read_bundle,
    selection,
    types,
    write_bundle,
    write_result,
)
from tokentrim.errors import NonFiniteRow, ZeroNormRow
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


@PROPERTY_SETTINGS
@given(
    hnp.arrays(
        np.int8,
        st.tuples(st.integers(2, 24), st.integers(1, 6)),
        elements=st.integers(-2, 2),
    ),
    st.sampled_from(["sum_distance", "min_distance"]),
)
def test_greedy_matches_blockwise_oracle_at_every_budget(values, objective):
    """Small integer entries tie many rows' scores in exact arithmetic, so
    both the certified float32 steps and the float64 replay are hit."""
    assume(np.all(np.any(values != 0, axis=1)))
    m = build_token_matrix(*values.shape, values)
    for k in range(1, m.rows + 1):
        want = blockwise_greedy_oracle(m, k, objective)
        assert greedy_rep_max(m, k, objective) == want


@st.composite
def gram_shaped_int_rows(draw):
    n = draw(st.integers(2, 16))
    dim = draw(st.integers(2 * n, 2 * n + 8))
    return draw(hnp.arrays(np.int8, (n, dim), elements=st.integers(-2, 2)))


@PROPERTY_SETTINGS
@given(gram_shaped_int_rows(), st.sampled_from(["sum_distance", "min_distance"]))
def test_gram_source_matches_blockwise_oracle_at_every_budget(values, objective):
    """With 2 n <= dim the kept float32 gram is small and the larger
    budgets recheck many steps in float64, where small integer entries tie
    many rows' scores too."""
    assume(np.all(np.any(values != 0, axis=1)))
    m = build_token_matrix(*values.shape, values)
    for k in range(1, m.rows + 1):
        want = blockwise_greedy_oracle(m, k, objective)
        assert greedy_rep_max(m, k, objective) == want


@st.composite
def rows_across_norm_scales(draw):
    """Small-integer rows times per-row powers of ten from 1e-11 to 1e37;
    zero entries may hold a subnormal float32 value instead."""
    n = draw(st.integers(2, 16))
    dim = draw(st.integers(1, 6))
    ints = draw(hnp.arrays(np.int8, (n, dim), elements=st.integers(-2, 2)))
    ints[~np.any(ints != 0, axis=1), 0] = 1
    exponents = draw(hnp.arrays(np.int64, n, elements=st.integers(-11, 37)))
    tiny = draw(hnp.arrays(np.int64, (n, dim), elements=st.integers(-3, 3)))
    rows = ints * 10.0 ** exponents[:, None]
    rows = np.where(ints == 0, tiny * 2.0**-140, rows)  # 2**-140 < 2**-126
    return rows.astype(np.float32)


@PROPERTY_SETTINGS
@given(rows_across_norm_scales())
def test_greedy_matches_blockwise_oracle_across_norm_scales(values):
    """Row norms 1e-11 .. 1e37 within one image make the largest scale and
    the underflow term of the float32 bound large, and subnormal entries
    make products underflow; the certified steps must still pick the
    float64 computation's rows."""
    m = build_token_matrix(*values.shape, values)
    for objective in ("sum_distance", "min_distance"):
        for k in range(1, m.rows + 1):
            want = blockwise_greedy_oracle(m, k, objective)
            assert greedy_rep_max(m, k, objective) == want


@st.composite
def rows_up_to_the_norm_guard(draw):
    """Small-integer rows, no more of them than dims, times per-row powers
    of two, so that row norms run from 2**-39 to just under 2**63, the
    float32 sources' guard; zero entries may hold a subnormal float32
    value instead."""
    dim = draw(st.integers(2, 12))
    n = draw(st.integers(2, dim))
    ints = draw(hnp.arrays(np.int8, (n, dim), elements=st.integers(-2, 2)))
    ints[~np.any(ints != 0, axis=1), 0] = 1
    # 1 <= |ints row| < 8 = 2**3, so the norms stay below 2**63
    exponents = draw(hnp.arrays(np.int64, n, elements=st.integers(-39, 60)))
    tiny = draw(hnp.arrays(np.int64, (n, dim), elements=st.integers(-3, 3)))
    rows = ints * 2.0 ** exponents[:, None]
    rows = np.where(ints == 0, tiny * 2.0**-140, rows)  # 2**-140 < 2**-126
    return rows.astype(np.float32)


@PROPERTY_SETTINGS
@given(rows_up_to_the_norm_guard())
def test_kept_gram_matches_blockwise_oracle_up_to_the_norm_guard(values):
    """Raw float32 dot products of rows with norms up to just under 2**63
    come close to float32's range, and their scales up to 2**39 make the
    underflow term of the bound large; the kept float32 gram (n <= dim)
    must still pick the float64 computation's rows at every budget."""
    m = build_token_matrix(*values.shape, values)
    assert np.sqrt(m.norms_sq).max() < 2.0**63
    for objective in ("sum_distance", "min_distance"):
        for k in range(1, m.rows + 1):
            want = blockwise_greedy_oracle(m, k, objective)
            assert greedy_rep_max(m, k, objective) == want


@PROPERTY_SETTINGS
@given(rows_up_to_the_norm_guard(), st.integers(1, 4), st.integers(2, 6))
def test_seed_filter_agrees_over_kept_and_streamed_blocks(values, tile_rows, tile_cols):
    """The seed filter over one score source read as a kept gram and as
    streamed tiles of the same scaled rows, of any tile size, either finds
    the float64 computation's seed pair or defers to it."""
    m = build_token_matrix(*values.shape, values)
    want = selection._exact_seed_pair(m.unit64())
    job = selection._Greedy(m, 1, "sum_distance")
    tol = 2 * job.eps + 2 * selection._delta(m.dim)
    with mock.patch.multiple(selection, _TILE_ROWS=tile_rows, _TILE_COLS=tile_cols):
        tiles = selection._tiles(m.rows)
    streamed = [
        selection._reduce(
            selection._tile(m.data, job.scale, *tile), tile[0], tile[2], tol
        )
        for tile in tiles
    ]
    gram = selection._scaled_gram(m.data, job.scale)
    for parts in ([selection._reduce(gram, 0, 0, tol)], streamed):
        found = selection._merge(parts, tol)
        assert selection._certified_seed_pair(m, found) in (None, want)


@st.composite
def mixed_stage1_jobs(draw):
    """Images of one dim, each with its budget, of the four stage-1 job
    kinds: k >= rows; a row norm of 2**64, so no score source; no more
    rows than dims, so a kept gram; and more rows than dims and at least
    6, so several tiles of at most 4 x 6."""
    dim = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["all", "huge", "kept", "tiled"]), min_size=1, max_size=6
        )
    )
    images = []
    for kind in kinds:
        if kind == "tiled":
            n = draw(st.integers(max(dim + 1, 6), 40))
        else:
            n = draw(st.integers(2, dim if kind == "kept" else 30))
        k = draw(st.integers(n, n + 2) if kind == "all" else st.integers(1, n - 1))
        values = rng.standard_normal((n, dim))
        if kind == "huge":
            row = values[draw(st.integers(0, n - 1))]
            row *= 2.0**64 / np.linalg.norm(row)
        images.append((kind, build_token_matrix(n, dim, values), k))
    return images


@PROPERTY_SETTINGS
@given(
    mixed_stage1_jobs(),
    st.integers(1, 4),
    st.sampled_from(["sum_distance", "min_distance"]),
)
def test_pooled_stage1_matches_each_images_greedy(images, workers, objective):
    """Stage 1 on 1-4 workers, over jobs of every kind in one list, gives
    each image's own greedy_rep_max selection."""
    with mock.patch.multiple(selection, _TILE_ROWS=4, _TILE_COLS=6):
        want = [greedy_rep_max(m, k, objective) for _, m, k in images]
        jobs = [selection._Greedy(m, k, objective) for _, m, k in images]
        for (kind, m, _), job in zip(images, jobs):
            assert (job.items > 1) == (kind == "tiled")
            assert (job.scale is None) == (kind in ("all", "huge"))
        assert pipeline._stage1(jobs, workers) == want


@st.composite
def segmented_rows(draw):
    """Float32 rows split into image segments of random sizes (a count of
    one included, most of them no multiple of the chunk size), then a
    text segment that may be empty, at dims 1-70 and 1100; row norms
    spread over e**+-8."""
    dim = draw(st.one_of(st.integers(1, 70), st.just(1100)))
    counts = draw(st.lists(st.integers(1, 75), min_size=1, max_size=4))
    n_text = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(counts) + n_text
    values = rng.standard_normal((n, dim)) * np.exp(rng.uniform(-8, 8, (n, 1)))
    ends = (*np.cumsum(counts).tolist(), n)
    return values.astype(np.float32), ends


@PROPERTY_SETTINGS
@given(segmented_rows())
def test_widening_pass_matches_a_float64_reference(case):
    """One widening of every row gives the norms of einsum on the widened
    rows bit for bit, and each segment's unit-row and raw-row sums within
    1e-12 of the float64 sums, relative to the sum of the terms' sizes."""
    values, ends = case
    norms_sq, sums = types._widen(values, ends)
    wide = values.astype(np.float64)
    np.testing.assert_array_equal(norms_sq, np.einsum("ij,ij->i", wide, wide))
    unit = wide / np.sqrt(norms_sq)[:, None]
    assert sums.shape == (len(ends), 2, values.shape[1])
    for s, (lo, hi) in enumerate(zip((0, *ends[:-1]), ends)):
        for got, rows in zip(sums[s], (unit[lo:hi], wide[lo:hi])):
            size = np.abs(rows).sum(axis=0)
            assert np.all(np.abs(got - rows.sum(axis=0)) <= 1e-12 * size)


@PROPERTY_SETTINGS
@given(segmented_rows())
def test_bundle_views_carry_their_own_segment_sums(case):
    """An image's sums depend on its rows alone: the bundle's views, a
    bundle re-split from one segment, and each image built on its own
    agree bit for bit."""
    values, ends = case
    n, dim = values.shape
    counts = [hi - lo for lo, hi in zip((0, *ends[:-2]), ends[:-1])]
    images = [
        build_token_matrix(c, dim, values[lo:hi])
        for c, lo, hi in zip(counts, (0, *ends[:-2]), ends[:-1])
    ]
    text = build_token_matrix(n - ends[-2], dim, values[ends[-2] :])
    bundle = make_bundle(images, text)
    resplit = TokenBundle(build_token_matrix(n, dim, values), counts)
    for b in (bundle, resplit):
        for view, alone in zip((*b.images, b.text), (*images, text)):
            np.testing.assert_array_equal(view.row_sums(), alone.row_sums())


@PROPERTY_SETTINGS
@given(
    segmented_rows(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0]),
)
def test_widening_pass_names_the_first_bad_row(case, where, bad):
    """A NaN, an infinity or a zero row anywhere raises with its index,
    checked before any reciprocal, so no RuntimeWarning is raised."""
    values, ends = case
    row = where % len(values)
    if bad == 0.0:
        values[row] = 0.0
    else:
        values[row, where % values.shape[1]] = bad
    error = ZeroNormRow if bad == 0.0 else NonFiniteRow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            types._widen(values, ends)
        assert err.value.index == row
        with pytest.raises(error) as err:
            build_token_matrix(*values.shape, values)
        assert err.value.index == row


def _hostile():
    """Arbitrary objects for any argument slot: None, bools, huge and
    negative integers, non-finite floats, strings, bytes, arrays of other
    dtypes and shapes, 0-d arrays and wrong containers."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.complex_numbers(),
        st.text(max_size=4),
        st.binary(max_size=4),
        st.integers(-3, 3).map(np.array),  # 0-d, so not iterable
    )
    arrays = hnp.arrays(
        st.sampled_from(
            [np.float64, np.float32, np.int64, np.uint8, np.bool_, np.complex64,
             "U2", "M8[s]"]
        ),
        hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
    )
    return st.recursive(
        st.one_of(scalars, arrays),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.tuples(inner, inner),
            st.dictionaries(st.integers(0, 3), inner, max_size=2),
            st.frozensets(st.integers(-3, 3), max_size=3),
        ),
        max_leaves=6,
    )


def _only_package_errors(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except TokenTrimError:
            pass


@PROPERTY_SETTINGS
@given(
    st.one_of(_hostile(), st.integers(0, 3)),
    st.one_of(_hostile(), st.integers(1, 3), st.integers(2**32 - 2, 2**80)),
    st.one_of(_hostile(), hnp.arrays(np.float64, st.integers(0, 6))),
)
@example(0, 2**62, [])  # numpy's ValueError: array is too big
@example(1, 1, np.array([1e300]))  # overflow RuntimeWarning in the cast
def test_build_token_matrix_raises_only_package_errors(rows, dim, values):
    _only_package_errors(lambda: build_token_matrix(rows, dim, values))


@PROPERTY_SETTINGS
@given(
    st.one_of(_hostile(), st.just(np.ones((2, 3), np.float32))),
    st.one_of(_hostile(), st.just(np.full(2, 3.0))),
    st.one_of(_hostile(), st.just(np.ones((2, 3)))),
    _hostile(),
)
@example("ab", None, None, None)  # AttributeError in setflags
def test_token_matrix_raises_only_package_errors(data, norms_sq, sums, token):
    _only_package_errors(lambda: TokenMatrix(data, norms_sq, sums, token))


@PROPERTY_SETTINGS
@given(
    st.one_of(_hostile(), st.just(build_token_matrix(3, 2, np.arange(1, 7)))),
    st.one_of(_hostile(), st.lists(st.integers(-1, 4), max_size=3)),
)
@example(build_token_matrix(3, 2, np.arange(1, 7)), np.array(2))  # 0-d counts
def test_token_bundle_raises_only_package_errors(rows, counts):
    _only_package_errors(lambda: TokenBundle(rows, counts))


@PROPERTY_SETTINGS
@given(
    st.one_of(
        _hostile(),
        st.lists(
            st.one_of(_hostile(), st.just(build_token_matrix(1, 2, [1, 2]))),
            max_size=3,
        ),
    ),
    st.one_of(_hostile(), st.just(build_token_matrix(1, 2, [3, 4]))),
)
@example(np.array(2), build_token_matrix(1, 2, [3, 4]))  # 0-d images
def test_make_bundle_raises_only_package_errors(images, text):
    _only_package_errors(lambda: make_bundle(images, text))


_SMALL = TokenBundle(build_token_matrix(5, 2, np.arange(1, 11)), (2, 2))
_REPORT, _SEL = prune(_SMALL, PruneConfig(final_tokens=2, retention_ratio=None))


def _fields_of(record):
    """Each field of ``record`` kept, replaced by a hostile object or by a
    plausible container of small integers."""
    near = st.one_of(
        st.lists(st.integers(-2, 6), max_size=4),
        st.lists(st.lists(st.integers(-2, 6), max_size=3), max_size=3),
    )
    return st.fixed_dictionaries({
        f.name: st.one_of(st.just(getattr(record, f.name)), _hostile(), near)
        for f in dataclasses.fields(record)
    })


@PROPERTY_SETTINGS
@given(_fields_of(_SEL))
@example({"stage_sizes": (4, "x", None, 2)})
def test_apply_selection_raises_only_package_errors(fields):
    sel = dataclasses.replace(_SEL, **fields)
    _only_package_errors(lambda: apply_selection(_SMALL, sel))


@PROPERTY_SETTINGS
@given(_fields_of(_REPORT), _fields_of(_SEL))
@example({"d_inter": object()}, {"kept_per_image": 5})
def test_write_result_raises_only_package_errors(report_fields, sel_fields):
    report = dataclasses.replace(_REPORT, **report_fields)
    sel = dataclasses.replace(_SEL, **sel_fields)
    _only_package_errors(lambda: write_result(report, sel, os.devnull))


def _one_field(record_type, base):
    """``base``, the keyword arguments of a legal ``record_type``, with one
    field replaced by a hostile object."""
    names = [f.name for f in dataclasses.fields(record_type)]
    return st.tuples(st.sampled_from(names), _hostile()).map(
        lambda pair: {**base, pair[0]: pair[1]}
    )


@PROPERTY_SETTINGS
@given(_one_field(PruneConfig, {}))
def test_prune_config_raises_only_package_errors(kwargs):
    _only_package_errors(lambda: PruneConfig(**kwargs))


@PROPERTY_SETTINGS
@given(_one_field(SyntheticSpec, dict(n_images=1, tokens_per_image=2, dim=2, seed=0)))
@example(dict(n_images=1, tokens_per_image=2**62, dim=2, seed=0))  # beyond u32
def test_synthetic_spec_raises_only_package_errors(kwargs):
    """Only the spec is built: a legal but huge one would take hours to
    generate."""
    _only_package_errors(lambda: SyntheticSpec(**kwargs))


@PROPERTY_SETTINGS
@given(
    st.one_of(_hostile(), st.floats()),
    st.one_of(_hostile(), st.integers(0, 6)),
    st.one_of(_hostile(), st.integers(0, 6)),
    st.one_of(_hostile(), st.floats()),
)
@example(float("nan"), 1, 5, 0.5)  # ValueError in the rounding
@example(float("inf"), 1, 5, 0.0)  # 0 * inf is NaN
def test_stage1_budget_raises_only_package_errors(s, m_min, m_max, lam):
    _only_package_errors(lambda: allocation.stage1_budget(s, m_min, m_max, lam))


_weight_lists = st.one_of(_hostile(), st.lists(st.floats(), max_size=4))


@PROPERTY_SETTINGS
@given(_weight_lists, st.one_of(_hostile(), st.booleans()))
@example([], True)  # ZeroDivisionError in the uniform fallback
def test_image_weights_raises_only_package_errors(d_intra, last_image_rule):
    _only_package_errors(lambda: allocation.image_weights(d_intra, last_image_rule))


@PROPERTY_SETTINGS
@given(
    _weight_lists,
    st.one_of(_hostile(), st.integers(0, 12)),
    st.one_of(_hostile(), st.lists(st.integers(-1, 6), max_size=4)),
)
@example([float("nan"), 1.0], 3, [3, 3])  # ValueError in math.floor
@example([1e308, 1e308], 3, [3, 3])  # OverflowError in math.fsum
@example([1e308, -1e308, 1e-300], 3, [3, 3, 3])  # OverflowError in math.floor
def test_per_image_budgets_raises_only_package_errors(weights, m1, caps):
    _only_package_errors(lambda: allocation.per_image_budgets(weights, m1, caps))


_CFG = PruneConfig(final_tokens=2, retention_ratio=None)
_NO_TEXT = TokenBundle(_SMALL.rows.gather(slice(0, 4)), (2, 2))
_bundles = st.one_of(_hostile(), st.sampled_from([_SMALL, _NO_TEXT]))
_configs = st.one_of(_hostile(), st.just(_CFG))


@PROPERTY_SETTINGS
@given(_bundles, _configs)
def test_analyze_raises_only_package_errors(bundle, cfg):
    _only_package_errors(lambda: analyze(bundle, cfg))


@PROPERTY_SETTINGS
@given(_bundles, _configs, st.one_of(_hostile(), st.just(1)))
def test_prune_raises_only_package_errors(bundle, cfg, threads):
    _only_package_errors(lambda: prune(bundle, cfg, threads))


@PROPERTY_SETTINGS
@given(_hostile())
@example("a\x00")  # open's ValueError: embedded null byte
@example(b"\x00")
@example("\ud800")  # a lone surrogate the file system cannot encode
def test_read_bundle_raises_only_package_errors(path):
    _only_package_errors(lambda: read_bundle(path))


@PROPERTY_SETTINGS
@given(_hostile())
def test_write_bundle_raises_only_package_errors(bundle):
    """Only the bundle is hostile: a hostile str or bytes path would
    create a file."""
    _only_package_errors(lambda: write_bundle(bundle, os.devnull))


def _below(path) -> bool:
    """Whether a relative ``path`` has no ".." component."""
    if isinstance(path, bytes):
        return b".." not in path.split(b"/")
    return ".." not in path.split("/")


# A str or bytes path made relative by its "./" prefix and kept below the
# working directory, which the writers' tests set to a temporary one.
_relative_paths = st.one_of(
    st.text(max_size=300).map(lambda p: "./" + p),
    st.binary(max_size=300).map(lambda p: b"./" + p),
).filter(_below)
_WRITER_SETTINGS = settings(
    PROPERTY_SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_WRITER_SETTINGS
@given(_relative_paths)
@example("./a\x00")
@example(b"./\xff\x00")
@example("./\ud800")
@example("./")  # the working directory itself
@example("./missing/dir/x")
@example("./" + "n" * 300)  # a name longer than file systems allow
def test_write_bundle_paths_raise_only_package_errors(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    _only_package_errors(lambda: write_bundle(_SMALL, path))


@_WRITER_SETTINGS
@given(_relative_paths)
@example("./a\x00")
@example("./\ud800")
@example("./")
@example("./" + "n" * 300)
def test_write_result_paths_raise_only_package_errors(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    _only_package_errors(lambda: write_result(_REPORT, _SEL, path))
