"""End-to-end acceptance checks.

Each test covers one release criterion, accumulates every violation it
finds, prints a single ``[PASS]``/``[FAIL]`` line (run pytest with ``-s``
to see them), and only then asserts.  Stated runtime ceilings are part of
the criteria and are enforced.
"""

import struct
import time

import numpy as np

from tokentrim import (
    PruneConfig,
    SyntheticSpec,
    analyze,
    build_token_matrix,
    generate_synthetic,
    make_bundle,
    prune,
    read_bundle,
    write_bundle,
)
from tokentrim.allocation import per_image_budgets, stage1_budget
from tokentrim.bench import (
    SPEEDUP_FLOORS,
    alignment_naive,
    intra_diversity_naive,
    pareto_front_naive,
    run_suite,
    token_diversity_naive,
)
from tokentrim.errors import (
    BadMagic,
    BadVersion,
    BenchGateFailure,
    TruncatedFile,
)
from tokentrim.metrics import (
    alignment_fast,
    build_alignment_context,
    inter_variation_positionwise,
    inter_variation_steps,
    intra_diversity_fast,
    token_diversity_fast,
)
from tokentrim.selection import (
    ParetoPoint,
    greedy_rep_max,
    pareto_front_sortscan,
)
from tokentrim.types import resolve_config


def _finish(num, label, failures):
    ok = not failures
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} ({label}): " + " | ".join(
        str(f) for f in failures[:5]
    )


def _random_matrix(rng, rows, dim):
    return build_token_matrix(rows, dim, rng.standard_normal(rows * dim))


def _random_bundle(rng, sizes, dim, text_rows=6):
    images = [_random_matrix(rng, m, dim) for m in sizes]
    return make_bundle(images, _random_matrix(rng, text_rows, dim))


def test_criterion_01_diversity_oracle():
    failures = []
    try:
        t0 = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                n = int(rng.integers(2, 513))
                dim = int(rng.integers(4, 257))
                mat = _random_matrix(rng, n, dim)

                d_naive = intra_diversity_naive(mat)
                d_fast = intra_diversity_fast(mat)
                tol = 1e-6 * max(1.0, abs(d_naive))
                if abs(d_fast - d_naive) > tol:
                    failures.append(
                        f"seed {seed} n={n} dim={dim}: intra "
                        f"|{d_fast - d_naive:.3e}| > {tol:.1e}"
                    )

                v_naive = token_diversity_naive(mat)
                v_fast = token_diversity_fast(mat)
                tol_v = 1e-6 * np.maximum(1.0, np.abs(v_naive))
                worst = np.max(np.abs(v_fast - v_naive) - tol_v)
                if worst > 0:
                    failures.append(
                        f"seed {seed} n={n} dim={dim}: v_i over tolerance "
                        f"by {worst:.3e}"
                    )
        elapsed = time.perf_counter() - t0
        if elapsed >= 60:
            failures.append(f"runtime {elapsed:.1f}s >= 60s")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(1, "fast diversity matches the quadratic oracle", failures)


def test_criterion_02_alignment_oracle():
    failures = []
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(97)
        for i in range(1000):
            n = int(rng.integers(1, 513))
            m = int(rng.integers(1, 129))
            dim = int(rng.integers(2, 257))
            vis = _random_matrix(rng, n, dim)
            text = _random_matrix(rng, m, dim)
            normalized = bool(i % 2)

            a_naive = alignment_naive(vis, text, normalized)
            ctx = build_alignment_context(text, normalized)
            a_fast = alignment_fast(vis, ctx, normalized)

            diff = np.abs(a_fast - a_naive)
            if diff.max() > 1e-4:
                failures.append(f"instance {i}: abs err {diff.max():.3e} > 1e-4")
            denom = np.abs(a_naive)
            big = denom > 1e-6
            if np.any(diff[big] > 1e-5 * denom[big]):
                failures.append(f"instance {i}: relative err > 1e-5")
            if np.any(diff[~big] > 1e-8):
                failures.append(f"instance {i}: near-zero score err > 1e-8")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60:
            failures.append(f"runtime {elapsed:.1f}s >= 60s")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(2, "fast alignment matches the direct average", failures)


def test_criterion_03_pareto_front_equivalence():
    failures = []
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        exhaustive_done = 0
        for i in range(1000):
            n = int(rng.integers(1, 513))
            if i % 5 < 2:  # engineered tie clusters on a coarse grid
                v = rng.integers(0, 8, n) / 4.0
                a = rng.integers(0, 8, n) / 4.0
            else:
                v = rng.standard_normal(n)
                a = rng.standard_normal(n)
            pts = [
                ParetoPoint(index=j, v=float(v[j]), a=float(a[j]))
                for j in range(n)
            ]
            got = sorted(pareto_front_sortscan(pts))
            oracle = sorted(pareto_front_naive(pts))
            if got != oracle:
                failures.append(f"instance {i} n={n}: sort-scan != naive")
                continue
            if n <= 256 and exhaustive_done < 200:
                exhaustive_done += 1
                dominated = (
                    (v[None, :] >= v[:, None])
                    & (a[None, :] >= a[:, None])
                    & ((v[None, :] > v[:, None]) | (a[None, :] > a[:, None]))
                ).any(axis=1)
                seen = {}
                shadow = np.zeros(n, dtype=bool)
                for j in range(n):
                    key = (float(v[j]), float(a[j]))
                    if key in seen:
                        shadow[j] = True
                    else:
                        seen[key] = j
                want = [
                    j for j in range(n) if not dominated[j] and not shadow[j]
                ]
                if got != want:
                    failures.append(
                        f"instance {i} n={n}: definition check mismatch"
                    )
        if exhaustive_done < 100:
            failures.append(f"only {exhaustive_done} exhaustive checks ran")
        elapsed = time.perf_counter() - t0
        if elapsed >= 30:
            failures.append(f"runtime {elapsed:.1f}s >= 30s")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(3, "sort-scan Pareto front matches the domination oracle", failures)


def test_criterion_04_budget_conservation():
    failures = []
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        for i in range(10_000):
            n = int(rng.integers(1, 10))
            caps = [int(c) for c in rng.integers(1, 60, size=n)]
            m1 = int(rng.integers(n, sum(caps) + 1))
            weights = [float(w) for w in rng.uniform(0.0, 1.0, size=n)]
            weights[int(rng.integers(n))] += 0.5  # guarantee positive mass
            quotas = per_image_budgets(weights, m1, caps)
            if sum(quotas) != m1:
                failures.append(f"instance {i}: sum {sum(quotas)} != {m1}")
            if any(not 1 <= q <= c for q, c in zip(quotas, caps)):
                failures.append(f"instance {i}: quota out of [1, cap]")
        elapsed = time.perf_counter() - t0
        if elapsed >= 10:
            failures.append(f"runtime {elapsed:.1f}s >= 10s")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(4, "apportionment conserves totals within caps", failures)


def test_criterion_05_stage1_budget_table():
    failures = []
    try:
        table = {0.0: 294, 1.0: 374, 1.5: 414, 2.0: 454, 3.0: 454}
        for s, want in table.items():
            got = stage1_budget(s, 294, 454, 0.5)
            if got != want:
                failures.append(f"s={s}: got {got}, want {want}")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(5, "default stage-1 budget interpolation table", failures)


def test_criterion_06_pipeline_invariants():
    failures = []
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(23)
        cfg = PruneConfig()
        for n in (1, 2, 3, 8, 32):
            for _ in range(40):
                sizes = [int(m) for m in rng.integers(4, 129, size=n)]
                dim = int(rng.integers(4, 65))
                bundle = _random_bundle(rng, sizes, dim)
                tag = f"n={n} sizes[0]={sizes[0]} dim={dim}"

                report, sel = prune(bundle, cfg)
                if (report, sel) != prune(bundle, cfg):
                    failures.append(f"{tag}: rerun differs")

                if any(q < 1 for q in report.per_image_budgets):
                    failures.append(f"{tag}: stage-1 floor violated")
                if sum(report.per_image_budgets) != report.m1:
                    failures.append(f"{tag}: quotas do not sum to m1")

                budgets = resolve_config(cfg, bundle, require_text=True)
                want_sizes = (
                    bundle.total_tokens,
                    report.m1,
                    min(budgets.m2, report.m1),
                    budgets.m_final,
                )
                if sel.stage_sizes != want_sizes:
                    failures.append(
                        f"{tag}: stage sizes {sel.stage_sizes} != {want_sizes}"
                    )

                offsets = bundle.offsets
                x1 = set()
                for k, (img, quota) in enumerate(
                    zip(bundle.images, report.per_image_budgets)
                ):
                    x1.update(
                        offsets[k] + i
                        for i in greedy_rep_max(img, quota, cfg.greedy_objective)
                    )
                cand = {g for g, _, _ in sel.scores}
                kept = set(sel.kept_global)
                if not kept <= cand <= x1:
                    failures.append(f"{tag}: stages are not nested")
                if (len(x1), len(cand), len(kept)) != sel.stage_sizes[1:]:
                    failures.append(f"{tag}: recomputed sizes disagree")
        elapsed = time.perf_counter() - t0
        if elapsed >= 120:
            failures.append(f"runtime {elapsed:.1f}s >= 120s")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(6, "pipeline stages nest, size exactly, and rerun identically", failures)


def test_criterion_07_last_image_rule():
    failures = []
    try:
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.choice([3, 4, 8, 16]))
            spec = SyntheticSpec(
                n_images=n,
                tokens_per_image=int(rng.integers(8, 64)),
                dim=16,
                seed=trial,
                clusters=int(rng.integers(1, 8)),
                noise=float(rng.uniform(0.0, 0.5)),
                drift=float(rng.uniform(0.0, 0.5)),
            )
            bundle = generate_synthetic(spec)
            with_rule = analyze(bundle, PruneConfig(last_image_rule=True))
            without = analyze(bundle, PruneConfig(last_image_rule=False))
            if with_rule.per_image_budgets[-1] < without.per_image_budgets[-1]:
                failures.append(
                    f"trial {trial} n={n}: rule shrank the last budget "
                    f"{with_rule.per_image_budgets[-1]} < "
                    f"{without.per_image_budgets[-1]}"
                )
        for trial in range(20):
            spec = SyntheticSpec(
                n_images=2,
                tokens_per_image=int(rng.integers(8, 64)),
                dim=16,
                seed=1000 + trial,
                clusters=4,
                noise=0.2,
                drift=0.3,
            )
            bundle = generate_synthetic(spec)
            on = prune(bundle, PruneConfig(last_image_rule=True))
            off = prune(bundle, PruneConfig(last_image_rule=False))
            if on != off:
                failures.append(f"trial {trial}: n=2 outputs differ")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(7, "last-image promotion never shrinks its budget", failures)


def test_criterion_08_kernel_speedups():
    failures = []
    try:
        t0 = time.perf_counter()
        try:
            results = run_suite(
                ("diversity", "alignment", "pareto"), repeats=5, seed=7
            )
        except BenchGateFailure as exc:
            failures.append(f"agreement gate tripped: {exc}")
            results = []
        for r in results:
            floor = SPEEDUP_FLOORS[r.kernel]
            if r.speedup < floor:
                failures.append(
                    f"{r.kernel}: {r.speedup:.2f}x below {floor:.1f}x floor"
                )
        elapsed = time.perf_counter() - t0
        if elapsed >= 120:
            failures.append(f"runtime {elapsed:.1f}s >= 120s")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(8, "fast kernels clear the derated speedup floors", failures)


def test_criterion_09_positionwise_vs_global():
    failures = []
    try:
        e = np.eye(4, dtype=np.float64)
        first = build_token_matrix(2, 4, np.concatenate([e[0], e[1]]))
        swapped = build_token_matrix(2, 4, np.concatenate([e[1], e[0]]))
        text = build_token_matrix(1, 4, e[2])
        bundle = make_bundle([first, swapped], text)

        global_step = inter_variation_steps(bundle)[0]
        pw_step = inter_variation_positionwise(bundle)[0]
        if abs(global_step) > 1e-9:
            failures.append(f"global mean saw motion: {global_step:.3e}")
        if abs(pw_step - 1.0) > 1e-9:
            failures.append(f"position-wise step {pw_step:.12f} != 1")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(9, "position-wise variation flags reordering the mean misses", failures)


def test_criterion_10_serialization(tmp_path):
    failures = []
    try:
        rng = np.random.default_rng(41)
        for trial in range(100):
            n = int(rng.integers(1, 5))
            sizes = [int(m) for m in rng.integers(1, 24, size=n)]
            dim = int(rng.integers(1, 32))
            bundle = _random_bundle(rng, sizes, dim, int(rng.integers(0, 6)))
            path = tmp_path / f"rt{trial}.ttb"
            write_bundle(bundle, path)
            back = read_bundle(path)
            same = np.array_equal(back.text.data, bundle.text.data) and all(
                np.array_equal(g.data, w.data)
                for g, w in zip(back.images, bundle.images)
            )
            if not same:
                failures.append(f"trial {trial}: round trip not bit-exact")
            second = tmp_path / f"rt{trial}b.ttb"
            write_bundle(back, second)
            if path.read_bytes() != second.read_bytes():
                failures.append(f"trial {trial}: rewrite bytes differ")

        good = (tmp_path / "rt0.ttb").read_bytes()
        cases = [
            (BadMagic, b"HUH?" + good[4:]),
            (BadVersion, good[:4] + struct.pack("<I", 99) + good[8:]),
            (TruncatedFile, good[:9]),
            (TruncatedFile, good[:-3]),
            (TruncatedFile, good + b"\xff\xff"),
        ]
        for want, payload in cases:
            bad = tmp_path / "bad.ttb"
            bad.write_bytes(payload)
            try:
                read_bundle(bad)
                failures.append(f"{want.__name__}: no error raised")
            except want:
                pass
            except Exception as exc:
                failures.append(
                    f"{want.__name__}: got {type(exc).__name__} instead"
                )
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(10, "binary round trip is bit-exact; malformed files rejected", failures)
