"""Golden selections: fixed seeded bundles must select the same tokens.

The expected values are literals, so any change that flips a selection,
a budget or a stage size fails here.  Every bundle has noise > 0, which
keeps the greedy argmins away from exact ties.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tokentrim import (
    PruneConfig,
    SyntheticSpec,
    generate_synthetic,
    prune,
    write_bundle,
)

CASES = {
    "ratio-sum": (
        SyntheticSpec(3, 48, 32, seed=101, clusters=6, noise=0.3, drift=0.2, text_tokens=8),
        PruneConfig(m_min=40, m_max=90, m2=30, retention_ratio=0.1),
        {
            "m1": 90,
            "per_image_budgets": (30, 30, 30),
            "stage_sizes": (144, 90, 30, 14),
            "kept_global": (27, 29, 30, 48, 54, 64, 70, 77, 80, 82, 85, 86, 88, 143),
        },
    ),
    "final-min": (
        SyntheticSpec(4, 64, 64, seed=102, clusters=8, noise=0.25, drift=0.15, text_tokens=12),
        PruneConfig(
            m_min=60, m_max=160, m2=40, final_tokens=20, retention_ratio=None,
            greedy_objective="min_distance",
        ),
        {
            "m1": 137,
            "per_image_budgets": (34, 35, 34, 34),
            "stage_sizes": (256, 137, 40, 20),
            "kept_global": (
                20, 25, 53, 55, 77, 98, 103, 107, 112, 118, 121, 136, 153, 157,
                176, 187, 208, 211, 245, 249,
            ),
        },
    ),
    "ratio-positionwise": (
        SyntheticSpec(5, 100, 48, seed=103, clusters=10, noise=0.2, drift=0.1, text_tokens=16),
        PruneConfig(
            m_min=100, m_max=300, m2=60, retention_ratio=0.05,
            inter_variant="position_wise",
        ),
        {
            "m1": 236,
            "per_image_budgets": (47, 47, 48, 47, 47),
            "stage_sizes": (500, 236, 60, 25),
            "kept_global": (
                20, 28, 29, 30, 34, 85, 106, 117, 125, 178, 187, 224, 235, 253,
                266, 293, 362, 404, 406, 432, 435, 440, 444, 450, 454,
            ),
        },
    ),
    "final-min-normalized": (
        SyntheticSpec(3, 200, 128, seed=104, clusters=16, noise=0.2, drift=0.3, text_tokens=20),
        PruneConfig(
            m_min=80, m_max=240, m2=50, final_tokens=25, retention_ratio=None,
            align_on_normalized=True, greedy_objective="min_distance",
        ),
        {
            "m1": 168,
            "per_image_budgets": (56, 56, 56),
            "stage_sizes": (600, 168, 50, 25),
            "kept_global": (
                14, 25, 37, 39, 41, 49, 64, 65, 68, 78, 85, 107, 154, 231, 288,
                290, 309, 397, 507, 517, 524, 525, 552, 559, 560,
            ),
        },
    ),
    "ratio-positionwise-normalized": (
        SyntheticSpec(6, 60, 32, seed=105, clusters=5, noise=0.4, drift=0.05, text_tokens=6),
        PruneConfig(
            m_min=50, m_max=200, m2=45, retention_ratio=0.08,
            inter_variant="position_wise", align_on_normalized=True,
            last_image_rule=False,
        ),
        {
            "m1": 136,
            "per_image_budgets": (22, 23, 23, 23, 23, 22),
            "stage_sizes": (360, 136, 45, 29),
            "kept_global": (
                3, 25, 40, 45, 54, 58, 74, 80, 82, 86, 93, 94, 115, 117, 127,
                130, 163, 176, 185, 199, 206, 239, 250, 253, 283, 316, 322, 339,
                359,
            ),
        },
    ),
    "final-sum-lambda": (
        SyntheticSpec(4, 150, 96, seed=106, clusters=16, noise=0.15, drift=0.25, text_tokens=10),
        PruneConfig(
            m_min=90, m_max=300, m2=70, final_tokens=30, retention_ratio=None,
            lam=1.0,
        ),
        {
            "m1": 300,
            "per_image_budgets": (75, 75, 75, 75),
            "stage_sizes": (600, 300, 70, 30),
            "kept_global": (
                9, 18, 62, 69, 79, 93, 101, 126, 187, 228, 273, 279, 283, 289,
                320, 326, 346, 372, 377, 430, 448, 475, 488, 498, 523, 534, 562,
                588, 590, 597,
            ),
        },
    ),
}


def run_case(name):
    spec, cfg, _ = CASES[name]
    report, sel = prune(generate_synthetic(spec), cfg)
    return {
        "m1": report.m1,
        "per_image_budgets": report.per_image_budgets,
        "stage_sizes": sel.stage_sizes,
        "kept_global": sel.kept_global,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_selection(name):
    assert run_case(name) == CASES[name][2]


def test_single_blas_thread_child_agrees():
    """A child process with one BLAS/OpenMP thread keeps the same tokens."""
    name = "final-sum-lambda"
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), str(tests_dir), env.get("PYTHONPATH")) if p
    )
    code = (
        "import json, test_golden; "
        f"print(json.dumps(test_golden.run_case({name!r})['kept_global']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert tuple(json.loads(out.stdout)) == CASES[name][2]["kept_global"]


def test_analyze_result_is_identical_across_blas_threads(tmp_path):
    """The build's widening pass sums each image's rows with a BLAS product:
    ``tokentrim analyze`` on a 4 x 576 x 1024 bundle writes byte-identical
    results with one and with two BLAS threads."""
    bundle = generate_synthetic(
        SyntheticSpec(4, 576, 1024, seed=7, clusters=16, noise=0.3, drift=0.05)
    )
    path = tmp_path / "b.ttb"
    write_bundle(bundle, path)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"analyze-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH")) if p
        )
        subprocess.run(
            [sys.executable, "-m", "tokentrim.cli", "analyze",
             "--input", str(path), "--output", str(out)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        results.append(out.read_bytes())
    assert results[0] == results[1]
    assert json.loads(results[0])["report"]["d_inter"] > 0


def test_prune_result_is_identical_across_blas_threads(tmp_path):
    """``tokentrim prune`` on an 8 x 576 x 1024 bundle writes byte-identical
    results with one BLAS thread, where stage 1 runs in the calling thread,
    and with two, where it runs on two workers with BLAS set to one
    thread for the request."""
    bundle = generate_synthetic(
        SyntheticSpec(8, 576, 1024, seed=7, clusters=16, noise=0.3, drift=0.05)
    )
    path = tmp_path / "b.ttb"
    write_bundle(bundle, path)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"prune-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH")) if p
        )
        subprocess.run(
            [sys.executable, "-m", "tokentrim.cli", "prune", "--final", "64",
             "--input", str(path), "--output", str(out)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        results.append(out.read_bytes())
    assert results[0] == results[1]
    assert json.loads(results[0])["selection"]["stage_sizes"][3] == 64
