"""Tests of the benchmark's own checks, on bundles small enough to run fast.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

assert run.import_program()

import harness  # noqa: E402
from tokentrim import io_formats, pipeline  # noqa: E402

TOKENS = 40
TINY = {
    w.name: w
    for w in (
        harness.Workload("tiny_prune", 3, TOKENS, 16, "prune", final=8, emit=True),
        harness.Workload("tiny_analyze", 3, TOKENS, 16, "analyze"),
    )
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, a golden fixture for them, and scratch space in tmp_path."""
    monkeypatch.setattr(harness, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(harness, "WORKLOADS", TINY)
    monkeypatch.setattr(harness, "SETUP_BATCH", 1)
    golden = tmp_path / "golden.json"
    harness.write_golden(golden, TINY.values())
    monkeypatch.setattr(harness, "GOLDEN_PATH", golden)
    return golden


@pytest.fixture
def command(capsys):
    """Runs the benchmark command in-process; returns (exit code, last line as JSON)."""

    def run_command(workload: str, seed: int = harness.DEFAULT_SEED, trace: int = 0):
        rc = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
        )
        return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return run_command


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_clean_runs_pass(tiny, command, workload, trace):
    rc, result = command(workload, trace=trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = set(harness.UNITS) if trace == 0 else set(harness.PER_LAYER)
    assert set(result["metrics"]) == want


def test_analyze_traces_no_selection_work(tiny, command):
    _, result = command("tiny_analyze", trace=1)
    m = result["metrics"]
    for name in ("selection.stage1_rows_out", "selection.stage2_rows_out", "selection.kept_rows"):
        assert m[name]["value"] == 0
    # Empty spans read only the timer's own cost.
    for name in ("selection.stage1_ms", "selection.stage2_ms", "selection.pareto_ms"):
        assert 0 < m[name]["value"] < 0.1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_golden_entry_fails_the_command(tiny, command, workload):
    doc = json.loads(tiny.read_text())
    doc["workloads"][workload][1]["m1"] += 1
    tiny.write_text(json.dumps(doc))
    rc, result = command(workload)
    assert rc == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def _swap_last_kept(sel):
    """A selection that keeps one other candidate, consistent in itself."""
    kept = set(sel.kept_global)
    spare = next(g for g, _, _ in sel.scores if g not in kept)
    kept_global = tuple(sorted((kept - {sel.kept_global[-1]}) | {spare}))
    per_image = tuple(
        tuple(g - lo for g in kept_global if lo <= g < lo + TOKENS)
        for lo in range(0, TOKENS * len(sel.kept_per_image), TOKENS)
    )
    return dataclasses.replace(sel, kept_global=kept_global, kept_per_image=per_image)


def _split_brain(sel):
    """A selection whose per-image indices disagree with kept_global."""
    per_image = list(sel.kept_per_image)
    k = next(k for k, loc in enumerate(per_image) if loc)
    per_image[k] = per_image[k][1:]
    return dataclasses.replace(sel, kept_per_image=tuple(per_image))


@pytest.mark.parametrize(
    "mutate, seed",
    [
        (_swap_last_kept, harness.DEFAULT_SEED),  # caught by the golden fixture
        (_split_brain, 5),  # caught by the invariants alone
    ],
)
@pytest.mark.parametrize("trace", [0, 1])
def test_mutated_selection_fails_the_command(tiny, command, monkeypatch, mutate, seed, trace):
    original = pipeline.prune

    def mutated(bundle, cfg, threads=1):
        report, sel = original(bundle, cfg, threads)
        return report, mutate(sel)

    monkeypatch.setattr(pipeline, "prune", mutated)
    rc, result = command("tiny_prune", seed=seed, trace=trace)
    assert rc == 1
    assert 0 < result["failed"] <= result["attempted"]


def test_traced_rebuild_must_match_pipeline(tiny, command, monkeypatch):
    original = harness.traced_request

    def drifted(*args):
        ms, counts, report, sel = original(*args)
        return ms, counts, report, _swap_last_kept(sel)

    monkeypatch.setattr(harness, "traced_request", drifted)
    rc, result = command("tiny_prune", seed=2, trace=1)
    assert rc == 1
    assert result["failed"] > 0


def test_altered_emitted_rows_fail_the_command(tiny, command, monkeypatch):
    original = io_formats.write_bundle

    def flip_one_bit(bundle, path):
        original(bundle, path)
        raw = bytearray(Path(path).read_bytes())
        raw[-1] ^= 1
        Path(path).write_bytes(bytes(raw))

    monkeypatch.setattr(io_formats, "write_bundle", flip_one_bit)
    rc, result = command("tiny_prune", seed=3)
    assert rc == 1
    assert result["failed"] > 0


def _more_candidates_than_stage1(doc):
    sel = doc["selection"]
    stages = sel["stage_sizes"]
    sel["scores"] += [[10**6 + i, 0.0, 0.0] for i in range(stages[1] + 1 - stages[2])]
    stages[2] = stages[1] + 1


def _lose_one_quota_unit(doc):
    doc["report"]["per_image_budgets"][0] -= 1


def _drop_one_local_index(doc):
    doc["selection"]["kept_per_image"][-1].pop()


def _forget_candidates(doc):
    doc["selection"]["scores"] = doc["selection"]["scores"][:1]


@pytest.mark.parametrize(
    "corrupt",
    [_more_candidates_than_stage1, _lose_one_quota_unit, _drop_one_local_index, _forget_candidates],
)
def test_each_invariant_is_checked(tmp_path, corrupt):
    wl = TINY["tiny_prune"]
    entry = harness.make_pool(wl, 0, tmp_path)[0]
    out = tmp_path / "result.json"
    assert harness.cli.main(wl.argv(entry.path, out, None)) == 0
    assert harness.check_output(wl, entry, out, None)[0] == []
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    assert harness.check_output(wl, entry, out, None)[0] != []


def test_seed_decides_the_inputs(tmp_path):
    wl = TINY["tiny_prune"]
    digests = {}
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        (tmp_path / name).mkdir()
        digests[name] = [e.sha256 for e in harness.make_pool(wl, seed, tmp_path / name)]
    assert digests["a"] == digests["b"]
    assert all(x != y for x, y in zip(digests["a"], digests["c"]))
    assert len(set(digests["a"])) == len(digests["a"])


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, harness.layer_unit(name)) for name in harness.PER_LAYER
    ]


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 41)]
    value, pct = harness.tail(latencies)
    assert sum(x > value for x in latencies) == harness.TAIL_BEYOND
    assert pct == 75.0


def test_missing_program_exits_nonzero_without_result(tmp_path):
    """A directory with only the benchmark's files has no program to run."""
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE.parent, bench, ignore=shutil.ignore_patterns("_work", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "video_32x576",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
