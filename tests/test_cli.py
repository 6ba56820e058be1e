"""Command-line interface: workflows, parity with the API, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tokentrim
from tokentrim import PruneConfig, analyze, apply_selection, prune, read_bundle
from tokentrim import bench, metrics, selection
from tokentrim.cli import main
from tokentrim.errors import BadSpec, BenchGateFailure
from tokentrim.io_formats import report_document, result_document
from tokentrim.types import TokenMatrix, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def gen_bundle(capsys, tmp_path, name="in.ttb", **kw):
    """Generate a small deterministic bundle file and return its path."""
    opts = {
        "images": 3, "tokens": 40, "dim": 16, "seed": 1,
        "clusters": 4, "noise": 0.2, "drift": 0.3, "text": 6,
    }
    opts.update(kw)
    path = tmp_path / name
    argv = ["gen", "--output", str(path)]
    for key, val in opts.items():
        argv += [f"--{key}", str(val)]
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""
    return path


class TestWorkflows:
    def test_gen_analyze_prune_roundtrip(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        out = tmp_path / "result.json"
        pruned = tmp_path / "pruned.ttb"
        code, _, err = run(
            capsys, "prune", "--input", str(inp), "--output", str(out),
            "--emit-pruned", str(pruned),
        )
        assert code == 0 and err == ""
        doc = json.loads(out.read_text())
        assert doc["selection"]["stage_sizes"][0] == 120
        kept = doc["selection"]["kept_global"]
        assert len(kept) == doc["selection"]["stage_sizes"][3]
        small = read_bundle(pruned)
        assert small.total_tokens == len(kept)

    def test_analyze_stdout_matches_api(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        code, out, _ = run(capsys, "analyze", "--input", str(inp))
        assert code == 0
        doc = json.loads(out)
        bundle = read_bundle(inp)
        cfg = PruneConfig()
        want = report_document(analyze(bundle, cfg), cfg, resolve_config(cfg, bundle))
        assert doc == json.loads(json.dumps(want))

    def test_prune_output_matches_api(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        out = tmp_path / "result.json"
        code, _, _ = run(
            capsys, "prune", "--input", str(inp), "--output", str(out),
            "--final", "17",
        )
        assert code == 0
        bundle = read_bundle(inp)
        cfg = PruneConfig(final_tokens=17, retention_ratio=None)
        report, sel = prune(bundle, cfg)
        budgets = resolve_config(cfg, bundle, require_text=True)
        want = result_document(report, sel, cfg, budgets)
        assert json.loads(out.read_text()) == json.loads(json.dumps(want))

    def test_emit_pruned_walks_the_selection_once(self, capsys, tmp_path, monkeypatch):
        """The pruned bundle is made from the fields the result document
        checked: one walk of the Selection per request, not one for the
        document and one for the bundle."""
        from tokentrim import io_formats, pipeline, types

        inp = gen_bundle(capsys, tmp_path)
        walks = []

        def counting(sel):
            walks.append(sel)
            return types._selection_fields(sel)

        for module in (io_formats, pipeline):
            monkeypatch.setattr(module, "_selection_fields", counting)
        code, _, err = run(
            capsys, "prune", "--input", str(inp), "--output", str(tmp_path / "r.json"),
            "--emit-pruned", str(tmp_path / "small.ttb"),
        )
        assert code == 0, err
        assert len(walks) == 1

    def test_emit_pruned_matches_apply_selection(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        out = tmp_path / "result.json"
        pruned_path = tmp_path / "small.ttb"
        run(
            capsys, "prune", "--input", str(inp), "--output", str(out),
            "--emit-pruned", str(pruned_path),
        )
        bundle = read_bundle(inp)
        _, sel = prune(bundle, PruneConfig())
        want = apply_selection(bundle, sel)
        got = read_bundle(pruned_path)
        assert got.n_images == want.n_images
        for g, w in zip(got.images, want.images):
            np.testing.assert_array_equal(g.data, w.data)

    def test_ratio_flag_resolves_budget(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path, tokens=25, images=4)  # 100 tokens
        out = tmp_path / "result.json"
        code, _, _ = run(
            capsys, "prune", "--input", str(inp), "--output", str(out),
            "--ratio", "0.2",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["retention_ratio"] == 0.2
        assert doc["config"]["resolved"]["m_final"] == 20
        assert doc["selection"]["stage_sizes"][3] == 20

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda": 0.9, "final_tokens": 30}))
        out = tmp_path / "result.json"
        code, _, _ = run(
            capsys, "prune", "--input", str(inp), "--output", str(out),
            "--config", str(cfg_path), "--final", "12",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["lambda"] == 0.9  # file survives
        assert doc["config"]["final_tokens"] == 12  # flag wins
        assert doc["config"]["retention_ratio"] is None

    def test_config_file_final_budget_alone(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "result.json"
        args = ("prune", "--input", str(inp), "--output", str(out),
                "--config", str(cfg_path))
        cfg_path.write_text(json.dumps({"final_tokens": 30}))
        code, _, _ = run(capsys, *args)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["final_tokens"] == 30
        assert doc["config"]["retention_ratio"] is None
        cfg_path.write_text(json.dumps({"final_tokens": 30, "retention_ratio": 0.2}))
        code, _, err = run(capsys, *args)
        assert code == 28
        assert "exactly one of final_tokens and retention_ratio" in err

    def test_fast_path_switch_is_gone(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", str(inp), "--no-fast-path"])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"fast_path": False}))
        code, _, err = run(
            capsys, "analyze", "--input", str(inp), "--config", str(cfg_path)
        )
        assert code == 28
        assert "BadConfig" in err and "fast_path" in err

    def test_positionwise_variant_flag(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        code, out, _ = run(
            capsys, "analyze", "--input", str(inp),
            "--inter-variant", "positionwise",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["inter_variant"] == "position_wise"

    def test_prune_request_leaves_numpy_ma_unimported(self, tmp_path):
        """A fresh process that generates a bundle and prunes it, Pareto
        truncation and --emit-pruned included, never imports numpy.ma.
        The benchmark's peak_mem_mb is the traced peak of a first request,
        so a lazy import there (numpy.ma is about 1.2 MB; np.unique
        without return_index imports it) would count as request memory."""
        script = """
import json, os, sys
from tokentrim.cli import main
d = sys.argv[1]
bundle, result = os.path.join(d, "in.ttb"), os.path.join(d, "r.json")
assert main(["gen", "--images", "3", "--tokens", "40", "--dim", "16",
             "--clusters", "4", "--noise", "0.2", "--output", bundle]) == 0
assert main(["prune", "--input", bundle, "--output", result, "--final", "7",
             "--emit-pruned", os.path.join(d, "out.ttb")]) == 0
m0, m1, m2, final = json.load(open(result))["selection"]["stage_sizes"]
assert m2 > final == 7, (m2, final)
print("numpy.ma" in sys.modules)
"""
        src = str(Path(tokentrim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestGenDeterminism:
    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a = gen_bundle(capsys, tmp_path, name="a.ttb", seed=42)
        b = gen_bundle(capsys, tmp_path, name="b.ttb", seed=42)
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        explicit = gen_bundle(capsys, tmp_path, name="flag.ttb", seed=42)
        monkeypatch.setenv("TOKENTRIM_SEED", "42")
        path = tmp_path / "env.ttb"
        code, _, _ = run(
            capsys, "gen", "--images", "3", "--tokens", "40", "--dim", "16",
            "--clusters", "4", "--noise", "0.2", "--drift", "0.3",
            "--text", "6", "--output", str(path),
        )
        assert code == 0
        assert path.read_bytes() == explicit.read_bytes()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOKENTRIM_SEED", "7")
        a = gen_bundle(capsys, tmp_path, name="a.ttb", seed=3)
        monkeypatch.delenv("TOKENTRIM_SEED")
        b = gen_bundle(capsys, tmp_path, name="b.ttb", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOKENTRIM_SEED", "not-a-number")
        code, _, err = run(
            capsys, "gen", "--images", "1", "--tokens", "4", "--dim", "4",
            "--output", str(tmp_path / "x.ttb"),
        )
        assert code == 28
        assert "TOKENTRIM_SEED" in err


class TestBenchCommand:
    def test_tiny_run_emits_table_and_json(self, capsys, tmp_path):
        json_path = tmp_path / "bench.json"
        code, out, err = run(
            capsys, "bench", "--kernel", "pareto", "--n", "80", "--budget", "6",
            "--repeats", "1", "--seed", "0", "--json", str(json_path),
        )
        assert code == 0 and err == ""
        assert "kernel" in out and "pareto" in out
        doc = json.loads(json_path.read_text())
        (entry,) = doc["results"]
        assert entry["kernel"] == "pareto"
        assert entry["floor"] == 2.0
        assert entry["n"] == 80
        assert entry["speedup"] > 0

    def test_json_to_stdout_without_flag(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--kernel", "pareto", "--n", "50", "--budget", "4",
            "--repeats", "1", "--seed", "1",
        )
        assert code == 0
        start = out.index("{")
        doc = json.loads(out[start:])
        assert doc["results"][0]["max_abs_err"] == 0.0  # identical index sets

    def test_disagreeing_fast_kernels_trip_the_gate(self, capsys, monkeypatch):
        diversity = metrics.intra_diversity_fast
        monkeypatch.setattr(
            metrics, "intra_diversity_fast", lambda mat: diversity(mat) + 1.0
        )
        alignment = metrics.alignment_fast
        monkeypatch.setattr(
            metrics, "alignment_fast", lambda *args: alignment(*args) + 1.0
        )
        # Peels one point per front, so it keeps the last `budget` indices.
        monkeypatch.setattr(
            selection, "pareto_front_sortscan", lambda points: [points[-1].index]
        )
        for kernel in ("diversity", "alignment", "pareto"):
            with pytest.raises(BenchGateFailure):
                bench.run_suite((kernel,), repeats=1, n=64)

        code, out, err = run(
            capsys, "bench", "--kernel", "diversity", "--n", "64", "--repeats", "1",
        )
        assert code == 29 and out == ""
        assert err.startswith("tokentrim bench: stage bench: BenchGateFailure:")

    def test_unknown_kernel_is_refused_before_any_runs(self, monkeypatch):
        """Kernel names are checked with the other arguments, so a bad one
        late in the list costs no run of the good ones before it."""

        def timed(*args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(bench, "bench_diversity", timed)
        for kernels in (("diversity", "bogus"), ("diversity", ["pareto"]), 5):
            with pytest.raises(BadSpec):
                bench.run_suite(kernels, repeats=1)

    def test_repeats_defaults_to_the_suite_default(self, capsys, monkeypatch):
        seen = {}

        def fake_suite(kernels, **kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(bench, "run_suite", fake_suite)
        assert run(capsys, "bench", "--kernel", "pareto")[0] == 0
        assert seen["repeats"] == bench.DEFAULT_REPEATS
        assert run(capsys, "bench", "--kernel", "pareto", "--repeats", "3")[0] == 0
        assert seen["repeats"] == 3

    def test_other_commands_do_not_import_the_bench_module(self):
        """Only ``tokentrim bench`` pays for the benchmark's imports."""
        src = str(Path(tokentrim.__file__).resolve().parents[1])
        code = "import sys, tokentrim.cli; print('tokentrim.bench' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"


# Runs the CLI with its address space capped at 4 GiB, so an allocation
# the machine's overcommit rules would grant fails here at once.
LIMITED_CLI = """
import resource, sys
from tokentrim.cli import main
limit = 4 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


def run_limited(*argv):
    pytest.importorskip("resource")
    src = str(Path(tokentrim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestOutOfMemory:
    """An allocation the machine refuses exits 31 with its stage, not with
    numpy's MemoryError traceback; a hostile file whose size the command
    line never allocates fails on its contents instead."""

    def test_sparse_bundle_declaring_64_gib(self, tmp_path):
        """4 KiB on disk, 1 x 2**24 x 1024 float32 rows by its header and
        its apparent size.  The command line never allocates the payload:
        its first pass checks the rows a few chunks at a time, so the zero
        row 0 fails the read long before the 64 GiB are walked, under the
        4 GiB address-space cap and the 60 s timeout."""
        path = tmp_path / "sparse.ttb"
        with open(path, "wb") as fh:
            fh.write(b"TTB1" + np.array([1, 1, 0, 1024, 2**24], "<u4").tobytes())
            fh.truncate(fh.tell() + 4 * 2**24 * 1024)
        proc = run_limited("analyze", "--input", str(path))
        assert proc.returncode == 10, proc.stderr
        assert proc.stderr == (
            "tokentrim analyze: stage load-input: ZeroNormRow: "
            "row 0 has norm below 1e-12\n"
        )
        assert proc.stdout == ""

    def test_header_declaring_billions_of_images(self, tmp_path):
        """8 blocks on disk, 2**32 - 1 images of dim 1 by its header and
        its apparent size: the image counts alone do not fit."""
        path = tmp_path / "counts.ttb"
        with open(path, "wb") as fh:
            fh.write(b"TTB1" + np.array([1, 2**32 - 1, 0, 1], "<u4").tobytes())
            fh.truncate(fh.tell() + 4 * (2**32 - 1))
        proc = run_limited("analyze", "--input", str(path))
        assert proc.returncode == 31, proc.stderr
        assert proc.stderr.startswith(
            "tokentrim analyze: stage load-input: OutOfMemory: cannot allocate "
            f"the {2**32 - 1} image counts"
        )
        assert proc.stdout == ""

    def test_bench_beyond_memory(self):
        proc = run_limited(
            "bench", "--kernel", "diversity", "--n", str(10**9), "--repeats", "1"
        )
        assert proc.returncode == 31, proc.stderr
        assert proc.stderr.startswith(
            "tokentrim bench: stage bench: OutOfMemory: "
            "cannot allocate the benchmark's inputs"
        )
        assert proc.stdout == ""

    def test_gen_beyond_memory(self, tmp_path):
        out = tmp_path / "x.ttb"
        proc = run_limited(
            "gen", "--images", "1", "--tokens", str(2**31), "--dim", "1024",
            "--output", str(out),
        )
        assert proc.returncode == 31, proc.stderr
        assert proc.stderr.startswith(
            "tokentrim gen: stage generate: OutOfMemory: "
            "cannot allocate the synthetic bundle"
        )
        assert not out.exists()

    def test_float64_fallback_beyond_memory(self, capsys, tmp_path, monkeypatch):
        """A row of norm 2**64 sends its image to the float64 computation,
        whose float64 copy of the image is refused (injected: nothing is
        allocated for real)."""
        inp = gen_bundle(capsys, tmp_path, images=2, tokens=400, dim=16)
        data = bytearray(inp.read_bytes())
        start = 20 + 4 * 2 + 4 * 16 * 7  # row 7 of image 0
        row = np.frombuffer(data, "<f4", 16, start)
        row = row * (2.0**64 / np.linalg.norm(row))
        data[start : start + 4 * 16] = row.astype("<f4").tobytes()
        inp.write_bytes(bytes(data))

        def refuse(self):
            raise MemoryError("injected")

        monkeypatch.setattr(TokenMatrix, "unit64", refuse)
        out = tmp_path / "o.json"
        code, _, err = run(capsys, "prune", "--input", str(inp), "--output", str(out))
        assert code == 31, err
        assert err.startswith(
            "tokentrim prune: stage prune: OutOfMemory: "
            "cannot allocate the float64 rows of a 400-row image"
        )
        assert not out.exists()


class TestExitCodes:
    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "prune", "--input", str(tmp_path / "nope.ttb"),
            "--output", str(tmp_path / "out.json"),
        )
        assert code == 27
        assert err.startswith("tokentrim prune: stage load-input: IoFailure:")

    def test_bad_magic(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttb"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        code, _, err = run(
            capsys, "analyze", "--input", str(bad),
        )
        assert code == 23
        assert "BadMagic" in err

    def test_bad_spec_via_gen(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "--images", "0", "--tokens", "4", "--dim", "4",
            "--output", str(tmp_path / "x.ttb"),
        )
        assert code == 26
        assert "BadSpec" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--noise", "nan"), ("--noise", "inf"), ("--drift", "nan"), ("--drift", "inf")],
    )
    def test_non_finite_spec_via_gen(self, capsys, tmp_path, flag, value):
        code, out, err = run(
            capsys, "gen", "--images", "2", "--tokens", "4", "--dim", "4",
            flag, value, "--output", str(tmp_path / "x.ttb"),
        )
        assert code == 26 and out == ""
        assert err.startswith("tokentrim gen: stage configure: BadSpec:")
        assert not (tmp_path / "x.ttb").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--noise", "1e308"), ("--drift", "1e308"), ("--noise", "1e9")],
    )
    def test_huge_spec_via_gen(self, capsys, tmp_path, flag, value):
        """noise or drift above 1e8 fails before generating, with no numpy
        warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "gen", "--images", "2", "--tokens", "4", "--dim", "4",
                flag, value, "--output", str(tmp_path / "x.ttb"),
            )
        assert code == 26 and out == ""
        assert err.startswith("tokentrim gen: stage configure: BadSpec:")
        assert not (tmp_path / "x.ttb").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--tokens", "4611686018427387904", "--dim", "2"),
            ("--tokens", "4", "--dim", "4294967296"),
            ("--tokens", "4", "--dim", "4", "--text", "4294967296"),
            ("--tokens", "4294967295", "--dim", "4294967295"),
        ],
    )
    def test_oversized_spec_via_gen(self, capsys, tmp_path, flags):
        """A count or dim beyond a TTB1 u32 field, or a bundle whose values
        at 8 bytes each exceed sys.maxsize, fails before generating."""
        code, out, err = run(
            capsys, "gen", "--images", "1", *flags,
            "--output", str(tmp_path / "x.ttb"),
        )
        assert code == 26 and out == ""
        assert err.startswith("tokentrim gen: stage configure: BadSpec:")
        assert not (tmp_path / "x.ttb").exists()

    @pytest.mark.parametrize(
        "flags, env_seed",
        [
            (("--repeats", "0"), None),
            (("--repeats", "-1"), None),
            (("--n", "0"), None),
            (("--n", "-5"), None),
            (("--dim", "0"), None),
            (("--dim", "-3"), None),
            (("--m", "0"), None),
            (("--m", "-2"), None),
            (("--seed", "-1"), None),
            ((), "-5"),
            (("--budget", "0"), None),
            (("--budget", "-4"), None),
        ],
        ids=[
            "repeats-0", "repeats-neg", "n-0", "n-neg", "dim-0", "dim-neg",
            "m-0", "m-neg", "seed-neg", "env-seed-neg", "budget-0", "budget-neg",
        ],
    )
    def test_bad_bench_sizes(self, capsys, monkeypatch, flags, env_seed):
        """Checked up front, whichever kernel runs (pareto uses no dim)."""
        if env_seed is not None:
            monkeypatch.setenv("TOKENTRIM_SEED", env_seed)
        code, out, err = run(capsys, "bench", "--kernel", "pareto", *flags)
        assert code == 26
        assert err.startswith("tokentrim bench: stage bench: BadSpec:")
        assert out == ""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repeats": True},
            {"n": 64.0},
            {"dim": 4.0},
            {"m_text": "8"},
            {"seed": True},
            {"budget": 2.5},
            {"budget": 0},  # diversity runs no Pareto selection
        ],
        ids=[
            "repeats-bool", "n-float", "dim-float", "m-str", "seed-bool",
            "budget-float", "budget-0",
        ],
    )
    def test_mistyped_bench_sizes(self, kwargs):
        """The library checks what argparse's int conversion cannot."""
        with pytest.raises(BadSpec):
            bench.run_suite(("diversity",), **{"repeats": 1, "n": 8, **kwargs})

    def test_config_file_errors(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        code, _, err = run(
            capsys, "analyze", "--input", str(inp), "--config", str(bad_json)
        )
        assert code == 28 and "BadConfig" in err

        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b'\xff\xfe{"m2": 3}')
        too_deep = tmp_path / "too_deep.json"
        too_deep.write_text("[" * 100000)
        for path in (not_utf8, too_deep):
            code, out, err = run(
                capsys, "analyze", "--input", str(inp), "--config", str(path)
            )
            assert code == 28 and out == ""
            assert err.startswith("tokentrim analyze: stage configure: BadConfig:")

        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"m_min": 4, "bogus_key": 1}))
        code, _, err = run(
            capsys, "analyze", "--input", str(inp), "--config", str(unknown)
        )
        assert code == 28 and "bogus_key" in err

        missing = tmp_path / "missing.json"
        code, _, err = run(
            capsys, "analyze", "--input", str(inp), "--config", str(missing)
        )
        assert code == 27

    @pytest.mark.parametrize(
        "text",
        [
            '{"final_tokens": 10.5, "retention_ratio": null}',
            '{"m2": 7.5}',
            '{"lambda": "0.5"}',
            '{"retention_ratio": "0.2"}',
            '{"last_image_rule": "no"}',
            '{"m_min": true, "m_max": 30}',
            '{"lambda": 1e400}',
        ],
    )
    def test_mistyped_config_value(self, capsys, tmp_path, text):
        inp = gen_bundle(capsys, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code, _, err = run(
            capsys, "prune", "--input", str(inp),
            "--output", str(tmp_path / "out.json"), "--config", str(cfg_path),
        )
        assert code == 28
        assert err.startswith("tokentrim prune: stage configure: BadConfig:")
        key = next(iter(json.loads(text)))  # the first key is the mistyped one
        assert f"BadConfig: {key} must be of type" in err
        assert not (tmp_path / "out.json").exists()

    def test_threads_flag_is_gone(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "prune", "--input", str(inp), "--output",
                str(tmp_path / "out.json"), "--threads", "2",
            ])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_mutually_exclusive_budget_flags(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "prune", "--input", "x", "--output", "y",
                "--ratio", "0.5", "--final", "10",
            ])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "value, width, code, error",
        [(np.nan, 1, 30, "NonFiniteRow"), (0.0, 16, 10, "ZeroNormRow")],
    )
    def test_bad_row_in_input(self, capsys, tmp_path, value, width, code, error):
        inp = gen_bundle(capsys, tmp_path)  # 3 images x 40 tokens, dim 16
        data = bytearray(inp.read_bytes())
        row = 40 + 7  # a row of image 1
        start = 20 + 4 * 3 + 4 * 16 * row
        data[start : start + 4 * width] = np.full(width, value, dtype="<f4").tobytes()
        inp.write_bytes(bytes(data))
        for command in (
            ["prune", "--input", str(inp), "--output", str(tmp_path / "o.json")],
            ["analyze", "--input", str(inp)],
        ):
            got, _, err = run(capsys, *command)
            assert got == code
            assert err.startswith(
                f"tokentrim {command[0]}: stage load-input: {error}: row {row} "
            )

    def test_empty_text_exit(self, capsys, tmp_path):
        inp = gen_bundle(capsys, tmp_path, text=0)
        code, _, err = run(
            capsys, "prune", "--input", str(inp),
            "--output", str(tmp_path / "out.json"),
        )
        assert code == 12
        assert err.startswith("tokentrim prune: stage resolve-config: EmptyText:")
