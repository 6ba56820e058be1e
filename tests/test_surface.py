"""The package root's public names and the documented library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import tokentrim
from tokentrim import metrics, selection
from tokentrim.errors import EXIT_CODES

PUBLIC = {
    "__version__",
    "TokenMatrix",
    "TokenBundle",
    "PruneConfig",
    "RedundancyReport",
    "Selection",
    "build_token_matrix",
    "make_bundle",
    "analyze",
    "prune",
    "apply_selection",
    "read_bundle",
    "write_bundle",
    "write_result",
    "SyntheticSpec",
    "generate_synthetic",
    "TokenTrimError",
    "exit_code_for",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_root_exports_exactly_the_workflow():
    assert set(tokentrim.__all__) == PUBLIC
    assert len(tokentrim.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(tokentrim, name) is not None


def test_production_modules_hold_no_reference_kernels():
    for module in (metrics, selection):
        names = [
            n for n in vars(module)
            if n.endswith("_naive") or n == "greedy_objective_value"
        ]
        assert names == [], f"{module.__name__} defines {names}"


def test_one_integer_rule():
    """Every integer check in the package goes through ``types._integer``."""
    package = Path(tokentrim.__file__).resolve().parent
    users = sorted(
        p.name for p in package.rglob("*.py") if "numbers.Integral" in p.read_text()
    )
    assert users == ["types.py"]


def test_stored_rows_are_widened_in_one_place():
    """No einsum or mean widens stored float32 rows in ``types`` or
    ``metrics``; ``types._widen`` does it once per build.  ``metrics``
    copies no rows itself and knows no chunk size: it walks the rows with
    ``types._chunks``."""
    package = Path(tokentrim.__file__).resolve().parent
    for name in ("types.py", "metrics.py"):
        assert "dtype=np.float64" not in (package / name).read_text(), name
    source = (package / "metrics.py").read_text()
    assert "np.copyto" not in source
    assert "_WIDEN_VALUES" not in source


def test_blas_threads_are_set_in_one_place():
    """Only ``pipeline`` reads or sets the process's BLAS thread count."""
    package = Path(tokentrim.__file__).resolve().parent
    users = sorted(
        p.name for p in package.rglob("*.py") if "num_threads" in p.read_text()
    )
    assert users == ["pipeline.py"]


def test_pooled_prune_leaves_concurrent_futures_unimported(tmp_path):
    """A fresh-process CLI ``prune`` of an 8-image bundle, whose stage 1
    runs on plain threads where BLAS has two, never imports
    ``concurrent.futures``, which would add to the request's start-up."""
    script = """
import os, sys
from tokentrim.cli import main
d = sys.argv[1]
bundle = os.path.join(d, "in.ttb")
assert main(["gen", "--images", "8", "--tokens", "40", "--dim", "16",
             "--clusters", "4", "--noise", "0.2", "--output", bundle]) == 0
assert main(["prune", "--input", bundle, "--output", os.path.join(d, "r.json"),
             "--final", "7"]) == 0
print("concurrent.futures" in sys.modules)
"""
    src = str(Path(tokentrim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_readme_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    sel = namespace["sel"]
    assert sel.stage_sizes[0] == 4 * 576
    assert namespace["small"].n_images == 4


def test_readme_exit_code_table_matches_the_code():
    """Both column pairs of README's exit-code table name exactly the
    codes of ``errors.EXIT_CODES``; a code with no class reads
    "(unassigned)"."""
    text = README.read_text()
    table = text[text.index("### Exit codes") : text.index("## File formats")]
    documented = {
        int(code): name
        for code, name in re.findall(r"\| (\d+) \| (\w+) ", table)
    }
    assert documented == {code: cls.__name__ for cls, code in EXIT_CODES.items()}


def test_only_io_formats_reads_a_file_back():
    """Only ``io_formats`` reads a file's rows back (``os.preadv``) or
    decides that the file changed after its first pass (``FileChanged``)."""
    package = Path(tokentrim.__file__).resolve().parent
    for call in ("os.preadv(", "raise FileChanged("):
        users = sorted(p.name for p in package.rglob("*.py") if call in p.read_text())
        assert users == ["io_formats.py"], call
