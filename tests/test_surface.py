"""The package root's public names and the documented library example."""

import re
from pathlib import Path

import tokentrim
from tokentrim import metrics, selection

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
    ``metrics``; ``types._widen`` does it once per build."""
    package = Path(tokentrim.__file__).resolve().parent
    for name in ("types.py", "metrics.py"):
        assert "dtype=np.float64" not in (package / name).read_text(), name


def test_readme_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    sel = namespace["sel"]
    assert sel.stage_sizes[0] == 4 * 576
    assert namespace["small"].n_images == 4
