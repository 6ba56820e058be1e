"""Command-line front end: prune, analyze, gen and bench subcommands.

Every library error maps to a fixed nonzero exit code (see errors.py) and
a one-line stderr diagnostic naming the stage that failed; argparse usage
errors keep their conventional exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io_formats, pipeline
from .errors import BadConfig, IoFailure, TokenTrimError, exit_code_for
from .types import CONFIG_FIELDS, PruneConfig, resolve_config

_ENV_SEED = "TOKENTRIM_SEED"

# Updated by the command handlers so error lines can name the failing stage.
_stage = "startup"


def _enter(stage: str) -> None:
    global _stage
    _stage = stage

_INTER_VARIANTS = {"global": "global_mean", "positionwise": "position_wise"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokentrim",
        description="Prune multi-image visual token sequences by redundancy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prune = sub.add_parser("prune", help="run the full two-stage pruning pipeline")
    prune.add_argument("--input", required=True, help="TTB1 bundle to prune")
    prune.add_argument("--output", required=True, help="result JSON path")
    prune.add_argument("--config", help="JSON file with configuration fields")
    budget = prune.add_mutually_exclusive_group()
    budget.add_argument("--ratio", type=float, help="retention ratio in (0,1)")
    budget.add_argument("--final", type=int, help="absolute final token budget")
    prune.add_argument(
        "--emit-pruned", help="also write the pruned bundle as TTB1 here"
    )
    _add_variant_flags(prune)

    analyze = sub.add_parser("analyze", help="report redundancy signals only")
    analyze.add_argument("--input", required=True, help="TTB1 bundle to analyze")
    analyze.add_argument("--output", help="report JSON path (default: stdout)")
    analyze.add_argument("--config", help="JSON file with configuration fields")
    _add_variant_flags(analyze)

    gen = sub.add_parser("gen", help="generate a synthetic TTB1 bundle")
    gen.add_argument("--images", type=int, required=True)
    gen.add_argument("--tokens", type=int, required=True, help="tokens per image")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--seed", type=int, help=f"default: ${_ENV_SEED} or 0")
    gen.add_argument("--clusters", type=int, default=1)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--drift", type=float, default=0.0)
    gen.add_argument("--text", type=int, default=8, help="text token count")
    gen.add_argument("--output", required=True)

    bench = sub.add_parser("bench", help="compare naive and fast kernels")
    bench.add_argument(
        "--kernel",
        choices=["diversity", "alignment", "pareto", "all"],
        default="all",
    )
    bench.add_argument("--n", type=int, help="problem size override")
    bench.add_argument("--dim", type=int, default=64)
    bench.add_argument("--m", type=int, default=128, help="text tokens (alignment)")
    bench.add_argument("--budget", type=int, default=14, help="budget (pareto)")
    bench.add_argument("--repeats", type=int)
    bench.add_argument("--seed", type=int, help=f"default: ${_ENV_SEED} or 7")
    bench.add_argument("--json", help="also write results as JSON here")
    return parser


def _add_variant_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--inter-variant",
        choices=sorted(_INTER_VARIANTS),
        help="inter-image variation signal (default: global)",
    )


def _load_config_file(path: str) -> dict:
    """The file's settings, keyed by PruneConfig field name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config from {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise BadConfig(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise BadConfig(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_FIELDS)
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    return {CONFIG_FIELDS[key]: value for key, value in raw.items()}


def _build_config(args: argparse.Namespace) -> PruneConfig:
    """Defaults, overridden by --config file, overridden by flags."""
    fields = _load_config_file(args.config) if args.config else {}
    ratio = getattr(args, "ratio", None)
    final = getattr(args, "final", None)
    if ratio is not None:
        fields["retention_ratio"] = ratio
        fields["final_tokens"] = None
    elif final is not None:
        fields["final_tokens"] = final
        fields["retention_ratio"] = None
    if args.inter_variant:
        fields["inter_variant"] = _INTER_VARIANTS[args.inter_variant]
    return PruneConfig(**fields)


def _seed_from(args_seed: int | None, fallback: int) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise BadConfig(f"{_ENV_SEED} must be an integer, got {env!r}") from exc
    return fallback


def _cmd_prune(args: argparse.Namespace) -> int:
    _enter("configure")
    cfg = _build_config(args)
    _enter("load-input")
    bundle = io_formats.read_bundle(args.input)
    _enter("resolve-config")
    budgets = resolve_config(cfg, bundle, require_text=True)
    _enter("prune")
    report, sel = pipeline.prune(bundle, cfg)
    _enter("write-output")
    io_formats.write_result(report, sel, args.output, cfg, budgets)
    if args.emit_pruned:
        _enter("emit-pruned")
        pruned = pipeline.apply_selection(bundle, sel)
        io_formats.write_bundle(pruned, args.emit_pruned)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    _enter("configure")
    cfg = _build_config(args)
    _enter("load-input")
    bundle = io_formats.read_bundle(args.input)
    _enter("analyze")
    budgets = resolve_config(cfg, bundle)
    report = pipeline.analyze(bundle, cfg)
    _enter("write-output")
    doc = io_formats.report_document(report, cfg, budgets)
    if args.output:
        io_formats.write_json(doc, args.output, "report")
    else:
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    _enter("configure")
    spec = io_formats.SyntheticSpec(
        n_images=args.images,
        tokens_per_image=args.tokens,
        dim=args.dim,
        seed=_seed_from(args.seed, 0),
        clusters=args.clusters,
        noise=args.noise,
        drift=args.drift,
        text_tokens=args.text,
    )
    _enter("generate")
    bundle = io_formats.generate_synthetic(spec)
    _enter("write-output")
    io_formats.write_bundle(bundle, args.output)
    return 0


def _format_table(results: list, floors: dict[str, float]) -> str:
    header = (
        f"{'kernel':<10} {'n':>6} {'dim':>4} {'naive_ms':>10} {'fast_ms':>10} "
        f"{'speedup':>8} {'floor':>6} {'err':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        floor = floors[r.kernel]
        lines.append(
            f"{r.kernel:<10} {r.n:>6} {r.dim:>4} {r.t_naive * 1e3:>10.3f} "
            f"{r.t_fast * 1e3:>10.3f} {r.speedup:>7.1f}x {floor:>5.1f}x "
            f"{r.max_abs_err:>9.2e}"
        )
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported here: no other command pays for the benchmark's imports.
    from . import bench as bench_mod

    _enter("bench")
    kernels = (
        ("diversity", "alignment", "pareto")
        if args.kernel == "all"
        else (args.kernel,)
    )
    results = bench_mod.run_suite(
        kernels,
        repeats=bench_mod.DEFAULT_REPEATS if args.repeats is None else args.repeats,
        seed=_seed_from(args.seed, bench_mod.DEFAULT_SEED),
        n=args.n,
        dim=args.dim,
        m_text=args.m,
        budget=args.budget,
    )
    floors = bench_mod.SPEEDUP_FLOORS
    print(_format_table(results, floors))
    doc = {"results": [vars(r) | {"floor": floors[r.kernel]} for r in results]}
    if args.json:
        io_formats.write_json(doc, args.json, "bench JSON")
    else:
        print(json.dumps(doc, indent=2))
    return 0


_HANDLERS = {
    "prune": _cmd_prune,
    "analyze": _cmd_analyze,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _enter("startup")
    try:
        return _HANDLERS[args.command](args)
    except TokenTrimError as err:
        print(
            f"tokentrim {args.command}: stage {_stage}: "
            f"{type(err).__name__}: {err}",
            file=sys.stderr,
        )
        return exit_code_for(err)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
