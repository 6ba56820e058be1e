"""Run one workload of the tokentrim pipeline benchmark.

    python3 perfbench/run.py --workload video_32x576 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory, never from an installed copy.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Exits 1 when any
request fails its checks and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """BLAS threads <= nproc, set before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def import_program() -> bool:
    """Cap BLAS threads and import tokentrim from this checkout's src/."""
    cap_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tokentrim
    except ImportError as exc:
        print(f"cannot import tokentrim from {src}: {exc}", file=sys.stderr)
        return False
    if src not in Path(tokentrim.__file__).resolve().parents:
        print(f"tokentrim was imported from {tokentrim.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not import_program():
        return 2
    import harness

    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    golden = harness.load_golden() if args.seed == harness.DEFAULT_SEED else None
    print("machine: " + json.dumps(harness.machine_facts()))
    result = harness.run(wl, args.seed, args.seconds, bool(args.trace), golden)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
