"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py

Runs perfbench/run.py once per workload and seed (SEEDS untraced and
TRACED_SEEDS traced runs per workload), one run at a time, with the settings
in BENCHMARK.json, and writes BASELINE.json next to this file:
the machine facts, the input pool, and for each workload the end-to-end
metrics (median, quartiles, and the quartile distance as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them) and the
per-layer medians of the traced runs.  Exits 1 when a run fails, or when a
spread exceeds its metric's bound; a spread above a third of the bound is
flagged as wide.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
TRACED_SEEDS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, machine facts) of one benchmark run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    machine = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("machine: "))
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s wall", flush=True)
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "machine": None,
        "run_seconds": seconds,
        "seeds": list(range(SEEDS)),
        "traced_seeds": list(range(TRACED_SEEDS)),
        "pool": {
            "noise_drift": harness.POOL_GRID,
            "clusters": harness.CLUSTERS,
            "text_tokens": harness.TEXT_TOKENS,
        },
        "workloads": {},
    }
    steady = True
    for wl in spec["workloads"]:
        name = wl["name"]
        values: dict[str, list[float]] = {}
        for seed in doc["seeds"]:
            result, doc["machine"] = run_once(name, seed, seconds, 0)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        layers: dict[str, list[float]] = {}
        for seed in doc["traced_seeds"]:
            result, _ = run_once(name, seed, seconds, 1)
            for metric, m in result["metrics"].items():
                layers.setdefault(metric, []).append(m["value"])
        end_to_end = {metric: summarize(v) for metric, v in values.items()}
        for metric, s in end_to_end.items():
            bound = bounds[metric]
            flag = "" if s["spread"] <= bound / 3 else "  WIDE" if s["spread"] <= bound else "  OVER BOUND"
            steady &= s["spread"] <= bound
            print(f"  {metric}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        doc["workloads"][name] = {
            "why": wl["why"],
            "end_to_end": end_to_end,
            "per_layer": {metric: statistics.median(v) for metric, v in layers.items()},
        }
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'BASELINE.json'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
