"""Rewrite golden.json from the default seed's pool of every workload.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter selections; the diff of
golden.json then shows which bundles changed and how.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    if not run.import_program():
        return 2
    import harness

    harness.write_golden(harness.GOLDEN_PATH, harness.WORKLOADS.values())
    print(f"wrote {harness.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
