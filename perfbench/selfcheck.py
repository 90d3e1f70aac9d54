"""Determinism self-check for the traced run.

    python3 perfbench/selfcheck.py

Runs `run.py --trace 1` twice on seed 1 and once on seed 2 for each
workload, each in a fresh interpreter.  The two seed-1 runs must give
identical operation counts (every per-layer metric that is not a time) and
every run must report correct verdicts; the exit code is 1 otherwise.  The
second seed shows the counts move with the inputs, so nothing is tuned to one
seed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (1, 1, 2)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, again, other = (traced_run(workload, seed) for seed in SEEDS)
        differ = {
            k: (v, counts(again)[k]) for k, v in counts(first).items() if counts(again)[k] != v
        }
        moved = sorted(k for k, v in counts(first).items() if counts(other)[k] != v)
        correct = all(r["correct"] for r in (first, again, other))
        ok = ok and not differ and correct
        print(json.dumps({
            "workload": workload,
            "same_seed_counts_equal": not differ,
            "differing": differ,
            "correct": correct,
            "counts_moved_on_next_seed": moved,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
