#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload d3s-db --seeds 1 2 3 4 5

For every end-to-end metric it prints the median over the runs and the
interquartile distance as a share of the median, next to the metric's
bound in ``BENCHMARK.json``. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFINITION, RUN_SECONDS
from summary import median, spread

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(RUN),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=[workload["name"] for workload in DEFINITION["workloads"]],
        action="append",
        required=True,
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args()
    within = True
    for workload in args.workload:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        for metric in DEFINITION["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [result["metrics"][name]["value"] for result in results]
            share = spread(values)
            within = within and share <= bound
            print(
                f"{workload} {name}: median {median(values):.5g} "
                f"{metric['unit']}, spread {share:.3f} (bound {bound}) "
                f"over {len(values)} runs"
            )
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
