#!/usr/bin/env python3
"""Write ``pins.json``: each workload's trial list and pinned invariants.

Usage, from the root of a checkout::

    python3 perfbench/pin.py

Runs every workload's trial list once, in stream order (see
``workloads.py``), and records each trial's invariants. Workloads with
``pins_from`` share another workload's pins.
Run it only at a commit whose results are known good: the benchmark fails
every trial that differs from these values afterwards.
"""

from __future__ import annotations

import json
import sys
from typing import List

from checks import PINS_PATH, Invariants
from run import (
    SRC,
    BenchmarkError,
    fresh_cache,
    generate_instances,
    run_pass,
    scratch_directory,
)
from workloads import WORKLOADS, Workload


def pin_trials(workload: Workload) -> List[Invariants]:
    """The invariants of every trial in the workload's list, in order."""
    result = run_pass(
        "pin", workload, generate_instances(workload), range(workload.trials)
    )
    if result.failed:
        raise BenchmarkError(f"{workload.name}: {result.failed}")
    for index, wall in result.walls.items():
        print(
            f"{workload.name} trial {index}: "
            f"{result.invariants[index][1]} cycles, {wall:.2f} s",
            file=sys.stderr,
        )
    return [result.invariants[index] for index in range(workload.trials)]


def main() -> int:
    sys.path.insert(0, str(SRC))
    pins = {}
    with scratch_directory("pin") as scratch:
        for workload in WORKLOADS.values():
            if workload.pins_from is None:
                fresh_cache(scratch / workload.name)
                pins[workload.name] = pin_trials(workload)
    lines = ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(trial)}" for trial in trials)
        + "\n ]"
        for name, trials in pins.items()
    )
    PINS_PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
