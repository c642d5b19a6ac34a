"""Output checks: per-trial invariants, pinned values and cross-checks.

A trial's invariants are the counted, deterministic part of its
``RunResult``: any change to them is a change to what the program computes,
not to how fast. They are pinned per trial in ``pins.json`` (written by
``python3 perfbench/pin.py`` at the commit that defines them) and compared
on every pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

INVARIANT_FIELDS = (
    "solved",
    "cycles",
    "maxcck",
    "total_checks",
    "messages_sent",
    "generated_nogoods",
    "redundant_generations",
    "assignment_digest",
)

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: One trial's invariants, in INVARIANT_FIELDS order.
Invariants = List[object]


def assignment_digest(assignment: Mapping[int, object]) -> str:
    """A short stable digest of a final assignment."""
    text = repr(sorted(assignment.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def invariants_of(result: object) -> Invariants:
    """The pinned fields of a ``RunResult``."""
    values: Invariants = [
        getattr(result, name) for name in INVARIANT_FIELDS[:-1]
    ]
    values.append(assignment_digest(getattr(result, "assignment")))
    return values


def load_pins(path: Optional[Path] = None) -> Dict[str, List[Invariants]]:
    """``{pin key: [invariants of trial 0, 1, ...]}``."""
    with (path or PINS_PATH).open(encoding="utf-8") as handle:
        return json.load(handle)


def mismatched_trials(
    observed: Sequence[Optional[Invariants]], expected: Sequence[Invariants]
) -> List[int]:
    """Indices of expected trials that *observed* lacks or got wrong."""
    return [
        index
        for index, want in enumerate(expected)
        if index >= len(observed)
        or observed[index] is None
        or list(observed[index]) != list(want)
    ]


def describe_mismatch(got: Invariants, want: Invariants) -> str:
    """Which invariant fields differ, for the error report."""
    return ", ".join(
        f"{name}: {a!r} != {b!r}"
        for name, a, b in zip(INVARIANT_FIELDS, got, want)
        if a != b
    )
