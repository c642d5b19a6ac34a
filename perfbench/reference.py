"""A fixed reference loop that puts measured times on one machine speed.

On a shared machine, other tenants slow this process by 10 to 40%, and the
speed changes from one tenth of a second to the next; CPU time slows with
wall time, so neither clock alone tells a slower program from a busier
machine. The reference loop is pure Python of the kind the program runs
(small objects, tuple keys, dict updates, a sort) and is part of the
benchmark, so no change to the program moves it.

``SpeedSampler`` times a block of code and, while it runs, a short slice
of the reference loop every ``SLICE_INTERVAL_S`` seconds (from a
``SIGALRM`` handler, so the slices interleave with the block's own work),
plus one slice at each end. The slices' time is left out of the block's
time. Their mean is how fast the machine ran the interpreter during the
block, and ``scaled`` converts the block's time to seconds at the reference
speed: the time the same work takes when one slice takes ``REFERENCE_S``.
The ratio cancels the machine's speed of the moment; the constant only keeps
the unit in seconds.
"""

from __future__ import annotations

import signal
import time
from typing import Any

#: Iterations of one reference slice.
SLICE_ITERATIONS = 5_000
#: Wall seconds between slices.
SLICE_INTERVAL_S = 0.03
#: A slice's typical time on the 2-vCPU VM the benchmark was tuned on
#: (Python 3.11): the speed the scaled times are quoted at.
REFERENCE_S = 0.004


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference_work(iterations: int = SLICE_ITERATIONS) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    table: dict = {}
    odd = []
    for i in range(iterations):
        point = _Point(i % 97, i % 89)
        key = (point.a, point.b)
        table[key] = table.get(key, 0) + point.a
        if point.b & 1:
            odd.append(key)
    odd.sort()
    return len(table) + len(odd)


def scaled(seconds: float, reference: float) -> float:
    """*seconds*, measured while a reference slice took *reference*
    seconds, as seconds at the reference speed."""
    return seconds * REFERENCE_S / reference


class Stopwatch:
    """Times a ``with`` block: ``work_s`` is its wall seconds."""

    #: Seconds and count of reference slices run inside the block.
    spent = 0.0
    slices = 0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.work_s = time.perf_counter() - self._started - self.spent


class SpeedSampler(Stopwatch):
    """A stopwatch that samples the machine's speed with reference slices
    while the block runs, and leaves their time out of ``work_s``.

    Only for the main thread of a process that sets no other ``SIGALRM``
    handler or real-time interval timer.
    """

    def __enter__(self) -> "SpeedSampler":
        self.spent = 0.0
        self.slices = 0
        super().__enter__()
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()
        super().__exit__(*exc)

    def _slice(self, *_: Any) -> None:
        started = time.perf_counter()
        reference_work()
        self.spent += time.perf_counter() - started
        self.slices += 1

    @property
    def reference_s(self) -> float:
        """The mean time of a reference slice during the block."""
        return self.spent / self.slices

    @property
    def scaled_s(self) -> float:
        """The block's time at the reference speed."""
        return scaled(self.work_s, self.reference_s)
