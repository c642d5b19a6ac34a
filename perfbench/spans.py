"""Spans around each layer's public entry points, folded into per-layer totals.

The benchmark wraps the entry points from its own files (nothing in
``src/`` knows it is traced). Each call opens a span: name, start, parent
(the span open below it). When the span closes its duration is known, and
it is folded straight into per-name totals:

* ``self_time[name]`` gets the duration minus the time its child spans
  cover (children run nested on the one thread, so they never overlap);
* ``calls[name]`` counts entries into the layer, i.e. spans whose parent has
  another name (a batch query that calls the single-value query counts once).

Spans are folded rather than kept because one pass closes millions of them
(every message send is a span). The sum of all self times equals the time
the root spans cover, which the benchmark checks against its own clock.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, DefaultDict, Iterator, List, Sequence, Tuple


class SpanAggregator:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_time: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        #: Open spans: [name, start, time covered by closed children].
        self._stack: List[list] = []

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_time[name] += duration - children
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            if parent[0] != name:
                self.calls[name] += 1
        else:
            self.calls[name] += 1

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*function* with every call recorded as a span called *name*."""
        opener, closer = self.open, self.close

        @wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            opener(name)
            try:
                return function(*args, **kwargs)
            finally:
                closer()

        return traced


#: (span name, classes, method names). Methods are wrapped on every class
#: in the hierarchy that defines them itself, so overrides are traced too.
Target = Tuple[str, Sequence[type], Sequence[str]]


def _with_subclasses(root: type) -> List[type]:
    found, pending = {}, [root]
    while pending:
        cls = pending.pop()
        found[cls] = None
        pending.extend(cls.__subclasses__())
    return list(found)


def layer_targets() -> List[Target]:
    """The entry points the benchmark wraps, by span name."""
    from repro.core.store import NogoodStore
    from repro.learning.base import LearningMethod
    from repro.retention.policy import RetentionPolicy
    from repro.runtime.agent import SimulatedAgent
    from repro.runtime.events.engine import EventDrivenSimulator
    from repro.runtime.events.transport import InProcessTransport
    from repro.runtime.network import Network
    from repro.runtime.simulator import SynchronousSimulator
    from repro.runtime.termination import GlobalSolutionDetector
    from repro.solvers.cdcl import CdclSolver

    stores = _with_subclasses(NogoodStore)
    return [
        ("store.read", stores, ("violated", "violated_batch")),
        (
            "store.read_keyed",
            stores,
            (
                "count_violated_higher",
                "count_violated_higher_batch",
                "count_violated_lower_batch",
                "violated_higher",
                "is_higher",
            ),
        ),
        ("store.add", stores, ("add",)),
        ("store.remove", stores, ("remove",)),
        ("retention.on_add", _with_subclasses(RetentionPolicy), ("on_add",)),
        (
            "learning.make_nogood",
            _with_subclasses(LearningMethod),
            ("make_nogood",),
        ),
        (
            "algorithms.step",
            _with_subclasses(SimulatedAgent),
            ("step", "initialize"),
        ),
        ("runtime.send", _with_subclasses(Network), ("send",)),
        ("runtime.deliver", _with_subclasses(Network), ("deliver",)),
        (
            "runtime.detect",
            _with_subclasses(GlobalSolutionDetector),
            ("is_solution",),
        ),
        ("runtime.loop", [SynchronousSimulator], ("run",)),
        ("events.send", [InProcessTransport], ("send",)),
        ("events.pop_due", [InProcessTransport], ("pop_due",)),
        ("events.loop", [EventDrivenSimulator], ("run",)),
        ("solvers.certify", [CdclSolver], ("solve",)),
    ]


@contextmanager
def traced_layers(
    aggregator: SpanAggregator, targets: Sequence[Target]
) -> Iterator[None]:
    """Wrap every target while the block runs; restore them afterwards."""
    originals = []
    try:
        for name, classes, methods in targets:
            for cls in classes:
                for method in methods:
                    if method in vars(cls):
                        original = vars(cls)[method]
                        originals.append((cls, method, original))
                        setattr(cls, method, aggregator.wrap(original, name))
        yield
    finally:
        for cls, method, original in reversed(originals):
            setattr(cls, method, original)
