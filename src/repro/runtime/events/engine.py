"""The event engine's old name, still imported by ``perfbench/spans.py``.

The discrete-event engine is the one run loop of
:class:`~repro.runtime.simulator.Simulator` on its ``"events"`` clock: a
cycle is an epoch, one distinct time at which a message arrives or an agent
is woken. This name is a plain alias of that class; pass
``clock="events"`` for epoch counting.
"""

from ..simulator import Simulator

EventDrivenSimulator = Simulator
