"""Discrete-event asynchronous runtime with pluggable transports.

The second execution backend next to the synchronous cycle simulator
(:mod:`repro.runtime.simulator`): a seeded discrete-event engine that
activates agents only when mail arrives. It runs on the same
:class:`~repro.runtime.network.Network` medium as the cycle simulator (with
unit latency it reproduces that simulator trial-for-trial); the
schedule-controlled transport of the DPOR explorer and a multiprocess
socket transport for genuinely concurrent agents are the other media. See the
module docstrings of :mod:`~repro.runtime.events.engine` and
:mod:`~repro.runtime.events.socket_transport` for the execution and
metrics semantics, and ``EXPERIMENTS.md`` for how the logical-time
measures relate to the paper's ``cycle``/``maxcck``.
"""

from .controlled import ChoicePoint, ScheduledTransport
from .engine import ACTIVATION_MODES, EventDrivenSimulator
from .socket_transport import run_socket_trial
from .transport import (
    Delivery,
    InProcessTransport,
    LatencyModel,
    UniformLatency,
    UnitLatency,
)

__all__ = [
    "ACTIVATION_MODES",
    "ChoicePoint",
    "Delivery",
    "EventDrivenSimulator",
    "ScheduledTransport",
    "InProcessTransport",
    "LatencyModel",
    "UniformLatency",
    "UnitLatency",
    "run_socket_trial",
]
