"""The media beyond the in-process one, and the asynchronous runners.

Every in-process trial runs on the one loop of
:class:`~repro.runtime.simulator.Simulator` (its ``"events"`` clock counts
epochs, see that module). This package holds what else runs agents
asynchronously: the schedule-controlled transport of the DPOR explorer and
a multiprocess socket transport for genuinely concurrent agents. See
:mod:`~repro.runtime.events.socket_transport` for its metrics semantics,
and ``EXPERIMENTS.md`` for how the logical-time measures relate to the
paper's ``cycle``/``maxcck``.
"""

from .controlled import ChoicePoint, ScheduledTransport
from .socket_transport import run_socket_trial
from .transport import (
    Delivery,
    InProcessTransport,
    LatencyModel,
    UniformLatency,
    UnitLatency,
)

__all__ = [
    "ChoicePoint",
    "Delivery",
    "ScheduledTransport",
    "InProcessTransport",
    "LatencyModel",
    "UniformLatency",
    "UnitLatency",
    "run_socket_trial",
]
