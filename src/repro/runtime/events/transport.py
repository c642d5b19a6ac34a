"""The in-process message medium, re-exported for the event runtime.

Every simulated trial runs on one in-process medium,
:class:`~repro.runtime.network.InProcessTransport`, with pluggable latency
models; it lives in :mod:`repro.runtime.network` and is re-exported here
next to the other media. The other media are the
DPOR explorer's :class:`~repro.runtime.events.controlled.ScheduledTransport`
and the multiprocess socket runner
(:mod:`~repro.runtime.events.socket_transport`).
"""

from ..network import (
    Delivery,
    FixedLatency,
    InProcessTransport,
    LatencyModel,
    LossyLatency,
    MediumFactory,
    Network,
    UniformLatency,
    UnitLatency,
)

__all__ = [
    "Delivery",
    "FixedLatency",
    "InProcessTransport",
    "LatencyModel",
    "LossyLatency",
    "MediumFactory",
    "Network",
    "UniformLatency",
    "UnitLatency",
]
