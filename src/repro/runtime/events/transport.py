"""The event engine's view of the message medium.

Both engines run on one in-process medium,
:class:`~repro.runtime.network.InProcessTransport`, with pluggable latency
models; it lives in :mod:`repro.runtime.network` (the lockstep simulator
imports it from there without importing the event runtime) and is
re-exported here for the event runtime. The other media are the
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
