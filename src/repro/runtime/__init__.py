"""Runtime substrate: messages, the message medium, metrics, and engines.

The paper's experiments run on a simulator of a synchronous distributed
system; this package is that simulator, factored so the same agents run
unchanged on delayed/asynchronous latency models, with a cycle counted
either as one time unit or as one epoch.
"""

from .agent import SimulatedAgent
from .messages import (
    ImproveMessage,
    Message,
    NogoodMessage,
    OkMessage,
    OkRoundMessage,
    Outgoing,
    RequestValueMessage,
)
from .metrics import MetricsCollector
from .network import (
    FixedLatency,
    InProcessTransport,
    LossyLatency,
    MediumFactory,
    Network,
    UniformLatency,
    UnitLatency,
)
from .random_source import derive_rng, derive_seed
from .simulator import CLOCKS, DEFAULT_MAX_CYCLES, RunResult, Simulator
from .termination import (
    GlobalSolutionDetector,
    IncrementalSolutionDetector,
    collect_assignment,
)
from .trace import MessageEvent, TraceRecorder, ValueChangeEvent

__all__ = [
    "CLOCKS",
    "DEFAULT_MAX_CYCLES",
    "FixedLatency",
    "GlobalSolutionDetector",
    "IncrementalSolutionDetector",
    "InProcessTransport",
    "LossyLatency",
    "MediumFactory",
    "MessageEvent",
    "ImproveMessage",
    "Message",
    "MetricsCollector",
    "Network",
    "NogoodMessage",
    "OkMessage",
    "OkRoundMessage",
    "Outgoing",
    "RequestValueMessage",
    "RunResult",
    "SimulatedAgent",
    "Simulator",
    "TraceRecorder",
    "UniformLatency",
    "UnitLatency",
    "ValueChangeEvent",
    "collect_assignment",
    "derive_rng",
    "derive_seed",
]
