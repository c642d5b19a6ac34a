"""The message medium: how messages move between agents.

The paper's experiments run on "a simulator of a synchronous distributed
system": in each cycle all agents read incoming messages, compute, and send,
so a message sent during cycle *t* is readable at cycle *t + 1*. Section 5
notes that the algorithms are designed for fully asynchronous systems and
should be analysed on other network types too. Both are one idea: a message
takes some number of time units. This module builds it once.

* :class:`Network` is the medium protocol the
  :class:`~repro.runtime.simulator.Simulator` runs on: its loop jumps to
  ``next_time()`` and pops what is due then with ``pop_due``.
* :class:`InProcessTransport` is the in-process medium: calendar buckets of
  plain ``(time, sequence, sender, recipient, message)`` tuples keyed by
  arrival time, in send order.
* A :class:`LatencyModel` decides how long each message takes:
  :class:`UnitLatency` (the paper's medium), :class:`FixedLatency` (Figure
  2's delay, realized), :class:`UniformLatency` (per-message random delay)
  and :class:`LossyLatency` (loss with retransmission).
* :class:`MediumFactory` is the picklable per-trial recipe the experiment
  runners take; random latency draws from a stream derived from the trial
  seed, so schedules are identical sequentially and under ``--jobs N``.

The DPOR explorer's :class:`~repro.runtime.events.controlled.ScheduledTransport`
and the socket runner are the only other media.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..core.exceptions import ModelError, SimulationError
from ..core.problem import AgentId
from .messages import Message
from .random_source import Seed, derive_rng

#: One message as a medium hands it over:
#: ``(arrival time, send sequence, sender, recipient, message)``.
Arrival = Tuple[int, int, AgentId, AgentId, Message]


class Delivery(NamedTuple):
    """An :data:`Arrival` with named fields (the DPOR explorer's records)."""

    time: int
    sequence: int
    sender: AgentId
    recipient: AgentId
    message: Message


class Network(Protocol):
    """What the simulator requires of a message medium.

    The simulator calls :meth:`send` while running time ``now``; the medium
    decides the arrival time, always after ``now``. :meth:`pop_due` returns
    what arrives exactly at ``now``, in send order, so runs are
    reproducible for a fixed seed. Time never runs backwards: the
    simulator pops every time that :meth:`next_time` names (and any time
    an agent is woken) and never sends at a time it has already popped.
    """

    sent_count: int

    def send(
        self, sender: AgentId, recipient: AgentId, message: Message, now: int
    ) -> None:
        """Schedule *message*, sent at time *now*."""
        ...

    def next_time(self) -> Optional[int]:
        """The earliest pending arrival time, or None when idle."""
        ...

    def pop_due(self, now: int) -> Sequence[Arrival]:
        """Remove and return every message arriving exactly at *now*."""
        ...

    def pending(self) -> int:
        """Number of messages in flight."""
        ...


# -- latency models -------------------------------------------------------------


class LatencyModel(Protocol):
    """How long a message takes, in time units (at least 1).

    A model whose delay never varies says so in ``constant`` (the delay);
    the medium then skips the per-message draw and the FIFO clamp, which a
    constant delay cannot violate. Random models set ``constant = None``.
    """

    @property
    def constant(self) -> Optional[int]:
        """The delay every message takes, or None when it is drawn."""
        ...

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        """The latency of one message from *sender* to *recipient*."""
        ...


class FixedLatency:
    """Every message takes exactly *delay* time units.

    This is the medium the paper's Figure 2 model abstracts: a per-cycle
    communication delay of a known number of time units. Running an
    algorithm on it and comparing the measured cycles against
    ``d × cycles_at_delay_1`` tests the linear model empirically (see
    :mod:`repro.experiments.validation`).
    """

    def __init__(self, delay: int = 1) -> None:
        if delay < 1:
            raise SimulationError(f"delay must be at least 1, got {delay}")
        self.constant = delay

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        del sender, recipient
        return self.constant


class UnitLatency(FixedLatency):
    """Every message takes one time unit: the paper's synchronous medium,
    on which both clocks agree (parity mode)."""

    def __init__(self) -> None:
        super().__init__(1)


class UniformLatency:
    """Seeded per-message latency, uniform in ``1..max_delay``.

    Draws come from *rng* when given; otherwise from a stream derived from
    *seed*. Pass the trial seed so the schedule is part of the trial's
    reproducible state, never shared global RNG state.
    """

    constant: Optional[int] = None

    def __init__(
        self,
        max_delay: int = 3,
        seed: Seed = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_delay < 1:
            raise SimulationError(
                f"max_delay must be at least 1, got {max_delay}"
            )
        self.max_delay = max_delay
        self._rng = (
            rng if rng is not None else derive_rng(seed, "events", "latency")
        )

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        del sender, recipient
        return self._rng.randint(1, self.max_delay)


class LossyLatency:
    """Messages are dropped with probability *loss_rate* and retransmitted.

    The DisCSP model assumes reliable delivery with finite delay. Real links
    lose packets; reliability is then built underneath by acknowledgment and
    retransmission. This model is that contract: each send is retried every
    *retransmit_after* time units until a copy survives, so delivery is
    guaranteed but takes a geometrically distributed number of rounds. The
    net effect is a random-delay channel whose delay comes from the loss
    process, which is why "finite delay" is the right abstraction for lossy
    links. Run it with FIFO on (the default) for TCP-style hold-back.

    ``retransmissions`` counts the lost copies. Draws come from *rng* when
    given; otherwise from a stream derived from *seed*.
    """

    constant: Optional[int] = None

    def __init__(
        self,
        loss_rate: float = 0.3,
        retransmit_after: int = 1,
        rng: Optional[random.Random] = None,
        max_attempts: int = 1000,
        seed: Seed = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        if retransmit_after < 1:
            raise SimulationError(
                f"retransmit_after must be at least 1, got {retransmit_after}"
            )
        self.loss_rate = loss_rate
        self.retransmit_after = retransmit_after
        self.max_attempts = max_attempts
        self._rng = (
            rng if rng is not None else derive_rng(seed, "network", "lossy")
        )
        self.retransmissions = 0

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        del sender, recipient
        attempts = 1
        while self._rng.random() < self.loss_rate:
            self.retransmissions += 1
            attempts += 1
            if attempts > self.max_attempts:
                raise SimulationError(
                    "message exceeded the retransmission budget; "
                    "loss_rate is unrealistically high"
                )
        return 1 + (attempts - 1) * self.retransmit_after


# -- the medium -----------------------------------------------------------------


class InProcessTransport:
    """The in-process medium: calendar buckets keyed by arrival time.

    Each bucket holds plain ``(time, sequence, sender, recipient, message)``
    tuples. Sends are numbered in order and appended, so every bucket is in
    send order and :meth:`pop_due` hands one over whole: no heap, no
    per-message object. Delivery order is a pure function of the send order
    and the (seeded) latency draws.

    With ``fifo=True`` arrivals on one ``(sender, recipient)`` channel are
    clamped to send order; with ``fifo=False`` messages can overtake, the
    harshest asynchrony the algorithms must tolerate. It satisfies
    :class:`Network` structurally.
    """

    def __init__(
        self, latency: Optional[LatencyModel] = None, fifo: bool = True
    ) -> None:
        self.latency: LatencyModel = (
            latency if latency is not None else UnitLatency()
        )
        self.fifo = fifo
        #: The delay of a constant model, or None for a drawn one.
        self._constant = self.latency.constant
        if self._constant is not None and self._constant < 1:
            raise SimulationError(
                f"latency model has a non-positive delay: {self._constant}"
            )
        self.sent_count = 0
        self.delivered_count = 0
        self._buckets: Dict[int, List[Arrival]] = {}
        #: The bucket the last send went to: consecutive sends of one time
        #: step mostly share an arrival time, and skip the dict lookup.
        self._tail: List[Arrival] = []
        self._tail_time: Optional[int] = None
        self._last_arrival: Dict[Tuple[AgentId, AgentId], int] = {}

    def send(
        self, sender: AgentId, recipient: AgentId, message: Message, now: int
    ) -> None:
        if recipient == sender:
            raise SimulationError(
                f"agent {sender} attempted to send a message to itself"
            )
        constant = self._constant
        if constant is not None:
            arrival = now + constant
        else:
            arrival = self._drawn_arrival(sender, recipient, now)
        if arrival != self._tail_time:
            self._tail = self._buckets.setdefault(arrival, [])
            self._tail_time = arrival
        sequence = self.sent_count
        self.sent_count = sequence + 1
        self._tail.append((arrival, sequence, sender, recipient, message))

    def _drawn_arrival(
        self, sender: AgentId, recipient: AgentId, now: int
    ) -> int:
        delay = self.latency.delay(sender, recipient)
        if delay < 1:
            raise SimulationError(
                f"latency model returned a non-positive delay: {delay}"
            )
        arrival = now + delay
        if self.fifo:
            channel = (sender, recipient)
            arrival = max(arrival, self._last_arrival.get(channel, 0))
            self._last_arrival[channel] = arrival
        return arrival

    def next_time(self) -> Optional[int]:
        if not self._buckets:
            return None
        return min(self._buckets)

    def pop_due(self, now: int) -> Sequence[Arrival]:
        due = self._buckets.pop(now, None)
        if due is None:
            return ()
        self.delivered_count += len(due)
        return due

    def pending(self) -> int:
        return self.sent_count - self.delivered_count


# -- picklable per-trial recipes ------------------------------------------------

#: The latency kinds a :class:`MediumFactory` builds.
LATENCY_KINDS = ("unit", "fixed", "uniform", "lossy")


@dataclass(frozen=True)
class MediumFactory:
    """Builds each trial's :class:`InProcessTransport`.

    ``latency`` picks the model: ``"unit"``, ``"fixed"`` (every message
    takes ``delay``), ``"uniform"`` (``1..delay``) or ``"lossy"``
    (``loss_rate``, retransmitted every time unit). Random models draw from
    ``derive_rng(trial seed, *stream)``, or from the model's own stream
    when ``stream`` is None. A frozen top-level dataclass (not a closure),
    so it pickles into ``--jobs N`` worker processes.
    """

    latency: str = "unit"
    delay: int = 1
    loss_rate: float = 0.0
    fifo: bool = True
    stream: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.latency not in LATENCY_KINDS:
            raise ModelError(
                f"unknown latency {self.latency!r}; expected one of "
                f"{LATENCY_KINDS}"
            )
        if self.delay < 1:
            raise ModelError(f"delay must be at least 1, got {self.delay}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ModelError(
                f"loss rate must be in [0, 1), got {self.loss_rate}"
            )

    def __call__(self, seed: Seed) -> InProcessTransport:
        latency: LatencyModel
        rng = derive_rng(seed, *self.stream) if self.stream else None
        if self.latency == "unit":
            latency = UnitLatency()
        elif self.latency == "fixed":
            latency = FixedLatency(self.delay)
        elif self.latency == "uniform":
            latency = UniformLatency(self.delay, seed=seed, rng=rng)
        else:
            latency = LossyLatency(self.loss_rate, rng=rng, seed=seed)
        return InProcessTransport(latency, fifo=self.fifo)
