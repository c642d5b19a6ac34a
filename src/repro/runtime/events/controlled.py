"""A schedule-controlled transport: the DPOR explorer's replay seam.

The verifier (:mod:`repro.verify`) needs to *choose* delivery orders, not
sample them: given the same agents and seed, it must be able to replay a
prefix of scheduling decisions and then branch. :class:`ScheduledTransport`
turns the engine's medium seam into exactly that choice point:

* every ``pop_due`` delivers **one** message — the engine's epoch becomes a
  single handler invocation, so the schedule fully serializes handler
  execution (the granularity DPOR reasons about);
* the set of deliverable messages (the *enabled set*) is the per-channel
  FIFO heads — the transport honors the same per-``(sender, recipient)``
  ordering guarantee as :class:`InProcessTransport` with ``fifo=True``, and
  explores every reordering *across* channels, which is precisely the
  freedom :class:`~repro.runtime.network.UniformLatency` has;
* which head is delivered comes from a replayable ``schedule`` — a sequence
  of indices into the (deterministically sorted) enabled set; when the
  schedule is exhausted, index 0 is chosen, so a schedule is a *prefix* of
  decisions and the run completes deterministically beyond it.

Every decision is recorded in ``choice_log`` (the enabled set and the index
taken) and every delivery in ``delivery_log``; the explorer reads both to
find the branch points of the next schedules and to check per-delivery
invariants (e.g. no lost nogoods) after the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...core.exceptions import SimulationError
from ...core.problem import AgentId
from ..messages import Message
from ..network import Delivery

#: Observer invoked at every scheduling decision (the choice-point hook).
ChoiceHook = Callable[["ChoicePoint"], None]


@dataclass(frozen=True)
class ChoicePoint:
    """One scheduling decision: what was deliverable, what was chosen."""

    time: int
    enabled: Tuple[Delivery, ...]
    chosen: int

    @property
    def branching(self) -> bool:
        """True when the decision was a real choice (>1 enabled head)."""
        return len(self.enabled) > 1


class ScheduledTransport:
    """A :class:`~repro.runtime.network.Network` medium driven by an
    explicit schedule of delivery choices.

    Pending messages are kept in send order; the enabled set at each epoch
    is the first pending message of every ``(sender, recipient)`` channel,
    sorted by ``(sender, recipient, sequence)`` so index *k* names the same
    delivery on every replay of the same prefix.
    """

    def __init__(
        self,
        schedule: Sequence[int] = (),
        on_choice: Optional[ChoiceHook] = None,
    ) -> None:
        self.sent_count = 0
        self.delivered_count = 0
        self.on_choice = on_choice
        self.choice_log: List[ChoicePoint] = []
        self.delivery_log: List[Delivery] = []
        self._schedule: Tuple[int, ...] = tuple(schedule)
        self._cursor = 0
        self._sequence = 0
        self._clock = 0
        self._pending: List[Delivery] = []

    # -- Network protocol -------------------------------------------------------

    def send(
        self, sender: AgentId, recipient: AgentId, message: Message, now: int
    ) -> None:
        if recipient == sender:
            raise SimulationError(
                f"agent {sender} attempted to send a message to itself"
            )
        self._pending.append(
            Delivery(now, self._sequence, sender, recipient, message)
        )
        self._sequence += 1
        self.sent_count += 1

    def next_time(self) -> Optional[int]:
        """One epoch past the last delivery — epochs are decision steps."""
        if not self._pending:
            return None
        return self._clock + 1

    def pop_due(self, now: int) -> List[Delivery]:
        self._clock = max(self._clock, now)
        if not self._pending:
            return []
        enabled = self.enabled()
        if self._cursor < len(self._schedule):
            index = self._schedule[self._cursor]
        else:
            index = 0
        self._cursor += 1
        if not 0 <= index < len(enabled):
            raise SimulationError(
                f"schedule chose delivery {index} but only "
                f"{len(enabled)} channel heads are enabled at time {now}"
            )
        point = ChoicePoint(time=now, enabled=enabled, chosen=index)
        self.choice_log.append(point)
        if self.on_choice is not None:
            self.on_choice(point)
        chosen = enabled[index]
        self._pending.remove(chosen)
        delivered = chosen._replace(time=now)
        self.delivery_log.append(delivered)
        self.delivered_count += 1
        return [delivered]

    def pending(self) -> int:
        return len(self._pending)

    # -- introspection ----------------------------------------------------------

    def enabled(self) -> Tuple[Delivery, ...]:
        """The deliverable messages: per-channel FIFO heads, sorted."""
        heads: Dict[Tuple[AgentId, AgentId], Delivery] = {}
        for delivery in self._pending:
            channel = (delivery.sender, delivery.recipient)
            if channel not in heads:
                heads[channel] = delivery
        return tuple(heads[channel] for channel in sorted(heads))

    @property
    def choices_taken(self) -> Tuple[int, ...]:
        """The full decision sequence of the run so far (replayable)."""
        return tuple(point.chosen for point in self.choice_log)
