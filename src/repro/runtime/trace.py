"""Execution tracing for simulated runs.

Distributed algorithms are miserable to debug from final states alone. A
:class:`TraceRecorder` attached to the simulator records, per cycle, every
message routed and every variable whose value changed, and can render the
whole run as a readable log. Tracing is strictly observational — it never
alters delivery, ordering, or cost accounting — and is off by default
(recording every message of a 10 000-cycle run is memory-hungry; the
``max_events`` bound drops the oldest events past the cap).
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..core.nogood import Nogood
from ..core.problem import AgentId
from ..core.variables import Value, VariableId
from .messages import Message


@dataclass(frozen=True)
class MessageEvent:
    """One message routed during a cycle.

    ``sequence`` is the medium's monotone send counter, which the
    simulator stamps on every message; a hand-built event may leave it
    None. It is what lets the trace validator pair each delivery with its
    send.
    """

    cycle: int
    sender: AgentId
    recipient: AgentId
    message: Message
    sequence: Optional[int] = None

    def describe(self) -> str:
        kind = type(self.message).__name__.replace("Message", "")
        return (
            f"[{self.cycle:>5}] {self.sender} -> {self.recipient}: "
            f"{kind} {self.message}"
        )


@dataclass(frozen=True)
class DeliveryEvent:
    """One message handed to its recipient by the medium.

    ``cycle`` is the *arrival* timestamp; ``sequence`` identifies the send
    it completes.
    """

    cycle: int
    sequence: int
    sender: AgentId
    recipient: AgentId

    def describe(self) -> str:
        return (
            f"[{self.cycle:>5}] {self.sender} => {self.recipient}: "
            f"delivered #{self.sequence}"
        )


@dataclass(frozen=True)
class ValueChangeEvent:
    """One variable changing value between consecutive cycles."""

    cycle: int
    variable: VariableId
    old_value: Optional[Value]
    new_value: Value

    def describe(self) -> str:
        return (
            f"[{self.cycle:>5}] x{self.variable}: "
            f"{self.old_value!r} -> {self.new_value!r}"
        )


class TraceRecorder:
    """Collects message and value-change events from a simulated run."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.messages: List[MessageEvent] = []
        self.deliveries: List[DeliveryEvent] = []
        self.changes: List[ValueChangeEvent] = []
        self.dropped = 0
        self._last_assignment: Dict[VariableId, Value] = {}

    # -- hooks called by the simulator ------------------------------------------

    def on_message(
        self,
        cycle: int,
        sender: AgentId,
        recipient: AgentId,
        message: Message,
        sequence: Optional[int] = None,
    ) -> None:
        if len(self.messages) >= self.max_events:
            self.dropped += 1
            return
        self.messages.append(
            MessageEvent(cycle, sender, recipient, message, sequence)
        )

    def on_delivery(
        self,
        cycle: int,
        sequence: int,
        sender: AgentId,
        recipient: AgentId,
    ) -> None:
        if len(self.deliveries) >= self.max_events:
            self.dropped += 1
            return
        self.deliveries.append(
            DeliveryEvent(cycle, sequence, sender, recipient)
        )

    def on_cycle_end(
        self, cycle: int, assignment: Dict[VariableId, Value]
    ) -> None:
        for variable, value in assignment.items():
            previous = self._last_assignment.get(variable)
            if previous != value:
                if len(self.changes) < self.max_events:
                    self.changes.append(
                        ValueChangeEvent(cycle, variable, previous, value)
                    )
                else:
                    self.dropped += 1
        self._last_assignment = dict(assignment)

    # -- queries -----------------------------------------------------------------

    def messages_in_cycle(self, cycle: int) -> List[MessageEvent]:
        """Messages routed during one cycle."""
        return [event for event in self.messages if event.cycle == cycle]

    def changes_of(self, variable: VariableId) -> List[ValueChangeEvent]:
        """The value history of one variable."""
        return [
            event for event in self.changes if event.variable == variable
        ]

    def message_counts_by_type(self) -> Dict[str, int]:
        """How many messages of each type were sent over the run."""
        counts: Counter = Counter(
            type(event.message).__name__ for event in self.messages
        )
        return dict(counts)

    def busiest_agents(self, top: int = 5) -> List[Tuple[AgentId, int]]:
        """Agents ranked by messages sent."""
        counts: Counter = Counter(event.sender for event in self.messages)
        return counts.most_common(top)

    def to_jsonl_records(self) -> Iterator[Dict[str, Any]]:
        """The merged event log as JSON-safe dicts, in cycle order.

        Message events carry ``event: "message"``, the message's type name
        as ``kind``, and its fields flattened JSON-safe (nogoods become
        sorted ``[variable, value]`` pair lists) — plus the medium's send
        ``sequence`` when the event carries one. Deliveries carry
        ``event: "delivery"`` stamped with the *arrival* cycle and the
        sequence of the send they complete. Value changes carry
        ``event: "value_change"``. A final ``event: "summary"`` record
        reports totals and the drop count, so a truncated trace is
        detectable from the file alone.

        ``repro lint --check-trace`` replays this format and asserts the
        runtime invariants (clock monotonicity, causal delivery, the FIFO
        clamp) hold over the recorded run.
        """
        merged: List[
            Union[MessageEvent, DeliveryEvent, ValueChangeEvent]
        ] = sorted(
            self.messages + self.deliveries + self.changes,
            key=lambda event: event.cycle,
        )
        for event in merged:
            if isinstance(event, MessageEvent):
                record: Dict[str, Any] = {
                    "event": "message",
                    "cycle": event.cycle,
                    "sender": event.sender,
                    "recipient": event.recipient,
                    "kind": type(event.message).__name__,
                    **{
                        field.name: _json_safe(
                            getattr(event.message, field.name)
                        )
                        for field in dataclasses.fields(event.message)
                    },
                }
                if event.sequence is not None:
                    record["sequence"] = event.sequence
                yield record
            elif isinstance(event, DeliveryEvent):
                yield {
                    "event": "delivery",
                    "cycle": event.cycle,
                    "sequence": event.sequence,
                    "sender": event.sender,
                    "recipient": event.recipient,
                }
            else:
                yield {
                    "event": "value_change",
                    "cycle": event.cycle,
                    "variable": event.variable,
                    "old_value": _json_safe(event.old_value),
                    "new_value": _json_safe(event.new_value),
                }
        summary: Dict[str, Any] = {
            "event": "summary",
            "messages": len(self.messages),
            "value_changes": len(self.changes),
            "dropped": self.dropped,
        }
        if self.deliveries:
            summary["deliveries"] = len(self.deliveries)
        yield summary

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write the event log to *path* as JSON Lines; returns the record
        count (including the trailing summary record)."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.to_jsonl_records():
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
                count += 1
        return count

    def render(self, limit: int = 200) -> str:
        """The merged event log as text (first *limit* events)."""
        merged: List[
            Union[MessageEvent, DeliveryEvent, ValueChangeEvent]
        ] = sorted(
            self.messages + self.deliveries + self.changes,
            key=lambda event: event.cycle,
        )
        lines = [event.describe() for event in merged[:limit]]
        if len(merged) > limit:
            lines.append(f"... {len(merged) - limit} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (max_events)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TraceRecorder({len(self.messages)} messages, "
            f"{len(self.changes)} value changes)"
        )


def _json_safe(value: Any) -> Any:
    """A JSON-serializable rendering of a message field value.

    Nogoods have no natural JSON form (a frozenset of pairs), so they
    become sorted ``[variable, value]`` lists — deterministic, hence
    diffable across runs.
    """
    if isinstance(value, Nogood):
        return sorted([variable, value_] for variable, value_ in value.pairs)
    if isinstance(value, (frozenset, set)):
        return sorted(_json_safe(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)
