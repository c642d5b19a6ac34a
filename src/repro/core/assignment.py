"""Agent views: what one agent currently believes about other variables.

Section 2.2 of the paper: "when an agent receives the latest information
from another agent, it updates an *agent_view*, a list of 3-tuples (agent's
id, variable's id, variable's value)". With one variable per agent the agent
id and variable id coincide; we key the view by variable id and also track
the variable's last known *priority*, which AWC needs for the higher/lower
nogood classification.

The module also provides small helpers over plain assignment dictionaries
(``{variable: value}``), which is the representation used for global
solution checking and for the centralized solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .variables import Value, VariableId


@dataclass(frozen=True)
class ViewEntry:
    """The last known state of one remote variable."""

    value: Value
    priority: int = 0


class AgentView:
    """A mutable map from remote variable id to its last known state.

    Only ever updated from received ``ok?`` messages, so it reflects possibly
    stale information — that staleness is inherent to asynchronous search and
    exactly what nogoods are expressed against.

    Values and priorities live in two plain dicts (``update`` allocates no
    per-entry object); the nogood store's consultation loop reads them
    directly. :meth:`entry` builds a :class:`ViewEntry` on demand.
    """

    __slots__ = ("_values", "_priorities", "priority_version", "priority_stamps")

    def __init__(self) -> None:
        self._values: Dict[VariableId, Value] = {}
        self._priorities: Dict[VariableId, int] = {}
        #: Bumped whenever some variable's *priority* (not value) changes.
        #: Priorities change on backtracks only, far more rarely than values.
        self.priority_version = 0
        #: variable -> the ``priority_version`` at which that variable's
        #: priority last changed, in ascending stamp order (a re-stamped
        #: variable moves to the end). One slot per variable the view has
        #: held, so it never grows with run length. The nogood store's
        #: priority-key cache walks it backwards down to the version it
        #: last synced at, and drops only the keys of nogoods mentioning a
        #: variable stamped since.
        self.priority_stamps: Dict[VariableId, int] = {}

    def update(self, variable: VariableId, value: Value, priority: int) -> bool:
        """Record the latest ``(value, priority)`` for *variable*.

        Returns True if this changed the view (new variable, new value, or
        new priority).
        """
        values = self._values
        priorities = self._priorities
        if variable in values:
            old_priority = priorities[variable]
            if values[variable] == value and old_priority == priority:
                return False
        else:
            # An unknown variable reads as priority 0, so only a transition
            # to or from a non-zero priority is a priority change.
            old_priority = 0
        if old_priority != priority:
            self._stamp(variable)
        values[variable] = value
        priorities[variable] = priority
        return True

    def forget(self, variable: VariableId) -> None:
        """Drop *variable* from the view (ABT uses this when backtracking)."""
        if variable not in self._values:
            return
        del self._values[variable]
        if self._priorities.pop(variable) != 0:
            self._stamp(variable)

    def _stamp(self, variable: VariableId) -> None:
        """Record a priority change of *variable* at a new version."""
        self.priority_version += 1
        stamps = self.priority_stamps
        stamps.pop(variable, None)
        stamps[variable] = self.priority_version

    def knows(self, variable: VariableId) -> bool:
        """True if the view holds a value for *variable*."""
        return variable in self._values

    def value_of(self, variable: VariableId) -> Optional[Value]:
        """The last known value of *variable*, or None if unknown."""
        return self._values.get(variable)

    def priority_of(self, variable: VariableId) -> int:
        """The last known priority of *variable* (0 if unknown).

        Zero is the correct default: every priority starts at zero and a
        variable we have never heard from cannot have raised it as far as we
        know.
        """
        return self._priorities.get(variable, 0)

    def entry(self, variable: VariableId) -> Optional[ViewEntry]:
        """The full entry for *variable*, or None."""
        if variable not in self._values:
            return None
        return ViewEntry(self._values[variable], self._priorities[variable])

    def items(self) -> Iterator[Tuple[VariableId, Value]]:
        """Iterate ``(variable, value)`` pairs in view insertion order."""
        return iter(self._values.items())

    def as_assignment(self) -> Dict[VariableId, Value]:
        """The view as a plain ``{variable: value}`` dictionary (a copy)."""
        return dict(self._values)

    def variables(self) -> Tuple[VariableId, ...]:
        """The variables currently in the view, in ascending id order."""
        return tuple(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[VariableId]:
        return iter(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"x{var}={value!r}@{self._priorities[var]}"
            for var, value in sorted(self._values.items())
        )
        return f"AgentView({inner})"


def merge_assignments(
    *assignments: Dict[VariableId, Value],
) -> Dict[VariableId, Value]:
    """Merge assignment dicts left to right (later dicts win on conflicts)."""
    merged: Dict[VariableId, Value] = {}
    for assignment in assignments:
        merged.update(assignment)
    return merged
