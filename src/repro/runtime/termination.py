"""Detecting when a simulated run is done.

The paper's simulator observes the system globally: a trial ends when the
agents' current values form a solution ("cycles consumed until a solution is
found"), or when the cycle cap (10 000 in the paper) is hit. This module
provides that observer and an incremental variant of it.

Under message delays a global assignment can look like a solution while
messages are still in flight. Counting it as solved is still correct: the
paper's own simulator does exactly this, and for a consistent assignment of
a CSP in-flight messages can only confirm it, never invalidate it (nogoods
are entailed by the problem).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Set, Tuple

from ..core.nogood import Nogood
from ..core.problem import DisCSP
from ..core.variables import Value, VariableId

if TYPE_CHECKING:
    from .agent import SimulatedAgent


class GlobalSolutionDetector:
    """Checks the agents' combined assignment against the original problem.

    Only the *original* nogoods are checked. Learned nogoods are logically
    entailed by the original ones, so they cannot exclude a true solution,
    and checking them would make termination depend on the learning method.
    """

    def __init__(self, problem: DisCSP) -> None:
        self._problem = problem

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        """True if *assignment* solves the problem."""
        return self._problem.is_solution(assignment)


class IncrementalSolutionDetector(GlobalSolutionDetector):
    """A stateful detector that re-evaluates only what a cycle changed.

    :class:`GlobalSolutionDetector` re-evaluates every original nogood on
    every call — O(constraints) work per cycle even when a single agent
    moved. This variant keeps the last observed assignment and a per-nogood
    violated flag; each call diffs the new assignment against the previous
    one and re-evaluates only the nogoods adjacent (via the problem's
    variable→constraint index) to the variables that changed, maintaining a
    running violated count. Per cycle that is O(variables) for the diff plus
    O(constraints touching changed variables) for re-evaluation, instead of
    O(all constraints).

    Detection is purely observational: it performs no
    :meth:`~repro.core.store.NogoodStore.is_violated` calls, so it
    contributes nothing to the paper's ``maxcck``/check accounting — exactly
    like the full re-scan it replaces.

    The detector is stateful and therefore **per-run**: build a fresh one
    per simulator (the simulator's default does this). A positive answer is
    re-verified against the full problem before being returned, so a
    bookkeeping bug can never report a false solution.
    """

    def __init__(self, problem: DisCSP) -> None:
        super().__init__(problem)
        csp = problem.csp
        self._variables: Tuple[VariableId, ...] = csp.variables
        self._domains = {
            variable: csp.domain_of(variable) for variable in self._variables
        }
        # Adjacency and flags key nogoods by identity: the tuples returned
        # by relevant_nogoods() hold the same objects as csp.nogoods, and
        # identity keys cost one pointer hash instead of hashing pair sets.
        self._adjacent: Dict[VariableId, Tuple[Nogood, ...]] = {
            variable: csp.relevant_nogoods(variable)
            for variable in self._variables
        }
        self._violated_flag: Dict[int, bool] = {
            id(nogood): False for nogood in csp.nogoods
        }
        self._violated_count = 0
        #: Variables currently unassigned or holding an out-of-domain value.
        self._bad_vars: Set[VariableId] = set(self._variables)
        self._last: Dict[VariableId, Value] = {}

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        changed = self._diff(assignment)
        if changed:
            self._apply(changed, assignment)
        if self._bad_vars or self._violated_count:
            return False
        # Cheap paranoia: a full check runs only on candidate solutions
        # (at most once per trial plus the rare already-solved cycle 0).
        return self._problem.is_solution(assignment)

    # -- internals ---------------------------------------------------------

    def _diff(
        self, assignment: Mapping[VariableId, Value]
    ) -> List[VariableId]:
        """The variables whose value differs from the last observation."""
        last = self._last
        missing = object()
        changed = [
            variable
            for variable in self._variables
            if assignment.get(variable, missing) != last.get(variable, missing)
        ]
        return changed

    def _apply(
        self,
        changed: List[VariableId],
        assignment: Mapping[VariableId, Value],
    ) -> None:
        """Fold the changed variables into the detector's running state."""
        touched: Dict[int, Nogood] = {}
        for variable in changed:
            if variable in assignment:
                value = assignment[variable]
                self._last[variable] = value
                if value in self._domains[variable]:
                    self._bad_vars.discard(variable)
                else:
                    self._bad_vars.add(variable)
            else:
                self._last.pop(variable, None)
                self._bad_vars.add(variable)
            for nogood in self._adjacent[variable]:
                touched[id(nogood)] = nogood
        flags = self._violated_flag
        for key, nogood in touched.items():
            now = nogood.prohibits(self._last)
            if now != flags[key]:
                flags[key] = now
                self._violated_count += 1 if now else -1


def collect_assignment(
    agents: Iterable["SimulatedAgent"],
) -> Dict[VariableId, Value]:
    """Merge the local assignments of *agents* into one global assignment."""
    merged: Dict[VariableId, Value] = {}
    for agent in agents:
        merged.update(agent.local_assignment())
    return merged
