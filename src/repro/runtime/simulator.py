"""The simulator: one run loop for lockstep cycles and asynchronous time.

Section 4 of the paper: "A synchronous distributed system is one of possible
distributed systems, where all processes (agents) do their cycles
synchronously. One cycle consists of activities so that all agents read
incoming messages, do their local computation, and send messages to relevant
agents." Section 5 adds that the algorithms "are designed for a fully
asynchronous distributed system". Both are one idea: a message takes some
number of time units over a :class:`~repro.runtime.network.Network` medium.

:class:`Simulator` runs agents over such a medium. Its loop jumps to the
next time anything happens (the earliest message arrival or agent wakeup),
hands each agent the messages due then, and steps only the agents that have
mail or a wakeup, in agent-id order. An agent without either would be a
no-op (``step([])`` sends, checks and changes nothing for every algorithm
in the repo); an agent that holds work across steps (the multi-variable AWC
agent's carryover queue) declares it via
:meth:`~repro.runtime.agent.SimulatedAgent.has_pending_work` and is woken
at the next time unit.

The ``clock`` says what one cycle of the paper's measures is:

* ``"sync"`` — a cycle is one time unit, the paper's synchronous system.
  Time units in which nothing arrives are still closed as cycles
  (``metrics.end_cycle()``), so initialization checks land in cycle 1 and
  the cycle cap counts time units. With the default unit-latency
  :class:`~repro.runtime.network.InProcessTransport` every message takes
  one cycle (the paper's setting); a slower medium stretches the run.
* ``"events"`` — a cycle is an *epoch*: one distinct time at which
  something happens. ``cycles`` counts epochs, ``maxcck`` sums the
  per-epoch maxima of nogood checks, and ``logical_time`` is the last
  epoch's time, which runs ahead of ``cycles`` under random latency.

On the unit-latency medium no time unit is idle, so the clocks agree
trial-for-trial (parity mode).

Termination:

* a global observer sees a solution (``cycles`` = cycles consumed so far;
  a random initial assignment that is already a solution costs zero);
* an agent derives the empty nogood (the problem is unsolvable);
* the system quiesces without a solution: no message is in flight and no
  agent is owed a wakeup (possible for the incomplete variants);
* the cycle cap is reached (the paper uses 10 000 and reports the at-cap
  measurements; so do we, via ``capped=True``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.exceptions import SimulationError
from ..core.problem import AgentId, DisCSP
from ..core.variables import Value, VariableId
from .agent import SimulatedAgent
from .messages import Message, Outgoing
from .metrics import MetricsCollector
from .network import InProcessTransport, Network
from .termination import (
    GlobalSolutionDetector,
    IncrementalSolutionDetector,
    collect_assignment,
)

if TYPE_CHECKING:
    from .trace import TraceRecorder

#: The paper's cycle cap.
DEFAULT_MAX_CYCLES = 10_000

#: What a cycle is: one time unit ("sync") or one epoch ("events").
CLOCKS = ("sync", "events")


@dataclass
class RunResult:
    """The outcome and cost of one simulated trial."""

    solved: bool
    unsolvable: bool
    capped: bool
    quiescent: bool
    cycles: int
    maxcck: int
    total_checks: int
    messages_sent: int
    generated_nogoods: int
    redundant_generations: int
    assignment: Dict[VariableId, Value] = field(default_factory=dict)
    wall_time: float = 0.0
    #: Wall-clock seconds minus time spent inside the tracer's hooks: the
    #: simulation cost proper, comparable across traced and untraced runs.
    sim_time: float = 0.0
    max_history: List[int] = field(default_factory=list)
    #: The time unit at which the run ended. On the ``"sync"`` clock this
    #: equals ``cycles``; on the ``"events"`` clock it is the last epoch's
    #: time, which grows faster than ``cycles`` under random latency.
    logical_time: int = 0

    @property
    def finished(self) -> bool:
        """True if the run ended with a definite answer (solved/unsolvable)."""
        return self.solved or self.unsolvable


class Simulator:
    """Runs a set of agents to termination over a message medium.

    ``clock`` is ``"sync"`` (a cycle is one time unit) or ``"events"`` (a
    cycle is an epoch); ``max_cycles`` caps the cycles so counted.
    """

    def __init__(
        self,
        problem: DisCSP,
        agents: Sequence[SimulatedAgent],
        network: Optional[Network] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        metrics: Optional[MetricsCollector] = None,
        detector: Optional[GlobalSolutionDetector] = None,
        tracer: Optional["TraceRecorder"] = None,
        clock: str = "sync",
    ) -> None:
        if max_cycles < 1:
            raise SimulationError(f"max_cycles must be positive: {max_cycles}")
        if clock not in CLOCKS:
            raise SimulationError(
                f"unknown clock {clock!r}; expected one of {CLOCKS}"
            )
        ids = [agent.id for agent in agents]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate agent ids: {sorted(ids)}")
        if set(ids) != set(problem.agents):
            raise SimulationError(
                "agents do not match the problem: "
                f"expected {sorted(problem.agents)}, got {sorted(ids)}"
            )
        self.problem = problem
        self.agents: List[SimulatedAgent] = sorted(agents, key=lambda a: a.id)
        self.network: Network = (
            network if network is not None else InProcessTransport()
        )
        self.max_cycles = max_cycles
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.detector = (
            detector
            if detector is not None
            else IncrementalSolutionDetector(problem)
        )
        #: Optional TraceRecorder-compatible observer (on_message /
        #: on_delivery / on_cycle_end hooks). Purely observational.
        self.tracer = tracer
        #: Seconds spent inside tracer hooks; subtracted from ``wall_time``
        #: to report ``sim_time``.
        self._tracer_seconds = 0.0
        self._by_id: Dict[AgentId, SimulatedAgent] = {
            agent.id: agent for agent in self.agents
        }
        #: The agents whose class can hold work across steps: only they
        #: are asked for pending work after each epoch.
        self._deferring = [
            agent
            for agent in self.agents
            if type(agent).has_pending_work
            is not SimulatedAgent.has_pending_work
        ]
        for agent in self.agents:
            self.metrics.attach(agent.id, agent.check_counter)

    # -- driving --------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to termination and return the trial's result."""
        started = time.perf_counter()
        metrics = self.metrics
        max_cycles = self.max_cycles
        lockstep = self.clock == "sync"
        now = 0
        for agent in self.agents:
            self._route(now, agent.id, agent.initialize())
        woken = self._pending_work()
        solved = self._solution_found()
        unsolvable = self._any_failure()
        quiescent = False
        while not solved and not unsolvable and metrics.cycles < max_cycles:
            # Arrivals always lie after now, so a wakeup is always next.
            next_time = now + 1 if woken else self.network.next_time()
            if next_time is None:
                quiescent = True
                break
            if lockstep:
                while now + 1 < next_time and metrics.cycles < max_cycles:
                    now += 1
                    self._end_cycle(now)
                if metrics.cycles >= max_cycles:
                    break
            now = next_time
            woken = self._run_epoch(now, woken)
            self._end_cycle(now)
            solved = self._solution_found()
            unsolvable = self._any_failure()
        wall_time = time.perf_counter() - started
        return RunResult(
            solved=solved,
            unsolvable=unsolvable,
            capped=not (solved or unsolvable or quiescent),
            quiescent=quiescent,
            cycles=metrics.cycles,
            maxcck=metrics.maxcck,
            total_checks=metrics.total_checks,
            messages_sent=self.network.sent_count,
            generated_nogoods=metrics.generated_count,
            redundant_generations=metrics.redundant_generations,
            assignment=collect_assignment(self.agents),
            wall_time=wall_time,
            sim_time=wall_time - self._tracer_seconds,
            max_history=list(metrics.max_history),
            logical_time=now,
        )

    # -- internals -------------------------------------------------------------

    def _run_epoch(
        self, now: int, woken: List[SimulatedAgent]
    ) -> List[SimulatedAgent]:
        """Deliver everything due at *now* and step the agents with mail or
        a wakeup; returns the agents owed a wakeup at ``now + 1``."""
        due = self.network.pop_due(now)
        inbox: Dict[AgentId, List[Message]] = {}
        for _time, _sequence, _sender, recipient, message in due:
            messages = inbox.get(recipient)
            if messages is None:
                inbox[recipient] = [message]
            else:
                messages.append(message)
        tracer = self.tracer
        if tracer is not None:
            traced_at = time.perf_counter()
            for _time, sequence, sender, recipient, _message in due:
                tracer.on_delivery(now, sequence, sender, recipient)
            self._tracer_seconds += time.perf_counter() - traced_at
        for agent in woken:
            inbox.setdefault(agent.id, [])
        by_id = self._by_id
        route = self._route
        for agent_id in sorted(inbox):
            outgoing = by_id[agent_id].step(inbox[agent_id])
            if outgoing:
                route(now, agent_id, outgoing)
        return self._pending_work()

    def _route(
        self, now: int, sender: AgentId, outgoing: Sequence[Outgoing]
    ) -> None:
        known = self._by_id
        tracer = self.tracer
        network = self.network
        send = network.send
        for recipient, message in outgoing:
            if recipient not in known:
                raise SimulationError(
                    f"agent {sender} sent a message to unknown agent "
                    f"{recipient}"
                )
            if tracer is not None:
                traced_at = time.perf_counter()
                # sent_count is the medium's send counter *before* this
                # send: the sequence the medium stamps on the delivery.
                tracer.on_message(
                    now, sender, recipient, message,
                    sequence=network.sent_count,
                )
                self._tracer_seconds += time.perf_counter() - traced_at
            send(sender, recipient, message, now)

    def _end_cycle(self, now: int) -> None:
        self.metrics.end_cycle()
        if self.tracer is not None:
            traced_at = time.perf_counter()
            self.tracer.on_cycle_end(now, collect_assignment(self.agents))
            self._tracer_seconds += time.perf_counter() - traced_at

    def _pending_work(self) -> List[SimulatedAgent]:
        return [agent for agent in self._deferring if agent.has_pending_work()]

    def _solution_found(self) -> bool:
        return self.detector.is_solution(collect_assignment(self.agents))

    def _any_failure(self) -> bool:
        return any(agent.failure is not None for agent in self.agents)


#: The lockstep engine's old name, still imported by ``perfbench/spans.py``.
SynchronousSimulator = Simulator
