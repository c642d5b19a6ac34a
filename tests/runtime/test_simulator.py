"""The simulator on its lockstep clock: cycle semantics, termination, cost
accounting."""

from typing import Dict, List, Sequence

import pytest

from repro.core import DisCSP, Nogood, integer_domain
from repro.core.exceptions import SimulationError
from repro.runtime.agent import SimulatedAgent
from repro.runtime.messages import Message, OkMessage, Outgoing
from repro.runtime.simulator import Simulator
from repro.runtime.termination import (
    GlobalSolutionDetector,
    collect_assignment,
)


def two_agent_problem():
    """x0, x1 over {0,1}; (0,0) is forbidden."""
    return DisCSP.one_variable_per_agent(
        {0: integer_domain(2), 1: integer_domain(2)},
        [Nogood.of((0, 0), (1, 0))],
    )


class ScriptedAgent(SimulatedAgent):
    """An agent that plays back a fixed per-cycle script (for testing).

    The simulator steps an agent only on mail or a wakeup, so the agent
    reports pending work while its script has cycles left: it is then
    stepped every cycle and its step count is the cycle number.
    """

    def __init__(self, agent_id, variable, value, script=None):
        super().__init__(agent_id)
        self.variable = variable
        self.value = value
        self.script = script or {}
        self.cycle = 0
        self.received: List[List[Message]] = []

    def initialize(self) -> List[Outgoing]:
        return list(self.script.get("init", []))

    def step(self, messages: Sequence[Message]) -> List[Outgoing]:
        self.received.append(list(messages))
        self.cycle += 1
        action = self.script.get(self.cycle)
        if action is None:
            return []
        if "value" in action:
            self.value = action["value"]
        if "checks" in action:
            self.check_counter.bump(action["checks"])
        if "fail" in action:
            self.fail_unsolvable("scripted failure")
        return list(action.get("send", []))

    def has_pending_work(self) -> bool:
        return any(
            isinstance(cycle, int) and cycle > self.cycle
            for cycle in self.script
        )

    def local_assignment(self) -> Dict[int, int]:
        return {self.variable: self.value}


class TestTerminationModes:
    def test_initial_solution_costs_zero_cycles(self):
        problem = two_agent_problem()
        agents = [ScriptedAgent(0, 0, 1), ScriptedAgent(1, 1, 0)]
        result = Simulator(problem, agents).run()
        assert result.solved
        assert result.cycles == 0

    def test_solution_reached_after_value_change(self):
        problem = two_agent_problem()
        agents = [
            ScriptedAgent(0, 0, 0, script={2: {"value": 1}}),
            ScriptedAgent(1, 1, 0, script={
                "init": [(0, OkMessage(1, 1, 0))],
                1: {"send": [(0, OkMessage(1, 1, 0))]},
                2: {"send": [(0, OkMessage(1, 1, 0))]},
                3: {"send": [(0, OkMessage(1, 1, 0))]},
            }),
        ]
        result = Simulator(problem, agents).run()
        assert result.solved
        assert result.cycles == 2

    def test_quiescence_without_solution_terminates(self):
        problem = two_agent_problem()
        agents = [ScriptedAgent(0, 0, 0), ScriptedAgent(1, 1, 0)]
        result = Simulator(problem, agents, max_cycles=100).run()
        assert not result.solved
        assert result.quiescent
        assert not result.capped
        assert result.cycles < 100

    def test_cycle_cap(self):
        problem = two_agent_problem()
        # Agents ping-pong forever without solving.
        ping = {i: {"send": [(1, OkMessage(0, 0, 0))]} for i in range(1, 100)}
        pong = {i: {"send": [(0, OkMessage(1, 1, 0))]} for i in range(1, 100)}
        ping["init"] = [(1, OkMessage(0, 0, 0))]
        pong["init"] = [(0, OkMessage(1, 1, 0))]
        agents = [
            ScriptedAgent(0, 0, 0, script=ping),
            ScriptedAgent(1, 1, 0, script=pong),
        ]
        result = Simulator(problem, agents, max_cycles=10).run()
        assert result.capped
        assert result.cycles == 10

    def test_agent_failure_reports_unsolvable(self):
        problem = two_agent_problem()
        agents = [
            ScriptedAgent(0, 0, 0, script={
                "init": [(1, OkMessage(0, 0, 0))],
                1: {"fail": True},
            }),
            ScriptedAgent(1, 1, 0, script={
                "init": [(0, OkMessage(1, 1, 0))],
            }),
        ]
        result = Simulator(problem, agents).run()
        assert result.unsolvable
        assert not result.solved


class TestCycleSemantics:
    def test_messages_take_one_cycle(self):
        problem = two_agent_problem()
        message = OkMessage(0, 0, 1)
        agents = [
            ScriptedAgent(0, 0, 0, script={"init": [(1, message)]}),
            ScriptedAgent(1, 1, 0),
        ]
        simulator = Simulator(problem, agents, max_cycles=5)
        simulator.run()
        receiver = agents[1]
        # Delivered at the first step, not at initialization.
        assert receiver.received[0] == [message]

    def test_maxcck_accumulates_worst_agent_per_cycle(self):
        problem = two_agent_problem()
        agents = [
            ScriptedAgent(0, 0, 0, script={
                "init": [(1, OkMessage(0, 0, 0))],
                1: {"checks": 5, "send": [(1, OkMessage(0, 0, 0))]},
                2: {"checks": 1},
            }),
            ScriptedAgent(1, 1, 0, script={
                "init": [(0, OkMessage(1, 1, 0))],
                1: {"checks": 2, "send": [(0, OkMessage(1, 1, 0))]},
                2: {"checks": 9},
            }),
        ]
        result = Simulator(problem, agents, max_cycles=3).run()
        assert result.maxcck == 5 + 9
        assert result.total_checks == 17

    def test_message_count_reported(self):
        problem = two_agent_problem()
        agents = [
            ScriptedAgent(0, 0, 1, script={"init": [(1, OkMessage(0, 0, 1))]}),
            ScriptedAgent(1, 1, 0),
        ]
        result = Simulator(problem, agents).run()
        assert result.messages_sent == 1


class TestValidation:
    def test_agents_must_match_problem(self):
        problem = two_agent_problem()
        with pytest.raises(SimulationError):
            Simulator(problem, [ScriptedAgent(0, 0, 0)])

    def test_duplicate_agent_ids_rejected(self):
        problem = two_agent_problem()
        with pytest.raises(SimulationError):
            Simulator(
                problem, [ScriptedAgent(0, 0, 0), ScriptedAgent(0, 1, 0)]
            )

    def test_unknown_recipient_rejected(self):
        problem = two_agent_problem()
        agents = [
            ScriptedAgent(0, 0, 0, script={"init": [(9, OkMessage(0, 0, 0))]}),
            ScriptedAgent(1, 1, 0),
        ]
        with pytest.raises(SimulationError):
            Simulator(problem, agents).run()

    def test_nonpositive_cycle_cap_rejected(self):
        problem = two_agent_problem()
        agents = [ScriptedAgent(0, 0, 0), ScriptedAgent(1, 1, 0)]
        with pytest.raises(SimulationError):
            Simulator(problem, agents, max_cycles=0)


class TestDetectors:
    def test_global_detector_checks_original_nogoods(self):
        problem = two_agent_problem()
        detector = GlobalSolutionDetector(problem)
        assert detector.is_solution({0: 1, 1: 0})
        assert not detector.is_solution({0: 0, 1: 0})

    def test_collect_assignment_merges_agents(self):
        agents = [ScriptedAgent(0, 0, 1), ScriptedAgent(1, 1, 0)]
        assert collect_assignment(agents) == {0: 1, 1: 0}
