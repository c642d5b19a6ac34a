"""An agent with no mail and no pending work does nothing when stepped.

The simulator steps only the agents that have mail or a wakeup, on both
clocks. That equals the paper's lockstep cycle, where every agent steps
every cycle, only if ``step([])`` is a no-op for an idle agent: it sends no
message, counts no nogood check and changes no value. The paper's tables
rest on this, so it is asserted here for every algorithm the registry
builds, right after ``initialize()`` and in the middle of a run.
"""

import pytest

from repro.algorithms.registry import abt, algorithm_by_name, awc, db, multi_awc
from repro.core import DisCSP
from repro.experiments.runner import random_initial_assignment
from repro.problems.coloring import coloring_csp, random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import Simulator

SPECS = [
    *(awc(learning) for learning in (
        "Rslv", "Mcs", "No", "Rslv/rec", "Rslv/norec", "3rdRslv",
    )),
    multi_awc("Rslv"),
    db("nogood"),
    db("pair"),
    abt("view"),
    abt("resolvent"),
]


def one_variable_per_agent():
    return random_coloring_instance(12, seed=8).to_discsp()


def three_variables_per_agent():
    csp = coloring_csp(random_coloring_instance(12, seed=8).graph, 3)
    return DisCSP(csp, {variable: variable % 4 for variable in csp.variables})


PROBLEMS = [
    *(pytest.param(spec, one_variable_per_agent, id=spec.name)
      for spec in SPECS),
    pytest.param(
        multi_awc("Rslv"), three_variables_per_agent, id="MultiAWC-split"
    ),
]


def build(spec, problem, seed=3):
    metrics = MetricsCollector()
    agents = spec.build(
        problem, metrics, seed, random_initial_assignment(problem, seed)
    )
    return metrics, agents


def assert_idle_steps_do_nothing(agents):
    idle = [agent for agent in agents if not agent.has_pending_work()]
    assert idle, "no idle agent to probe"
    for agent in idle:
        checks = agent.check_counter.total
        values = dict(agent.local_assignment())
        assert agent.step([]) == [], f"{agent} sent on an empty step"
        assert agent.check_counter.total == checks, f"{agent} counted checks"
        assert agent.local_assignment() == values, f"{agent} changed a value"
        assert agent.failure is None


@pytest.mark.parametrize("spec,make_problem", PROBLEMS)
def test_empty_step_after_initialize_is_a_no_op(spec, make_problem):
    _metrics, agents = build(spec, make_problem())
    for agent in agents:
        agent.initialize()
    assert not any(agent.has_pending_work() for agent in agents)
    assert_idle_steps_do_nothing(agents)


@pytest.mark.parametrize("spec,make_problem", PROBLEMS)
def test_empty_step_mid_run_is_a_no_op(spec, make_problem):
    problem = make_problem()
    metrics, agents = build(spec, problem)
    result = Simulator(problem, agents, max_cycles=3, metrics=metrics).run()
    assert result.capped or result.finished
    assert_idle_steps_do_nothing(agents)


def test_registry_labels_are_covered():
    covered = {spec.name for spec in SPECS}
    for label in ("AWC+Rslv", "AWC+Mcs", "AWC+No", "DB", "ABT"):
        assert algorithm_by_name(label).name in covered
