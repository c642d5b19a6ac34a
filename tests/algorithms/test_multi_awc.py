"""Multi-variable-per-agent AWC — the Section 5 extension."""

import pytest

from repro.algorithms.multi_awc import (
    MultiVariableAwcAgent,
    build_multi_awc_agents,
)
from repro.core import CSP, DisCSP, Nogood, integer_domain
from repro.core.exceptions import ModelError
from repro.learning import learning_method
from repro.problems.coloring import coloring_csp, random_coloring_instance
from repro.problems.graphs import Graph
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import Simulator

from ..conftest import clique_graph, triangle_graph


def run_multi(problem, seed=0, max_cycles=5000, intra_round_cap=50):
    metrics = MetricsCollector()
    agents = build_multi_awc_agents(
        problem,
        learning_method("Rslv"),
        metrics,
        seed,
        intra_round_cap=intra_round_cap,
    )
    return Simulator(
        problem, agents, max_cycles=max_cycles, metrics=metrics
    ).run()


def split_coloring(graph, colors, num_agents):
    """Distribute a coloring CSP round-robin over *num_agents* agents."""
    csp = coloring_csp(graph, colors)
    owner = {
        variable: variable % num_agents for variable in csp.variables
    }
    return DisCSP(csp, owner)


class TestSolving:
    def test_solves_triangle_split_two_agents(self):
        problem = split_coloring(triangle_graph(), 3, 2)
        result = run_multi(problem)
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_solves_fully_local_problem(self):
        # One agent owns everything: solved by intra-cycle rounds alone.
        problem = split_coloring(triangle_graph(), 3, 1)
        result = run_multi(problem)
        assert result.solved

    def test_solves_random_coloring_split(self):
        instance = random_coloring_instance(12, seed=5)
        problem = split_coloring(instance.graph, 3, 4)
        result = run_multi(problem)
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_unsolvable_detected(self):
        problem = split_coloring(clique_graph(4), 3, 2)
        result = run_multi(problem, max_cycles=20000)
        assert result.unsolvable

    def test_matches_single_variable_semantics(self):
        # With one variable per agent, multi-AWC degenerates to plain AWC
        # behaviour (same solution quality; cycles may differ slightly).
        instance = random_coloring_instance(10, seed=7)
        problem = instance.to_discsp()
        result = run_multi(problem)
        assert result.solved

    def test_intra_round_cap_still_solves(self):
        problem = split_coloring(triangle_graph(), 3, 2)
        result = run_multi(problem, intra_round_cap=1)
        assert result.solved

    def test_fewer_cycles_than_one_variable_per_agent(self):
        # The point of hosting variables together: local conflicts resolve
        # within a cycle. On a graph with heavy local structure the hosted
        # version should need no more cycles.
        instance = random_coloring_instance(12, seed=9)
        hosted = split_coloring(instance.graph, 3, 2)
        flat = instance.to_discsp()
        hosted_result = run_multi(hosted, seed=3)
        flat_result = run_multi(flat, seed=3)
        assert hosted_result.solved and flat_result.solved
        assert hosted_result.cycles <= flat_result.cycles * 2


class TestConstruction:
    def test_rejects_bad_cap(self):
        problem = split_coloring(triangle_graph(), 3, 2)
        with pytest.raises(ModelError):
            MultiVariableAwcAgent(
                0,
                problem,
                learning_method("Rslv"),
                MetricsCollector(),
                lambda v: None,
                intra_round_cap=0,
            )

    def test_local_assignment_covers_owned_variables(self):
        problem = split_coloring(triangle_graph(), 3, 2)
        metrics = MetricsCollector()
        agents = build_multi_awc_agents(
            problem, learning_method("Rslv"), metrics, 0
        )
        agents_by_id = {agent.id: agent for agent in agents}
        agents_by_id[0].initialize()
        assert set(agents_by_id[0].local_assignment()) == {0, 2}

    def test_checks_shared_across_handlers(self):
        problem = split_coloring(triangle_graph(), 3, 1)
        metrics = MetricsCollector()
        agents = build_multi_awc_agents(
            problem, learning_method("Rslv"), metrics, 0
        )
        agent = agents[0]
        for handler in agent._handlers.values():
            assert handler.store.counter is agent.check_counter
