"""The multiprocess socket transport: genuinely concurrent agents.

These runs cross real process and socket boundaries, so nothing here
asserts determinism — only correctness (solutions verify) and the NCCC
accounting invariants. Kept small: one process per agent is expensive.
"""

import socket
import time

import pytest

from repro.core.exceptions import SimulationError
from repro.problems.coloring import random_coloring_instance
from repro.runtime.events import run_socket_trial
from repro.runtime.events.socket_transport import (
    Report,
    SocketMailbox,
    _route,
)


@pytest.mark.slow
class TestSocketTrial:
    def test_solves_coloring_and_verifies(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        result = run_socket_trial(
            problem, "AWC+Rslv", seed=3, timeout=120.0
        )
        assert result.solved
        assert problem.is_solution(result.assignment)
        # NCCC is a max over per-agent Lamport clocks, so it can never
        # exceed the total work performed.
        assert 0 < result.maxcck <= result.total_checks
        assert result.messages_sent > 0

    def test_unsolvable_detected(self, triangle_2col):
        result = run_socket_trial(
            triangle_2col, "AWC+Rslv", seed=1, timeout=120.0
        )
        assert result.unsolvable and not result.solved


class TestValidation:
    def test_requires_two_agents(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        single = problem.__class__(
            problem.csp, {variable: 0 for variable in problem.variables}
        )
        with pytest.raises(SimulationError, match="at least two"):
            run_socket_trial(single, "AWC+Rslv", seed=0)


class TestRouter:
    def test_frames_read_with_the_hello_are_routed(self, triangle_3col):
        # Under load an agent's first report can reach the router in the
        # same read as its hello; the router must not wait for more socket
        # data before handling it.
        solution = {0: 0, 1: 1, 2: 2}
        assert triangle_3col.is_solution(solution)
        mailboxes, agent_ends = {}, []
        for agent_id in sorted(triangle_3col.agents):
            router_end, agent_end = socket.socketpair()
            agent_ends.append(agent_end)
            agent_mailbox = SocketMailbox(agent_end)
            agent_mailbox.send(agent_id)
            agent_mailbox.send(
                Report(
                    agent_id=agent_id,
                    consumed=0,
                    assignment=((agent_id, solution[agent_id]),),
                    clock=1,
                    checks=1,
                    activations=0,
                    generated=0,
                    failed=False,
                )
            )
            mailboxes[agent_id] = SocketMailbox(router_end)
            assert mailboxes[agent_id].recv(timeout=5.0) == agent_id
        try:
            result = _route(
                triangle_3col,
                mailboxes,
                max_activations=10,
                deadline=time.perf_counter() + 5.0,
            )
        finally:
            for mailbox in mailboxes.values():
                mailbox.close()
            for agent_end in agent_ends:
                agent_end.close()
        assert result.solved and not result.capped
        assert result.assignment == solution
