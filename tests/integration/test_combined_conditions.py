"""Combined stress conditions: extensions composed together.

Each extension is tested alone elsewhere; these runs compose them — hosted
multi-variable agents on delayed networks, lossy links with size-bounded
learning, the full CLI pipeline — because composition is where integration
bugs hide.
"""

import pytest

from repro.algorithms import build_multi_awc_agents
from repro.algorithms.registry import awc
from repro.core import DisCSP
from repro.experiments.runner import (
    random_initial_assignment,
    run_trial,
)
from repro.learning import learning_method
from repro.problems.coloring import coloring_csp, random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.network import (
    FixedLatency,
    InProcessTransport,
    LossyLatency,
    UniformLatency,
)
from repro.runtime.random_source import derive_rng
from repro.runtime.simulator import Simulator
from repro.runtime.trace import TraceRecorder


class TestMultiVariableOnSlowNetworks:
    @pytest.mark.parametrize(
        "make_medium",
        [
            lambda: InProcessTransport(FixedLatency(3)),
            lambda: InProcessTransport(
                UniformLatency(max_delay=4, rng=derive_rng(1, "x"))
            ),
            lambda: InProcessTransport(
                LossyLatency(loss_rate=0.3, rng=derive_rng(1, "y"))
            ),
        ],
        ids=["fixed", "random", "lossy"],
    )
    def test_hosted_agents_solve_under_delays(self, make_medium):
        instance = random_coloring_instance(12, seed=3)
        csp = coloring_csp(instance.graph, 3)
        problem = DisCSP(csp, {v: v % 4 for v in csp.variables})
        metrics = MetricsCollector()
        agents = build_multi_awc_agents(
            problem, learning_method("Rslv"), metrics, seed=5,
            initial_assignment=random_initial_assignment(problem, 5),
        )
        result = Simulator(
            problem,
            agents,
            network=make_medium(),
            max_cycles=20_000,
            metrics=metrics,
        ).run()
        assert result.solved
        assert problem.is_solution(result.assignment)


class TestSizeBoundedOnLossyLinks:
    def test_bounded_learning_survives_loss(self):
        problem = random_coloring_instance(15, seed=6).to_discsp()

        def factory(seed):
            return InProcessTransport(
                LossyLatency(
                    loss_rate=0.4, retransmit_after=2,
                    rng=derive_rng(seed, "lossy-bounded"),
                )
            )

        result = run_trial(
            problem,
            awc("3rdRslv"),
            seed=2,
            max_cycles=20_000,
            medium=factory,
        )
        assert result.solved
        assert problem.is_solution(result.assignment)


class TestTracedDelayedRun:
    def test_tracer_composes_with_delay_network(self):
        problem = random_coloring_instance(10, seed=2).to_discsp()
        metrics = MetricsCollector(keep_history=True)
        from repro.algorithms import build_awc_agents

        agents = build_awc_agents(
            problem, learning_method("Rslv"), metrics, seed=1,
            initial_assignment=random_initial_assignment(problem, 1),
        )
        tracer = TraceRecorder()
        result = Simulator(
            problem,
            agents,
            network=InProcessTransport(FixedLatency(2)),
            metrics=metrics,
            tracer=tracer,
        ).run()
        assert result.solved
        assert len(tracer.messages) == result.messages_sent
        assert len(result.max_history) == result.cycles
