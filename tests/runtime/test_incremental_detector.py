"""The incremental solution detector must be indistinguishable from the
full per-cycle re-scan it replaces: same verdict on every cycle of real
runs, same verdict on adversarial synthetic sequences, and zero effect on
the paper's cost accounting."""

from repro.algorithms.awc import build_awc_agents
from repro.core.nogood import Nogood
from repro.core.variables import Domain
from repro.core.problem import DisCSP
from repro.learning import learning_method
from repro.problems.coloring import random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import Simulator
from repro.runtime.termination import (
    GlobalSolutionDetector,
    IncrementalSolutionDetector,
)


class AssignmentRecorder:
    """A tracer that keeps every cycle's global assignment."""

    def __init__(self):
        self.assignments = []

    def on_message(self, cycle, sender, recipient, message, sequence=None):
        pass

    def on_delivery(self, cycle, sequence, sender, recipient):
        pass

    def on_cycle_end(self, cycle, assignment):
        self.assignments.append(dict(assignment))


def recorded_run(n=10, seed=3, algorithm_seed=0):
    problem = random_coloring_instance(n, seed=seed).to_discsp()
    metrics = MetricsCollector()
    agents = build_awc_agents(
        problem, learning_method("Rslv"), metrics, algorithm_seed
    )
    recorder = AssignmentRecorder()
    simulator = Simulator(
        problem, agents, metrics=metrics, tracer=recorder
    )
    result = simulator.run()
    return problem, result, recorder.assignments


def tiny_problem():
    domains = {0: Domain((0, 1)), 1: Domain((0, 1)), 2: Domain((0, 1))}
    nogoods = [
        Nogood.of((0, 0), (1, 0)),
        Nogood.of((1, 1), (2, 1)),
        Nogood.of((0, 1), (2, 0)),
    ]
    return DisCSP.one_variable_per_agent(domains, nogoods)


class TestAgreementWithGlobalDetector:
    def test_agrees_on_every_cycle_of_a_recorded_trace(self):
        problem, result, assignments = recorded_run()
        assert assignments, "run produced no cycles to replay"
        full = GlobalSolutionDetector(problem)
        incremental = IncrementalSolutionDetector(problem)
        for cycle, assignment in enumerate(assignments):
            assert incremental.is_solution(assignment) == full.is_solution(
                assignment
            ), f"detectors disagree at cycle {cycle}"

    def test_agrees_across_several_recorded_runs(self):
        for seed in (1, 2, 7):
            problem, _result, assignments = recorded_run(n=12, seed=seed)
            full = GlobalSolutionDetector(problem)
            incremental = IncrementalSolutionDetector(problem)
            for assignment in assignments:
                assert incremental.is_solution(
                    assignment
                ) == full.is_solution(assignment)

    def test_synthetic_sequence_with_reverts_and_gaps(self):
        problem = tiny_problem()
        full = GlobalSolutionDetector(problem)
        incremental = IncrementalSolutionDetector(problem)
        sequence = [
            {},  # nothing assigned
            {0: 0, 1: 0},  # incomplete and violating
            {0: 0, 1: 0, 2: 0},  # complete, violates nogood (0,0),(1,0)
            {0: 1, 1: 0, 2: 1},  # a solution
            {0: 1, 1: 0, 2: 1},  # unchanged: still a solution
            {0: 1, 1: 1, 2: 1},  # violates (1,1),(2,1)
            {0: 1, 2: 1},  # variable 1 disappears
            {0: 1, 1: 0, 2: 1},  # back to the solution
            {0: 1, 1: 0, 2: 9},  # out-of-domain value
            {0: 1, 1: 0, 2: 1},  # and back again
        ]
        for step, assignment in enumerate(sequence):
            assert incremental.is_solution(assignment) == full.is_solution(
                assignment
            ), f"detectors disagree at step {step}"

    def test_already_solved_initial_assignment(self):
        problem = tiny_problem()
        incremental = IncrementalSolutionDetector(problem)
        assert incremental.is_solution({0: 1, 1: 0, 2: 1}) is True


class TestObservationalPurity:
    def test_detection_contributes_no_nogood_checks(self):
        """Swapping detectors changes nothing the paper measures."""
        problem = random_coloring_instance(10, seed=5).to_discsp()

        def run_with(detector_factory):
            metrics = MetricsCollector()
            agents = build_awc_agents(
                problem, learning_method("Rslv"), metrics, 0
            )
            simulator = Simulator(
                problem,
                agents,
                metrics=metrics,
                detector=detector_factory(problem),
            )
            return simulator.run()

        full = run_with(GlobalSolutionDetector)
        incremental = run_with(IncrementalSolutionDetector)
        assert full.solved == incremental.solved
        assert full.cycles == incremental.cycles
        assert full.maxcck == incremental.maxcck
        assert full.total_checks == incremental.total_checks
        assert full.messages_sent == incremental.messages_sent
        assert full.assignment == incremental.assignment

    def test_simulator_defaults_to_incremental_detection(self):
        problem = random_coloring_instance(10, seed=1).to_discsp()
        metrics = MetricsCollector()
        agents = build_awc_agents(
            problem, learning_method("Rslv"), metrics, 0
        )
        simulator = Simulator(problem, agents, metrics=metrics)
        assert isinstance(simulator.detector, IncrementalSolutionDetector)

    def test_sim_time_present_and_bounded_by_wall_time(self):
        _problem, result, _assignments = recorded_run(n=10, seed=2)
        assert 0.0 < result.sim_time <= result.wall_time
