"""Trial and cell running."""

import pytest

from repro.algorithms.registry import awc, db
from repro.experiments.runner import (
    CellResult,
    random_initial_assignment,
    run_cell,
    run_trial,
)
from repro.problems.coloring import random_coloring_instance
from repro.runtime.network import InProcessTransport, UniformLatency
from repro.runtime.random_source import derive_rng


@pytest.fixture(scope="module")
def problem():
    return random_coloring_instance(12, seed=0).to_discsp()


class TestRunTrial:
    def test_solves_and_reports(self, problem):
        result = run_trial(problem, awc("Rslv"), seed=0)
        assert result.solved
        assert problem.is_solution(result.assignment)
        assert result.maxcck <= result.total_checks

    def test_deterministic(self, problem):
        a = run_trial(problem, awc("Rslv"), seed=5)
        b = run_trial(problem, awc("Rslv"), seed=5)
        assert (a.cycles, a.maxcck, a.total_checks) == (
            b.cycles,
            b.maxcck,
            b.total_checks,
        )

    def test_network_factory_used(self, problem):
        def delayed(seed):
            return InProcessTransport(
                UniformLatency(max_delay=3, rng=derive_rng(seed, "net"))
            )

        result = run_trial(problem, awc("Rslv"), seed=0, medium=delayed)
        assert result.solved
        assert result.cycles != run_trial(problem, awc("Rslv"), seed=0).cycles

    def test_initial_assignment_depends_on_seed(self, problem):
        a = random_initial_assignment(problem, 1)
        b = random_initial_assignment(problem, 2)
        assert a != b
        assert random_initial_assignment(problem, 1) == a


class TestRunCell:
    def test_counts_and_aggregates(self, problem):
        other = random_coloring_instance(12, seed=1).to_discsp()
        cell = run_cell(
            [problem, other], awc("Rslv"), inits_per_instance=3,
            master_seed=0, n=12,
        )
        assert cell.num_trials == 6
        assert cell.percent_solved == 100.0
        assert cell.mean_cycle > 0
        assert cell.mean_maxcck > 0
        assert cell.label == "AWC+Rslv"
        assert cell.n == 12

    def test_empty_cell_defaults(self):
        cell = CellResult(label="x", n=0)
        assert cell.mean_cycle == 0.0
        assert cell.percent_solved == 0.0

    def test_capped_trials_counted_at_cap(self, problem):
        # A 1-cycle cap cannot solve anything from a bad start; the percent
        # must reflect that and cycles equal the cap.
        cell = run_cell(
            [problem], db(), inits_per_instance=4, master_seed=0, n=12,
            max_cycles=1,
        )
        assert all(t.cycles <= 1 for t in cell.trials)
        assert cell.percent_solved < 100.0
