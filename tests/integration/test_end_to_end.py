"""Cross-module integration: every algorithm against every problem family,
asynchronous networks, and the paper's qualitative claims in miniature."""

import pytest

from repro.algorithms.registry import abt, algorithm_by_name, awc, db
from repro.experiments.runner import run_cell, run_trial
from repro.problems.coloring import coloring_discsp, random_coloring_instance
from repro.problems.sat.generators import planted_3sat, unique_solution_3sat
from repro.problems.sat.to_discsp import sat_to_discsp
from repro.runtime.network import InProcessTransport, UniformLatency
from repro.runtime.random_source import derive_rng

from ..conftest import clique_graph

ALGORITHMS = ["AWC+Rslv", "AWC+Mcs", "AWC+No", "AWC+3rdRslv", "DB", "ABT"]


@pytest.fixture(scope="module")
def coloring_problem():
    return random_coloring_instance(15, seed=8).to_discsp()


@pytest.fixture(scope="module")
def sat_problem():
    return sat_to_discsp(planted_3sat(12, seed=8).formula)


@pytest.fixture(scope="module")
def onesat_problem():
    return sat_to_discsp(unique_solution_3sat(10, seed=8).formula)


class TestEveryAlgorithmEveryFamily:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_coloring(self, coloring_problem, name):
        result = run_trial(
            coloring_problem, algorithm_by_name(name), seed=4, max_cycles=8000
        )
        assert result.solved, name
        assert coloring_problem.is_solution(result.assignment)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_sat(self, sat_problem, name):
        result = run_trial(
            sat_problem, algorithm_by_name(name), seed=4, max_cycles=8000
        )
        assert result.solved, name
        assert sat_problem.is_solution(result.assignment)

    @pytest.mark.parametrize("name", ["AWC+Rslv", "AWC+4thRslv", "DB"])
    def test_onesat(self, onesat_problem, name):
        result = run_trial(
            onesat_problem, algorithm_by_name(name), seed=4, max_cycles=8000
        )
        assert result.solved, name


class TestAsynchronousNetworks:
    """Section 5: the algorithms are designed for fully asynchronous systems."""

    def delayed_factory(self, fifo):
        def factory(seed):
            return InProcessTransport(
                UniformLatency(max_delay=4, rng=derive_rng(seed, "net")),
                fifo=fifo,
            )

        return factory

    @pytest.mark.parametrize("fifo", [True, False])
    def test_awc_solves_under_delays(self, coloring_problem, fifo):
        result = run_trial(
            coloring_problem,
            awc("Rslv"),
            seed=4,
            max_cycles=8000,
            medium=self.delayed_factory(fifo),
        )
        assert result.solved
        assert coloring_problem.is_solution(result.assignment)

    @pytest.mark.parametrize("fifo", [True, False])
    def test_db_solves_under_delays(self, coloring_problem, fifo):
        # DB's round buffering must tolerate out-of-round arrivals.
        result = run_trial(
            coloring_problem,
            db(),
            seed=4,
            max_cycles=8000,
            medium=self.delayed_factory(fifo),
        )
        assert result.solved

    def test_abt_solves_under_fifo_delays(self, coloring_problem):
        result = run_trial(
            coloring_problem,
            abt(),
            seed=4,
            max_cycles=8000,
            medium=self.delayed_factory(True),
        )
        assert result.solved

    def test_awc_proves_unsolvable_under_delays(self):
        problem = coloring_discsp(clique_graph(4), 3)
        result = run_trial(
            problem,
            awc("Rslv"),
            seed=4,
            max_cycles=30000,
            medium=self.delayed_factory(True),
        )
        assert result.unsolvable


class TestQualitativeClaims:
    """The paper's headline comparisons, on small instances."""

    def test_learning_beats_no_learning_on_cycles(self):
        # Table 1's main effect. Averaged over a small cell to damp noise.
        instances = [
            random_coloring_instance(25, seed=s).to_discsp() for s in range(3)
        ]
        rslv = run_cell(instances, awc("Rslv"), 3, master_seed=1, n=25)
        no = run_cell(instances, awc("No"), 3, master_seed=1, n=25)
        assert rslv.percent_solved == 100.0
        assert rslv.mean_cycle < no.mean_cycle

    def test_resolvent_cheaper_than_mcs_on_checks(self):
        # Tables 1–3: Rslv's maxcck below Mcs's.
        instances = [
            random_coloring_instance(25, seed=s).to_discsp() for s in range(3)
        ]
        rslv = run_cell(instances, awc("Rslv"), 3, master_seed=1, n=25)
        mcs = run_cell(instances, awc("Mcs"), 3, master_seed=1, n=25)
        assert rslv.mean_maxcck < mcs.mean_maxcck

    def test_awc_fewer_cycles_than_db(self):
        # Tables 8–10: AWC+kthRslv wins cycle, DB wins maxcck.
        instances = [
            sat_to_discsp(unique_solution_3sat(12, seed=s).formula)
            for s in range(2)
        ]
        awc_cell = run_cell(instances, awc("4thRslv"), 4, master_seed=1, n=12)
        db_cell = run_cell(instances, db(), 4, master_seed=1, n=12)
        assert awc_cell.percent_solved == 100.0
        assert awc_cell.mean_cycle < db_cell.mean_cycle

    def test_recording_reduces_redundant_generation(self):
        # Table 4's effect: without recording, agents run into the same
        # dead ends again and regenerate nogoods. Needs instances hard
        # enough to produce repeated deadends, hence n=20 and several inits.
        instances = [
            sat_to_discsp(unique_solution_3sat(30, seed=s).formula)
            for s in range(3)
        ]
        rec = run_cell(instances, awc("Rslv/rec"), 6, master_seed=1, n=30)
        norec = run_cell(instances, awc("Rslv/norec"), 6, master_seed=1, n=30)
        assert norec.mean_redundant_generations > rec.mean_redundant_generations
        # Redundancy should also dominate as a *share* of generations: most
        # norec generations rediscover old nogoods.
        assert (
            norec.mean_redundant_generations / max(norec.mean_generated, 1)
            > rec.mean_redundant_generations / max(rec.mean_generated, 1)
        )


class TestSolutionAgreement:
    def test_all_algorithms_agree_with_centralized_oracle(self, sat_problem):
        from repro.solvers.backtracking import solve_csp

        assert solve_csp(sat_problem.csp) is not None
        for name in ("AWC+Rslv", "DB", "ABT"):
            result = run_trial(
                sat_problem, algorithm_by_name(name), seed=0, max_cycles=8000
            )
            assert result.solved
            assert sat_problem.csp.is_solution(result.assignment)
