"""Parity: the events clock reproduces the lockstep (sync) clock.

With the default unit-latency in-process transport no time unit is idle,
so counting cycles as epochs or as time units must agree: every measure
the paper reports — ``solved``, ``cycles``, ``maxcck``, plus checks,
message counts and the final assignment — matches trial-for-trial, on the
paper's 3-coloring and 3SAT benchmark families, both sequentially and
under ``--jobs N`` process pools.
"""

import pytest

from repro.algorithms.multi_awc import build_multi_awc_agents
from repro.algorithms.registry import algorithm_by_name
from repro.core import DisCSP
from repro.experiments.paper import instances_for
from repro.experiments.runner import run_cell, run_trial
from repro.learning import learning_method
from repro.problems.coloring import coloring_csp, random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.random_source import derive_seed
from repro.runtime.simulator import Simulator


def measures(result):
    return (
        result.solved,
        result.unsolvable,
        result.capped,
        result.cycles,
        result.maxcck,
        result.total_checks,
        result.messages_sent,
        result.generated_nogoods,
        result.redundant_generations,
        result.assignment,
    )


def cell_measures(cell):
    return [measures(trial) for trial in cell.trials]


SMOKE_CELLS = [
    pytest.param("d3c", 15, "AWC+Rslv", id="coloring-awc-rslv"),
    pytest.param("d3c", 15, "DB", id="coloring-db"),
    pytest.param("d3s", 10, "AWC+Rslv", id="3sat-awc-rslv"),
    pytest.param("d3s", 10, "AWC+No", id="3sat-awc-no"),
]


def run_backend_cell(family, n, label, backend, workers=None):
    instances = instances_for(family, n, count=2, seed=0)
    return run_cell(
        instances,
        algorithm_by_name(label),
        inits_per_instance=2,
        master_seed=derive_seed(0, family, n, label),
        n=n,
        max_cycles=500,
        backend=backend,
        workers=workers,
    )


class TestCellParity:
    @pytest.mark.parametrize("family,n,label", SMOKE_CELLS)
    def test_events_match_sync_sequentially(self, family, n, label):
        sync = run_backend_cell(family, n, label, "sync")
        events = run_backend_cell(family, n, label, "events")
        assert cell_measures(events) == cell_measures(sync)

    def test_events_match_sync_under_jobs(self):
        # One coloring and one 3SAT cell through the process pool: the
        # transport factory must ship to workers and yield the same trials.
        for family, n, label in (("d3c", 15, "AWC+Rslv"), ("d3s", 10, "AWC+Rslv")):
            sync = run_backend_cell(family, n, label, "sync")
            events = run_backend_cell(family, n, label, "events", workers=2)
            assert cell_measures(events) == cell_measures(sync)


class TestTrialParity:
    def test_multi_variable_agents_match(self):
        # The multi-variable AWC agent holds internal carryover work when
        # the intra-round cap is hit; wakeups keep it running without
        # fresh mail on either clock, preserving parity.
        instance = random_coloring_instance(12, seed=5)
        csp = coloring_csp(instance.graph, 3)
        problem = DisCSP(
            csp, {variable: variable % 4 for variable in csp.variables}
        )
        for seed in (1, 2):
            runs = []
            for clock in ("sync", "events"):
                metrics = MetricsCollector()
                agents = build_multi_awc_agents(
                    problem,
                    learning_method("Rslv"),
                    metrics,
                    seed,
                    intra_round_cap=2,
                )
                runs.append(
                    Simulator(
                        problem, agents, metrics=metrics, clock=clock
                    ).run()
                )
            assert measures(runs[0]) == measures(runs[1])

    def test_logical_time_equals_cycles_in_parity(self):
        instances = instances_for("d3c", 15, count=1, seed=0)
        result = run_trial(
            instances[0],
            algorithm_by_name("AWC+Rslv"),
            seed=1,
            max_cycles=500,
            backend="events",
        )
        assert result.logical_time == result.cycles
