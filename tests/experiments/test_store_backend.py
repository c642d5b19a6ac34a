"""The ``store`` seam: backend choice must not change the search.

The dict store is the default; the linear ablation store answers every
query identically but runs (and counts) the violation tests the per-value
index skips. These tests pin that at the trial and cell level: switching
``store`` leaves solved/cycles/assignment untouched, and linear's check
counts only ever go up.
"""

import pytest

from repro.algorithms.registry import awc, db
from repro.core.exceptions import ModelError
from repro.experiments.bench import cell_measures
from repro.experiments.paper import instances_for
from repro.experiments.runner import run_cell, run_trial
from repro.problems.coloring import random_coloring_instance


@pytest.fixture(scope="module")
def coloring():
    return random_coloring_instance(12, seed=3).to_discsp()


@pytest.fixture(scope="module")
def sat():
    return instances_for("d3s", 10, 1, seed=3)[0]


def trial_fields(result):
    return (
        result.solved,
        result.cycles,
        result.maxcck,
        result.total_checks,
        result.assignment,
    )


def assert_same_search_more_checks(linear, baseline):
    # Same search: the counting never steers control flow.
    assert linear.solved == baseline.solved
    assert linear.cycles == baseline.cycles
    assert linear.assignment == baseline.assignment
    # The naive scan runs every test the dict index skips.
    assert linear.total_checks >= baseline.total_checks
    assert linear.maxcck >= baseline.maxcck


class TestTrialParity:
    def test_unknown_backend_rejected(self, coloring):
        with pytest.raises(ModelError, match="unknown store backend"):
            run_trial(coloring, awc("Rslv"), seed=0, store="btree")

    def test_awc_trial_identical_to_dict(self, coloring):
        # The default backend is the dict store, bit for bit.
        baseline = run_trial(coloring, awc("Rslv"), seed=0, store="dict")
        default = run_trial(coloring, awc("Rslv"), seed=0)
        assert trial_fields(default) == trial_fields(baseline)

    def test_linear_matches_trajectory_but_counts_more(self, coloring):
        baseline = run_trial(coloring, awc("Rslv"), seed=0, store="dict")
        linear = run_trial(coloring, awc("Rslv"), seed=0, store="linear")
        assert_same_search_more_checks(linear, baseline)

    def test_linear_trajectory_identical_on_sat(self, sat):
        baseline = run_trial(sat, awc("Rslv"), seed=1, store="dict")
        linear = run_trial(sat, awc("Rslv"), seed=1, store="linear")
        assert_same_search_more_checks(linear, baseline)

    def test_linear_trajectory_identical_for_db(self, coloring):
        baseline = run_trial(coloring, db(), seed=2, store="dict")
        linear = run_trial(coloring, db(), seed=2, store="linear")
        assert_same_search_more_checks(linear, baseline)


class TestCellParity:
    def test_cell_measures_identical(self, coloring):
        other = random_coloring_instance(12, seed=4).to_discsp()
        cells = {
            store: run_cell(
                [coloring, other],
                awc("Rslv"),
                inits_per_instance=2,
                master_seed=7,
                n=12,
                store=store,
            )
            for store in ("dict", "linear")
        }

        def trajectory(cell):
            # (solved, cycles, messages, assignment) per trial: every
            # measure except the two check counts linear inflates.
            return [
                (row[0], row[1], row[4], row[5])
                for row in cell_measures(cell)
            ]

        assert trajectory(cells["linear"]) == trajectory(cells["dict"])
