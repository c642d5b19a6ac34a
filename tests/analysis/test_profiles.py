"""Per-cycle cost profiles."""

import pytest

from repro.analysis.profiles import phase_profile, sparkline
from repro.core.exceptions import ModelError


class TestPhaseProfile:
    def test_splits_into_equal_phases(self):
        profile = phase_profile([1, 1, 5, 5, 9, 9, 13, 13], phases=4)
        assert profile.phase_means == [1.0, 5.0, 9.0, 13.0]

    def test_peak_location_is_one_based(self):
        profile = phase_profile([1, 9, 3], phases=3)
        assert profile.peak_cycle == 2
        assert profile.peak_value == 9

    def test_total(self):
        assert phase_profile([1, 2, 3]).total == 6

    def test_rising_detects_growth(self):
        assert phase_profile([1, 1, 9, 9], phases=2).rising
        assert not phase_profile([9, 9, 1, 1], phases=2).rising
        assert not phase_profile([5], phases=2).rising

    def test_short_history_clamps_phases(self):
        profile = phase_profile([4, 6], phases=10)
        assert len(profile.phase_means) == 2

    def test_validation(self):
        with pytest.raises(ModelError):
            phase_profile([])
        with pytest.raises(ModelError):
            phase_profile([1], phases=0)

    def test_learning_run_rises(self):
        """End-to-end: AWC's per-cycle maxima grow as stores fill."""
        from repro.algorithms.awc import build_awc_agents
        from repro.learning import learning_method
        from repro.problems.sat import sat_to_discsp, unique_solution_3sat
        from repro.runtime.metrics import MetricsCollector
        from repro.runtime.simulator import Simulator

        problem = sat_to_discsp(unique_solution_3sat(20, seed=2).formula)
        metrics = MetricsCollector(keep_history=True)
        agents = build_awc_agents(
            problem, learning_method("Rslv"), metrics, seed=4
        )
        result = Simulator(
            problem, agents, metrics=metrics
        ).run()
        assert result.solved
        profile = phase_profile(result.max_history, phases=3)
        assert profile.total == result.maxcck


class TestSparkline:
    def test_length_bounded_by_width(self):
        line = sparkline(list(range(100)), width=20)
        assert 0 < len(line) <= 21

    def test_short_history_one_char_per_point(self):
        assert len(sparkline([1, 2, 3], width=50)) == 3

    def test_monotone_history_monotone_glyphs(self):
        line = sparkline([0, 3, 7], width=10)
        assert line == "".join(sorted(line))

    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero_history(self):
        assert sparkline([0, 0, 0]) == "▁▁▁"

    def test_validation(self):
        with pytest.raises(ModelError):
            sparkline([1], width=0)
