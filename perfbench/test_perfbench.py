"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import signal
import statistics
import sys
import time

import pytest

import checks
import reference
import run
from spans import SpanAggregator, layer_targets, traced_layers
from summary import median, quartiles, spread
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

#: A three-trial list that runs in well under a second.
TINY = dataclasses.replace(
    WORKLOADS["d3s-db"], trial_cycles=8, warmup_cycles=3
)
TINY_SEED = 3


class FakeClock:
    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_subtracts_children_at_every_depth():
    # a [0, 10) holds b [1, 4), which holds c [2, 3), and b [5, 6).
    spans = SpanAggregator(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    spans.open("a")
    spans.open("b")
    spans.open("c")
    spans.close()
    spans.close()
    spans.open("b")
    spans.close()
    spans.close()
    assert spans.self_time == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert spans.calls == {"a": 1, "b": 2, "c": 1}
    assert sum(spans.self_time.values()) == 10.0  # the root's duration


def test_nested_spans_of_one_name_count_one_entry():
    # A batch query calling the single-value query: one entry, all self.
    spans = SpanAggregator(clock=FakeClock(0, 2, 5, 9))
    spans.open("store.read")
    spans.open("store.read")
    spans.close()
    spans.close()
    assert spans.calls == {"store.read": 1}
    assert spans.self_time == {"store.read": 9.0}


def test_wrapped_function_records_a_span_even_when_it_raises():
    spans = SpanAggregator(clock=FakeClock(0, 4))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        spans.wrap(fail, "x")()
    assert spans.self_time == {"x": 4.0}
    assert spans._stack == []


def test_traced_layers_restores_every_method():
    targets = layer_targets()
    before = {
        (cls, method): vars(cls)[method]
        for _, classes, methods in targets
        for cls in classes
        for method in methods
        if method in vars(cls)
    }
    with traced_layers(SpanAggregator(), targets):
        assert all(
            vars(cls)[method] is not original
            for (cls, method), original in before.items()
        )
    assert all(
        vars(cls)[method] is original
        for (cls, method), original in before.items()
    )


def test_every_layer_target_exists():
    # A renamed entry point would silently drop its layer to zero.
    for name, classes, methods in layer_targets():
        assert any(
            method in vars(cls) for cls in classes for method in methods
        ), name


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert median(values) == 5.5
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


def test_mismatched_trials_flags_changed_and_missing_trials():
    pinned = [[True, 10], [False, 20]]
    assert checks.mismatched_trials(pinned, pinned) == []
    assert checks.mismatched_trials([[True, 10], [False, 21]], pinned) == [1]
    assert checks.mismatched_trials([[True, 10]], pinned) == [1]
    assert checks.mismatched_trials([None, [False, 20]], pinned) == [0]


def tiny_pass():
    instances = run.generate_instances(TINY)
    return run.run_pass("test", TINY, instances, [2, 0, 1])


def test_pass_runs_each_trial_of_the_list_once_at_its_cap():
    trials = tiny_pass()
    assert trials.failed == {}
    assert sorted(trials.invariants) == [0, 1, 2]
    cycles = [trial[1] for trial in trials.invariants.values()]
    assert all(count <= TINY.trial_cycles for count in cycles)
    assert trials.cycles == sum(cycles)


def test_speed_sampler_leaves_its_slices_out_of_the_block_time():
    handler = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with reference.SpeedSampler() as watch:
        deadline = time.perf_counter() + 4 * reference.SLICE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    elapsed = time.perf_counter() - started
    assert watch.slices >= 3  # one at each end, and at least one between
    assert watch.work_s + watch.spent == pytest.approx(elapsed, abs=0.005)
    assert watch.scaled_s == pytest.approx(
        watch.work_s * reference.REFERENCE_S / (watch.spent / watch.slices)
    )
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_scales_every_trial_by_its_own_slices():
    trials = tiny_pass()
    assert sorted(trials.references) == [0, 1, 2]
    for index, wall in trials.walls.items():
        assert trials.scaled_walls[index] == pytest.approx(
            wall * reference.REFERENCE_S / trials.references[index]
        )
    assert sorted(run.median_trials([trials, trials])) == [0, 1, 2]


def test_traced_pass_accounts_for_its_time_and_only_observes(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # restored after
    untraced = tiny_pass()
    traced = run.traced_pass(TINY, [2, 0, 1], tmp_path)
    assert traced["pass"].invariants == untraced.invariants
    metrics = run.layer_metrics(traced, untraced.wall)
    assert run.trace_self_checks(traced, metrics) == []
    assert sorted(metrics) == sorted(run.PER_LAYER)
    assert metrics["algorithms.steps"] > 0
    assert metrics["store.keyed_calls"] == 0  # DB never asks for priorities


def test_tampered_pin_is_a_failed_trial(tmp_path, monkeypatch, capsys):
    invariants = tiny_pass().invariants
    tampered = [invariants[index] for index in range(TINY.trials)]
    tampered[1][checks.INVARIANT_FIELDS.index("total_checks")] += 1
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"d3s-db": tampered}))
    monkeypatch.setattr(checks, "PINS_PATH", pins)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # restored after

    code = run.run(TINY, TINY_SEED, seconds=0, trace=False)

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 1 + TINY.trials

