"""Pinned trials of the one run loop, on both clocks.

``engine_pins.json`` was recorded from the two separate engines (the
lockstep simulator and the discrete-event engine) before they became one
loop. It covers what ``medium_pins.json`` does not: ABT and AWC+No/Mcs
next to AWC+Rslv and DB; the ``fixed:2`` and ``random:4:reorder`` media,
where initialization checks land in an idle time unit and the two clocks
give different ``maxcck``; a cap of 7 cycles, so capped trials are pinned;
and the per-cycle ``max_history``. Every trial must reproduce its pin bit
for bit. The fixture is an oracle, never regenerated to make a change pass.

The one trial whose result changed on purpose is not in the fixture: see
:func:`test_carryover_is_not_quiescence`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms.multi_awc import build_multi_awc_agents
from repro.algorithms.registry import algorithm_by_name
from repro.core import DisCSP
from repro.experiments.asynchrony import medium_model
from repro.experiments.paper import instances_for
from repro.experiments.runner import random_initial_assignment
from repro.learning import learning_method
from repro.problems.coloring import coloring_csp, random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import Simulator

PINS = json.loads((Path(__file__).with_name("engine_pins.json")).read_text())


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def pinned_fields(result):
    return {
        "solved": result.solved,
        "unsolvable": result.unsolvable,
        "capped": result.capped,
        "quiescent": result.quiescent,
        "cycles": result.cycles,
        "maxcck": result.maxcck,
        "total_checks": result.total_checks,
        "messages_sent": result.messages_sent,
        "logical_time": result.logical_time,
        "max_history": digest(result.max_history),
        "assignment": digest(sorted(result.assignment.items())),
    }


@pytest.fixture(scope="module")
def instances():
    return instances_for(
        PINS["family"], PINS["n"], PINS["instances"], PINS["instance_seed"]
    )


@pytest.mark.parametrize("key", sorted(PINS["cells"]))
def test_trials_reproduce_their_pins(instances, key):
    clock, spec, algorithm, cap = key.split(" ")
    observed = []
    for problem in instances:
        for seed in PINS["seeds"]:
            metrics = MetricsCollector(keep_history=True)
            agents = algorithm_by_name(algorithm).build(
                problem, metrics, seed, random_initial_assignment(problem, seed)
            )
            result = Simulator(
                problem,
                agents,
                network=medium_model(spec).factory(seed),
                max_cycles=int(cap),
                metrics=metrics,
                clock=clock,
            ).run()
            observed.append(pinned_fields(result))
    assert observed == PINS["cells"][key]


def test_fixture_pins_both_clocks_and_capped_trials():
    cells = PINS["cells"]
    assert {key.split(" ")[0] for key in cells} == {"sync", "events"}
    assert any(t["capped"] for trials in cells.values() for t in trials)
    # The clocks disagree on maxcck where a medium leaves time units idle.
    differing = [
        key for key in cells
        if key.startswith("sync ")
        and [t["maxcck"] for t in cells[key]]
        != [t["maxcck"] for t in cells["events" + key[len("sync"):]]]
    ]
    assert differing and all(" unit " not in key for key in differing)


@pytest.mark.parametrize("clock", ["sync", "events"])
def test_carryover_is_not_quiescence(clock):
    # Two multi-variable AWC agents whose intra-round cap of 1 leaves
    # carryover after a step. The lockstep engine used to declare
    # quiescence once no message was in flight (quiescent=True,
    # solved=False at cycle 2) while agent 1 still held carryover; a
    # pending wakeup now keeps the run going on either clock.
    csp = coloring_csp(random_coloring_instance(12, seed=38).graph, 3)
    problem = DisCSP(csp, {variable: variable % 2 for variable in csp.variables})
    metrics = MetricsCollector()
    agents = build_multi_awc_agents(
        problem, learning_method("Rslv"), metrics, 38, intra_round_cap=1
    )
    result = Simulator(problem, agents, metrics=metrics, clock=clock).run()
    assert result.solved and not result.quiescent and not result.capped
    assert problem.is_solution(result.assignment)
    assert (result.cycles, result.maxcck, result.logical_time) == (6, 434, 6)
