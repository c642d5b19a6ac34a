"""Pinned trials of every default medium spec, on both engines.

``medium_pins.json`` was recorded before the lockstep networks and the event
transport became one medium, from the default grids of both asynchrony
tables at quick scale (d3c n=15, 2 instances × 2 inits, seed 0, with the
tables' own per-cell master seeds). Every trial must reproduce its pin
bit for bit: solved, cycles, maxcck, checks, messages, logical time and a
digest of the final assignment. The fixture is an oracle, never
regenerated to make a change pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms.registry import algorithm_by_name
from repro.experiments.asynchrony import DEFAULT_MEDIA, medium_model
from repro.experiments.paper import instances_for
from repro.experiments.runner import run_cell
from repro.runtime.random_source import derive_seed

PINS = json.loads((Path(__file__).with_name("medium_pins.json")).read_text())
ALGORITHMS = ("AWC+Rslv", "DB")


def assignment_digest(assignment):
    text = repr(sorted(assignment.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned_fields(trial):
    return {
        "solved": trial.solved,
        "cycles": trial.cycles,
        "maxcck": trial.maxcck,
        "total_checks": trial.total_checks,
        "messages_sent": trial.messages_sent,
        "logical_time": trial.logical_time,
        "assignment": assignment_digest(trial.assignment),
    }


@pytest.fixture(scope="module")
def instances():
    return instances_for("d3c", PINS["n"], PINS["instances"], PINS["seed"])


def test_fixture_covers_every_default_spec():
    expected = {
        f"{engine} {spec} {algorithm}"
        for engine, specs in DEFAULT_MEDIA.items()
        for spec in specs
        for algorithm in ALGORITHMS
    }
    assert set(PINS["cells"]) == expected


@pytest.mark.parametrize("key", sorted(PINS["cells"]))
def test_trials_reproduce_their_pins(instances, key):
    engine, spec, algorithm = key.split(" ")
    pinned = PINS["cells"][key]
    model = medium_model(spec)
    assert model.name == pinned["name"]
    cell = run_cell(
        instances,
        algorithm_by_name(algorithm),
        inits_per_instance=PINS["inits"],
        master_seed=derive_seed(PINS["seed"], "asynchrony", algorithm, model.name),
        n=PINS["n"],
        max_cycles=PINS["max_cycles"],
        medium=model.factory,
        workers=1,
        backend=engine,
    )
    assert [pinned_fields(trial) for trial in cell.trials] == pinned["trials"]
