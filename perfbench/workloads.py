"""The benchmark's workloads and the pinned trial list each one runs.

A workload is one table cell of the paper (why each one is here is in the
root ``BENCHMARK.json``): a problem family at one size,
one algorithm, one engine, the dict store, an optional retention policy and
the paper's 10 000-cycle cap. Its instances and trial stream come from the
pinned corpus seed, exactly as ``repro.experiments.paper.run_table_cell``
draws them: trial ``k`` solves instance ``k % instances`` from the initial
values of ``derive_seed(master, "trial", k)``.

The trial list is fixed by its cost, never by its outcome: the first
``trials`` trials of the stream, each cut at ``trial_cycles`` cycles (a trial
that solves sooner ends sooner, as in the paper). ``pin.py`` runs the list
once and stores every trial's invariants in ``pins.json``.

``--seed`` sets the order in which a pass runs the list (a seeded shuffle),
not the instances. Trial costs at these sizes are heavy-tailed (d3c n=150
trials take 0.5 to 25 s), so runs of a few trials drawn fresh per seed
measured wall times 50% apart from seed to seed. A fixed list makes every
run do the same work, and makes every trial of every run checkable against
pinned values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: The nogood store every workload runs on (the default backend).
STORE = "dict"

#: The seed of every workload's instances and trial stream.
CORPUS_SEED = 0

#: The shuffle seed used when ``--seed`` is not given.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    algorithm: str
    backend: str
    retention: Optional[str]
    instances: int
    #: How many trials of the stream the list holds.
    trials: int
    #: Each trial's cycle cap (see the module docstring).
    trial_cycles: int
    #: Cycles of the first trial run once, untimed, before measuring.
    warmup_cycles: int
    #: The workload whose pinned invariants this one must reproduce.
    pins_from: Optional[str] = None

    @property
    def pin_key(self) -> str:
        return self.pins_from or self.name

    def manifest(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "n": self.n,
            "algorithm": self.algorithm,
            "engine": self.backend,
            "store": STORE,
            "retention": self.retention or "keep-all",
            "instances": self.instances,
            "trials": self.trials,
            "trial_cycles": self.trial_cycles,
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="d3c-awc-rslv",
            family="d3c",
            n=150,
            algorithm="AWC+Rslv",
            backend="sync",
            retention=None,
            instances=3,
            trials=3,
            trial_cycles=60,
            warmup_cycles=15,
        ),
        Workload(
            name="d3s-db",
            family="d3s",
            n=100,
            algorithm="DB",
            backend="sync",
            retention=None,
            instances=3,
            trials=3,
            trial_cycles=50,
            warmup_cycles=30,
        ),
        Workload(
            name="d3s-db-events",
            family="d3s",
            n=100,
            algorithm="DB",
            backend="events",
            retention=None,
            instances=3,
            trials=3,
            trial_cycles=50,
            warmup_cycles=15,
            pins_from="d3s-db",
        ),
        Workload(
            name="d3s1-rslv-lru",
            family="d3s1",
            n=50,
            algorithm="AWC+Rslv",
            backend="sync",
            retention="lru:20",
            instances=2,
            trials=3,
            trial_cycles=150,
            warmup_cycles=40,
        ),
    )
}
