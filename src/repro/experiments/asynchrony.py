"""Extension experiment: the algorithms on other kinds of networks.

Section 5 of the paper: "our distributed constraint satisfaction algorithms
are designed for a fully asynchronous distributed system, and thereby can
work on any type of distributed systems. We should analyze the performance
of our algorithm on other types of distributed systems."

This module does that analysis. The same agents run unchanged on one
message medium (:class:`~repro.runtime.network.InProcessTransport`) with
these latency specs:

* ``sync`` / ``unit`` — the paper's synchronous network (one time unit per
  message);
* ``fixed:d`` — every message takes d time units (Figure 2's delay,
  realized rather than modeled);
* ``random:d`` / ``uniform:d`` — per-message uniform delay in 1..d with
  FIFO channels; ``:reorder`` drops FIFO, so messages can overtake;
* ``lossy:p`` — p percent of copies are lost and retransmitted.

Measured cycles grow with delay; the ratio against the synchronous run
shows how close the growth is to the linear model Figure 2 assumes, and
the reorder rows demonstrate the algorithms' tolerance to the harshest
asynchrony (correctness is asserted, not assumed: every solved trial's
assignment is verified).

Either engine runs the sweep. On the lockstep engine a cycle is one time
unit; on the event engine the ``cycle`` column counts epochs (distinct
delivery times) and activation is mail-driven, so the two tables measure
the same delay-tolerance question under two execution semantics. The
``random`` and ``uniform`` specs differ only in the RNG stream they draw
from (each keeps its own, so earlier tables reproduce exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..algorithms.registry import algorithm_by_name
from ..core.exceptions import ModelError
from ..runtime.network import MediumFactory
from ..runtime.random_source import Seed, derive_seed
from .paper import Scale, instances_for, scale_from_environment
from .runner import BACKENDS, CellResult, run_cell
from .tables import Table, TableRow


@dataclass(frozen=True)
class MediumModel:
    """A named medium recipe: the table label and the per-trial factory."""

    name: str
    factory: MediumFactory


#: Spec kind -> (latency kind, default parameter, RNG stream).
_SPEC_KINDS = {
    "sync": ("unit", None, None),
    "unit": ("unit", None, None),
    "fixed": ("fixed", 2, None),
    "random": ("uniform", 3, ("network", "delay")),
    "uniform": ("uniform", 4, ("events", "latency")),
    "lossy": ("lossy", 30, ("network", "lossy")),
}


def medium_model(spec: str) -> MediumModel:
    """Parse a medium spec: ``sync``, ``unit``, ``fixed:3``, ``random:3``,
    ``random:3:reorder``, ``uniform:4``, ``uniform:4:reorder``, ``lossy:30``
    (percent loss). A malformed spec raises a one-line :class:`ModelError`.
    """
    kind, *fields = spec.split(":")
    if kind not in _SPEC_KINDS:
        raise ModelError(
            f"unknown medium spec {spec!r}; expected one of "
            f"{', '.join(_SPEC_KINDS)}"
        )
    latency, default, stream = _SPEC_KINDS[kind]
    if default is None:
        if fields:
            raise ModelError(f"medium spec {spec!r} takes no parameter")
        return MediumModel(kind, MediumFactory())
    fifo = True
    if latency == "uniform" and len(fields) == 2:
        if fields[1] != "reorder":
            raise ModelError(
                f"medium spec {spec!r}: the third field can only be "
                f"'reorder', got {fields[1]!r}"
            )
        fifo = False
        fields = fields[:1]
    if len(fields) > 1:
        raise ModelError(f"medium spec {spec!r} has too many fields")
    try:
        parameter = int(fields[0]) if fields else default
    except ValueError:
        raise ModelError(
            f"medium spec {spec!r}: {fields[0]!r} is not an integer"
        ) from None
    if latency == "lossy":
        if not 0 <= parameter < 100:
            raise ModelError(
                f"medium spec {spec!r}: loss must be 0..99 percent, "
                f"got {parameter}"
            )
        return MediumModel(
            f"lossy({parameter}%)",
            MediumFactory("lossy", loss_rate=parameter / 100.0, stream=stream),
        )
    if parameter < 1:
        raise ModelError(
            f"medium spec {spec!r}: delay must be at least 1, got {parameter}"
        )
    suffix = "" if fifo else "/reorder"
    return MediumModel(
        f"{kind}({parameter}){suffix}",
        MediumFactory(latency, delay=parameter, fifo=fifo, stream=stream),
    )


#: The default grid of medium specs per engine.
DEFAULT_MEDIA = {
    "sync": (
        "sync",
        "fixed:2",
        "fixed:4",
        "random:4",
        "random:4:reorder",
        "lossy:30",
    ),
    "events": (
        "unit",
        "uniform:4",
        "uniform:4:reorder",
    ),
}

#: Table titles per engine.
_TITLES = {
    "sync": "Extension: network models",
    "events": "Extension: event-driven transports",
}


def run_asynchrony_table(
    scale: Optional[Scale] = None,
    seed: Seed = 0,
    algorithms: Sequence[str] = ("AWC+Rslv", "DB"),
    media: Optional[Sequence[str]] = None,
    backend: str = "sync",
) -> Table:
    """Cycles under different media, on the coloring workload.

    Uses the smallest coloring cell of *scale* so the sweep stays cheap:
    the point is the delay response, not the problem size. ``backend``
    picks the engine; ``media`` defaults to that engine's
    :data:`DEFAULT_MEDIA` grid. On the events backend the ``cycle`` column
    counts epochs and ``maxcck`` sums per-epoch maxima, the logical-time
    analogues of the paper's measures (see ``EXPERIMENTS.md``).
    """
    if backend not in BACKENDS:
        raise ModelError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if scale is None:
        scale = scale_from_environment()
    models = [
        medium_model(spec)
        for spec in (DEFAULT_MEDIA[backend] if media is None else media)
    ]
    n, num_instances, inits = scale.coloring[0]
    instances = instances_for("d3c", n, num_instances, seed)
    table = Table(
        title=(
            f"{_TITLES[backend]} (distributed 3-coloring n={n}, "
            f"scale={scale.name})"
        )
    )
    for algorithm_name in algorithms:
        spec = algorithm_by_name(algorithm_name)
        for model in models:
            cell = run_cell(
                instances,
                spec,
                inits_per_instance=inits,
                master_seed=derive_seed(
                    seed, "asynchrony", algorithm_name, model.name
                ),
                n=n,
                max_cycles=scale.max_cycles,
                medium=model.factory,
                backend=backend,
            )
            _verify_solutions(cell, instances)
            table.add(
                TableRow(
                    n=n,
                    label=f"{spec.name} @ {model.name}",
                    cycle=cell.mean_cycle,
                    maxcck=cell.mean_maxcck,
                    percent=cell.percent_solved,
                )
            )
    return table


def _verify_solutions(cell: CellResult, instances) -> None:
    """Assert every solved trial's assignment actually solves its problem.

    Trials are grouped per instance in run_cell's order, so the mapping
    back is positional.
    """
    inits = len(cell.trials) // len(instances) if instances else 0
    for index, trial in enumerate(cell.trials):
        if not trial.solved:
            continue
        problem = instances[index // inits]
        if not problem.is_solution(trial.assignment):
            raise ModelError(
                "asynchrony run produced an invalid 'solution' — "
                "the medium broke the algorithm"
            )


def delay_response(
    table: Table, algorithm_label: str
) -> List[Tuple[str, float]]:
    """The (medium, mean cycle) series of one algorithm from *table*."""
    series = []
    for row in table.rows:
        label, separator, network = row.label.partition(" @ ")
        if separator and label == algorithm_label:
            series.append((network, row.cycle))
    return series
