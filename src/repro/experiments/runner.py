"""Running trials and cells of the paper's experiments.

The paper's unit of measurement is the *trial*: one problem instance, one
random set of initial values, one algorithm, run to solution or to the
10 000-cycle cap. A *cell* of a table aggregates 100 trials (e.g. 10
instances × 10 initial-value sets) into mean ``cycle``, mean ``maxcck`` and
the percentage of trials finished within the cap — capped trials contribute
"the data at that time", exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..algorithms.registry import AlgorithmSpec
from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..core.store import STORE_BACKENDS, store_class_by_name
from ..core.variables import Value, VariableId
from ..runtime.metrics import MetricsCollector
from ..runtime.network import MediumFactory, Network
from ..runtime.random_source import Seed, derive_rng, derive_seed
from ..runtime.simulator import DEFAULT_MAX_CYCLES, RunResult, Simulator

if TYPE_CHECKING:
    from ..runtime.trace import TraceRecorder

#: Builds a fresh medium per trial (latency models carry per-trial RNG
#: state); :class:`~repro.runtime.network.MediumFactory` is the picklable one.
MediumBuilder = Callable[[Seed], Network]


def random_initial_assignment(
    problem: DisCSP, seed: Seed
) -> Dict[VariableId, Value]:
    """The trial's random initial values, drawn deterministically from *seed*."""
    rng = derive_rng(seed, "initial-values")
    return {
        variable: rng.choice(problem.csp.domain_of(variable).values)
        for variable in problem.variables
    }


def run_trial(
    problem: DisCSP,
    algorithm: AlgorithmSpec,
    seed: Seed,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    medium: Optional[MediumBuilder] = None,
    backend: str = "sync",
    tracer: Optional["TraceRecorder"] = None,
    store: str = "dict",
    retention: Optional[str] = None,
) -> RunResult:
    """One trial: build agents, simulate, return the run's measurements.

    ``backend`` is the simulator's clock (see
    :data:`~repro.runtime.simulator.CLOCKS`): ``"sync"`` counts a cycle
    per time unit (the paper's lockstep cycles), ``"events"`` one per
    epoch. ``medium`` builds the trial's message medium from the trial
    seed; either clock runs on any medium. The default is the
    unit-latency :class:`~repro.runtime.network.InProcessTransport`: the
    paper's synchronous network, on which both clocks give the same
    results trial-for-trial (parity mode).

    ``store`` selects the nogood-store backend (``"dict"`` or
    ``"linear"``; see :data:`~repro.core.store.STORE_BACKENDS`). The
    search trajectory — solved, cycles, assignment — is identical across
    both backends. The ``"linear"`` ablation runs every test the per-value
    index skips, so its check counts are an upper bound on ``"dict"``'s.

    ``retention`` selects the nogood retention policy (a spec such as
    ``"lru:100"``; see :mod:`repro.retention`). One policy instance is
    built per agent store, one :class:`~repro.retention.NogoodInterner`
    is shared by all agents of the trial, and pinned nogoods — initial
    constraints and the latest announced resolvent per sender — are
    never evicted. ``None`` (and ``"keep-all"``) reproduce the paper's
    record-forever behaviour exactly.
    """
    if store not in STORE_BACKENDS:
        raise ModelError(
            f"unknown store backend {store!r}; expected one of "
            f"{STORE_BACKENDS}"
        )
    policy_factory = None
    if retention is not None and retention != "keep-all":
        from ..retention import retention_factory

        policy_factory = retention_factory(retention)
    metrics = MetricsCollector()
    initial = random_initial_assignment(problem, seed)
    agents = algorithm.build(problem, metrics, seed, initial)
    if store != "dict":
        store_class = store_class_by_name(store)
        for agent in agents:
            agent.rebind_store(store_class)
    if policy_factory is not None:
        from ..retention import NogoodInterner

        interner = NogoodInterner()
        for agent in agents:
            agent.attach_retention(policy_factory, interner)
    return Simulator(
        problem,
        agents,
        network=(medium or MediumFactory())(seed),
        max_cycles=max_cycles,
        metrics=metrics,
        tracer=tracer,
        clock=backend,
    ).run()


@dataclass
class CellResult:
    """Aggregated measurements of one table cell."""

    label: str
    n: int
    trials: List[RunResult] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def mean_cycle(self) -> float:
        """Mean cycles over all trials (capped trials count at the cap)."""
        return _mean([trial.cycles for trial in self.trials])

    @property
    def mean_maxcck(self) -> float:
        """Mean maxcck over all trials."""
        return _mean([trial.maxcck for trial in self.trials])

    @property
    def percent_solved(self) -> float:
        """Share of trials that found a solution within the cap, in percent."""
        if not self.trials:
            return 0.0
        solved = sum(1 for trial in self.trials if trial.solved)
        return 100.0 * solved / len(self.trials)

    @property
    def mean_redundant_generations(self) -> float:
        """Mean redundant nogood generations (Table 4's measure)."""
        return _mean([trial.redundant_generations for trial in self.trials])

    @property
    def mean_generated(self) -> float:
        """Mean total nogood generations per trial."""
        return _mean([trial.generated_nogoods for trial in self.trials])

    @property
    def total_wall_time(self) -> float:
        """Total wall-clock seconds spent simulating this cell."""
        return sum(trial.wall_time for trial in self.trials)


def _mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


#: One trial's coordinates within a cell: (instance index, init index, seed).
TrialParams = Tuple[int, int, int]


def trial_parameters(
    num_instances: int, inits_per_instance: int, master_seed: Seed
) -> Iterator[TrialParams]:
    """The cell's trials in canonical order, with their derived seeds.

    This is the single source of trial seeds: the sequential and parallel
    cell runners both iterate it, so their per-trial seeds — and therefore
    their results — are identical by construction.
    """
    for instance_index in range(num_instances):
        for init_index in range(inits_per_instance):
            yield (
                instance_index,
                init_index,
                derive_seed(master_seed, "trial", instance_index, init_index),
            )


def run_cell(
    instances: Sequence[DisCSP],
    algorithm: AlgorithmSpec,
    inits_per_instance: int,
    master_seed: Seed,
    n: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    medium: Optional[MediumBuilder] = None,
    workers: Optional[int] = None,
    backend: str = "sync",
    store: str = "dict",
    retention: Optional[str] = None,
) -> CellResult:
    """One cell: every instance × every initial-value set.

    The trial seeds are derived from ``(master_seed, instance index, init
    index)`` so cells are reproducible and instances are independent.

    With ``workers`` above 1 (or ``REPRO_JOBS`` set) the trials are farmed
    out to a process pool via :mod:`repro.experiments.parallel`; results are
    identical to the sequential path apart from timing fields.

    ``medium``/``backend``/``store`` select the message medium, execution
    engine and nogood-store backend per trial; see :func:`run_trial`.
    """
    from .parallel import resolve_workers, run_cell_parallel

    if resolve_workers(workers) > 1:
        return run_cell_parallel(
            instances,
            algorithm,
            inits_per_instance=inits_per_instance,
            master_seed=master_seed,
            n=n,
            max_cycles=max_cycles,
            medium=medium,
            workers=workers,
            backend=backend,
            store=store,
            retention=retention,
        )
    cell = CellResult(label=algorithm.name, n=n)
    for instance_index, _init_index, trial_seed in trial_parameters(
        len(instances), inits_per_instance, master_seed
    ):
        cell.trials.append(
            run_trial(
                instances[instance_index],
                algorithm,
                trial_seed,
                max_cycles=max_cycles,
                medium=medium,
                backend=backend,
                store=store,
                retention=retention,
            )
        )
    return cell
