"""repro — a reproduction of Hirayama & Yokoo (ICDCS 2000):
"The Effect of Nogood Learning in Distributed Constraint Satisfaction".

The library provides:

* the **AWC** algorithm (asynchronous weak-commitment search) with pluggable
  nogood learning — resolvent-based (the paper's contribution),
  minimal-conflict-set, size-bounded, and none;
* the **distributed breakout** and **ABT** baselines, plus a
  multi-variable-per-agent AWC extension;
* a **synchronous distributed-system simulator** with the paper's cost
  accounting (``cycle`` and ``maxcck``);
* the paper's **problem generators** (planted 3-coloring at m = 2.7n,
  3SAT-GEN- and 3ONESAT-GEN-style random 3SAT) and a DIMACS CNF reader;
* the full **experiment harness** reproducing every table and figure.

Quickstart::

    from repro import awc, random_coloring_instance, run_trial

    problem = random_coloring_instance(30, seed=1).to_discsp()
    result = run_trial(problem, awc("Rslv"), seed=42)
    print(result.solved, result.cycles, result.maxcck)
"""

from .algorithms import (
    AbtAgent,
    AlgorithmSpec,
    AwcAgent,
    BreakoutAgent,
    MultiVariableAwcAgent,
    abt,
    algorithm_by_name,
    awc,
    build_abt_agents,
    build_awc_agents,
    build_breakout_agents,
    build_multi_awc_agents,
    db,
)
from .core import (
    CSP,
    AgentView,
    CheckCounter,
    DisCSP,
    Domain,
    GenerationError,
    ModelError,
    Nogood,
    NogoodStore,
    ReproError,
    SimulationError,
    SolverError,
    UnsolvableError,
    integer_domain,
)
from .experiments import (
    CellResult,
    CostLine,
    Figure2Result,
    Scale,
    Table,
    crossover_delay,
    run_cell,
    run_cell_parallel,
    run_figure2,
    run_table,
    run_table4,
    run_trial,
)
from .learning import (
    LearningMethod,
    McsLearning,
    NoLearning,
    ResolventLearning,
    SizeBoundedResolventLearning,
    learning_method,
)
from .problems import (
    ColoringInstance,
    Graph,
    meeting_scheduling,
    random_coloring_instance,
    resource_allocation,
)
from .problems.sat import (
    CnfFormula,
    parse_dimacs,
    planted_3sat,
    read_dimacs,
    sat_to_discsp,
    unique_solution_3sat,
)
from .runtime import (
    InProcessTransport,
    MediumFactory,
    MetricsCollector,
    RunResult,
    Simulator,
    derive_rng,
    derive_seed,
)
from .solvers import BacktrackingSolver, DpllSolver, solve_csp

__version__ = "1.0.0"

__all__ = [
    "AbtAgent",
    "AgentView",
    "AlgorithmSpec",
    "AwcAgent",
    "BacktrackingSolver",
    "BreakoutAgent",
    "CSP",
    "CellResult",
    "CheckCounter",
    "CnfFormula",
    "ColoringInstance",
    "CostLine",
    "DisCSP",
    "Domain",
    "DpllSolver",
    "Figure2Result",
    "GenerationError",
    "Graph",
    "InProcessTransport",
    "LearningMethod",
    "McsLearning",
    "MediumFactory",
    "MetricsCollector",
    "ModelError",
    "MultiVariableAwcAgent",
    "NoLearning",
    "Nogood",
    "NogoodStore",
    "ReproError",
    "ResolventLearning",
    "RunResult",
    "Scale",
    "SimulationError",
    "Simulator",
    "SizeBoundedResolventLearning",
    "SolverError",
    "Table",
    "UnsolvableError",
    "abt",
    "algorithm_by_name",
    "awc",
    "build_abt_agents",
    "build_awc_agents",
    "build_breakout_agents",
    "build_multi_awc_agents",
    "crossover_delay",
    "db",
    "derive_rng",
    "derive_seed",
    "integer_domain",
    "learning_method",
    "meeting_scheduling",
    "parse_dimacs",
    "planted_3sat",
    "random_coloring_instance",
    "read_dimacs",
    "resource_allocation",
    "run_cell",
    "run_cell_parallel",
    "run_figure2",
    "run_table",
    "run_table4",
    "run_trial",
    "sat_to_discsp",
    "solve_csp",
    "unique_solution_3sat",
    "__version__",
]
