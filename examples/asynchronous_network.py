"""AWC on asynchronous networks, and when learning beats the breakout.

Two experiments in one script:

1. The paper designs AWC for *fully asynchronous* systems and evaluates it
   on a synchronous simulator for convenience. Here we run the same agents
   on a medium with random per-message delays (with and without FIFO
   channels), counting cycles as lockstep time units and as epochs, and
   confirm they still converge to correct solutions.

2. The Figure 2 question: given measured (cycle, maxcck), at what
   communication delay does AWC+4thRslv overtake DB? We measure both on a
   unique-solution 3SAT cell and print the efficiency lines and crossover.

Run:  python examples/asynchronous_network.py
"""

from repro import MediumFactory, awc, db, run_trial
from repro.experiments.efficiency import CostLine, crossover_delay, format_figure
from repro.experiments.runner import run_cell
from repro.problems.coloring import random_coloring_instance
from repro.problems.sat import sat_to_discsp, unique_solution_3sat


def delayed_network(max_delay, fifo):
    """Per-message delay uniform in 1..max_delay, seeded from the trial."""
    return MediumFactory(
        "uniform", delay=max_delay, fifo=fifo, stream=("example-net",)
    )


def main() -> None:
    problem = random_coloring_instance(25, seed=11).to_discsp()
    print("1) AWC+Rslv under message delays (3-coloring, n=25)")
    print(f"{'network':34s} {'cycles':>7s} {'solved':>7s}")
    for label, medium, backend in [
        ("synchronous (paper)", None, "sync"),
        ("delay ≤ 3, FIFO", delayed_network(3, True), "sync"),
        ("delay ≤ 3, reordering", delayed_network(3, False), "sync"),
        ("delay ≤ 8, reordering", delayed_network(8, False), "sync"),
        ("delay ≤ 3, FIFO, epoch clock", delayed_network(3, True), "events"),
    ]:
        result = run_trial(
            problem, awc("Rslv"), seed=2, medium=medium, backend=backend
        )
        assert problem.is_solution(result.assignment)
        print(f"{label:34s} {result.cycles:7d} {str(result.solved):>7s}")

    print("\n2) Efficiency vs communication delay (d3s1, n=25)")
    instances = [
        sat_to_discsp(unique_solution_3sat(25, seed=s).formula)
        for s in range(3)
    ]
    awc_cell = run_cell(instances, awc("4thRslv"), 4, master_seed=0, n=25)
    db_cell = run_cell(instances, db(), 4, master_seed=0, n=25)
    awc_line = CostLine("AWC+4thRslv", awc_cell.mean_cycle, awc_cell.mean_maxcck)
    db_line = CostLine("DB", db_cell.mean_cycle, db_cell.mean_maxcck)
    crossing = crossover_delay(awc_line, db_line)
    upper = 100 if crossing is None else max(10, round(2.5 * crossing))
    delays = [round(upper * i / 8) for i in range(9)]
    print(format_figure([awc_line, db_line], delays))
    if crossing is None:
        print(
            "\nno crossover: one algorithm dominates at every delay "
            "(common at small n, where AWC's nogood stores stay tiny)"
        )
    else:
        print(
            f"\npast ~{crossing:.0f} check-equivalents of delay per cycle, "
            "learning pays for its computation (the paper's Figure 2 story)"
        )


if __name__ == "__main__":
    main()
