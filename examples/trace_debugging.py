"""Watching a distributed search run: tracing, profiles, statistics.

Attaches a TraceRecorder to a simulated AWC run, prints the first events of
the negotiation, the per-cycle computation profile (learning runs get more
expensive as nogood stores fill — the very effect size-bounded learning
exists to curb), message statistics, and a multi-trial summary with
confidence intervals.

Run:  python examples/trace_debugging.py
"""

from repro import MetricsCollector, Simulator, learning_method
from repro.algorithms import build_awc_agents
from repro.analysis import (
    phase_profile,
    sparkline,
    summarize_cycles,
    summarize_maxcck,
)
from repro.experiments.runner import run_trial
from repro.algorithms.registry import awc
from repro.problems.sat import sat_to_discsp, unique_solution_3sat
from repro.runtime.trace import TraceRecorder

N = 25


def main() -> None:
    problem = sat_to_discsp(unique_solution_3sat(N, seed=6).formula)
    print(f"problem: {problem} (unique-solution 3SAT)\n")

    # --- one traced run ------------------------------------------------------
    metrics = MetricsCollector(keep_history=True)
    agents = build_awc_agents(
        problem, learning_method("Rslv"), metrics, seed=1
    )
    tracer = TraceRecorder()
    result = Simulator(
        problem, agents, metrics=metrics, tracer=tracer
    ).run()
    assert result.solved

    print("first events of the negotiation:")
    print(tracer.render(limit=12))

    print("\nmessage mix:", tracer.message_counts_by_type())
    print("busiest agents:", tracer.busiest_agents(top=3))

    profile = phase_profile(result.max_history, phases=4)
    print(
        f"\nper-cycle worst-agent checks over {result.cycles} cycles "
        f"(peak {profile.peak_value} at cycle {profile.peak_cycle}):"
    )
    print(f"  {sparkline(result.max_history)}")
    print(
        "  phase means:",
        [round(value, 1) for value in profile.phase_means],
        "— rising:" if profile.rising else "— flat:",
        "nogood stores grow as learning accumulates"
        if profile.rising
        else "computation stayed level",
    )

    # --- statistics over repeated trials -------------------------------------
    trials = [
        run_trial(problem, awc("Rslv"), seed=seed) for seed in range(12)
    ]
    print(f"\nacross {len(trials)} random restarts:")
    print(f"  cycle : {summarize_cycles(trials)}")
    print(f"  maxcck: {summarize_maxcck(trials)}")


if __name__ == "__main__":
    main()
