"""Command-line interface: regenerate the paper's tables and figure.

Examples::

    repro table 1                   # Table 1 at the default scale
    repro table 8 --scale quick     # smoke-scale comparison vs DB
    repro table 4                   # the redundancy experiment
    repro figure2                   # the efficiency model + crossover
    repro tables                    # everything (honours --scale)

The ``--scale paper`` option runs the paper's exact sizes and trial counts;
expect long runtimes in pure Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments.figure2 import run_figure2
from .experiments.paper import (
    reference_for_table,
    run_table,
    run_table4,
    scale_by_name,
    scale_from_environment,
    TABLE_SPECS,
)
from .experiments.reference import FIGURE2_CROSSOVERS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=("quick", "default", "paperlite", "paper"),
        default=None,
        help="experiment scale (default: REPRO_SCALE or 'default')",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="omit the paper's values from the output",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for trial execution (0 = all cores; "
            "default: REPRO_JOBS or sequential). Results are identical "
            "to a sequential run."
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("sync", "events"),
        default="sync",
        help=(
            "what a cycle is: one time unit (the paper's lockstep cycles) "
            "or one epoch of the event loop (in parity mode the tables are "
            "identical; see EXPERIMENTS.md)"
        ),
    )
    _add_store_option(parser)
    _add_retention_option(parser)


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    from .core.store import STORE_BACKENDS

    parser.add_argument(
        "--store",
        choices=STORE_BACKENDS,
        default="dict",
        help=(
            "nogood-store backend: dict (the per-value index) or linear "
            "(the unindexed ablation). Both find the same solutions in "
            "the same cycles; linear counts the extra checks the index "
            "saves."
        ),
    )


def _add_retention_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retention",
        default=None,
        metavar="SPEC",
        help=(
            "nogood retention policy: keep-all (default; the paper's "
            "record-forever behaviour), lru[:CAP], decay[:CAP[:HALF_LIFE]] "
            "or subsume. Bounded policies evict learned nogoods but never "
            "pinned ones (initial constraints, latest resolvent per "
            "sender); see repro.retention."
        ),
    )


def _resolve_scale(name: Optional[str]):
    if name is None:
        return scale_from_environment()
    return scale_by_name(name)


def _print_table(number: int, args: argparse.Namespace) -> None:
    scale = _resolve_scale(args.scale)
    jobs = getattr(args, "jobs", None)
    backend = getattr(args, "backend", "sync")
    store = getattr(args, "store", "dict")
    retention = getattr(args, "retention", None)
    if number == 4:
        for table in run_table4(
            scale=scale,
            seed=args.seed,
            workers=jobs,
            backend=backend,
            store=store,
            retention=retention,
        ):
            print(table.format_text())
            print()
        if not args.no_reference:
            print("paper's Table 4 (mean redundant generations):")
            from .experiments.reference import TABLE4

            for (family, n, label), value in sorted(TABLE4.items()):
                print(f"  {family:5s} n={n:<4d} {label:15s} {value:>10.1f}")
        return
    table = run_table(
        number,
        scale=scale,
        seed=args.seed,
        workers=jobs,
        backend=backend,
        store=store,
        retention=retention,
    )
    reference = None if args.no_reference else reference_for_table(number)
    print(table.format_text(reference))


def _cmd_table(args: argparse.Namespace) -> int:
    _print_table(args.number, args)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    for number in sorted(set(TABLE_SPECS) | {4}):
        _print_table(number, args)
        print()
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from .analysis.textplot import Series, line_plot

    scale = _resolve_scale(args.scale)
    result = run_figure2(scale=scale, seed=args.seed)
    print(result.text)
    print()
    print(
        line_plot(
            [
                Series.from_function(
                    result.awc.label, result.delays, result.awc.total_time
                ),
                Series.from_function(
                    result.db.label, result.delays, result.db.total_time
                ),
            ],
            title="total time-units vs communication delay",
            x_label="communication delay (nogood-check time-units)",
            y_label="total",
        )
    )
    if result.crossover is not None:
        print(f"\nmeasured crossover delay: {result.crossover:.1f} time-units")
    if not args.no_reference:
        paper = FIGURE2_CROSSOVERS[("d3s1", 50)]
        print(f"paper's crossover (d3s1, n=50): around {paper:.0f} time-units")
    return 0


def _cmd_asynchrony(args: argparse.Namespace) -> int:
    from .experiments.asynchrony import run_asynchrony_table

    scale = _resolve_scale(args.scale)
    backend = getattr(args, "backend", "sync")
    table = run_asynchrony_table(scale=scale, seed=args.seed, backend=backend)
    print(table.format_text())
    if backend == "events":
        print(
            "\nEvent-driven backend: 'cycle' counts epochs (distinct "
            "delivery times) and maxcck sums per-epoch maxima — the "
            "logical-time analogues of the paper's measures (see "
            "EXPERIMENTS.md). The unit row is parity mode; every reported "
            "solution is verified."
        )
        return 0
    print(
        "\nThe fixed(d) rows realize Figure 2's delay axis: cycles should "
        "grow roughly d-fold over sync. Reorder rows exercise the harshest "
        "asynchrony; every reported solution is verified."
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweep import best_bound, sweep_size_bound

    scale = _resolve_scale(args.scale)
    for family in args.families:
        table = sweep_size_bound(family, scale=scale, seed=args.seed)
        print(table.format_text())
        print(f"empirical best bound: {best_bound(table)}\n")
    print(
        "The paper (Section 4.2): 'the optimal setting for k depends on "
        "problems ... it should be set empirically.' This is that "
        "procedure."
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .algorithms.registry import algorithm_by_name
    from .experiments.validation import validate_delay_model

    scale = _resolve_scale(args.scale)
    for name in args.algorithms:
        result = validate_delay_model(
            algorithm=algorithm_by_name(name),
            delays=tuple(args.delays),
            scale=scale,
            seed=args.seed,
        )
        print(result.format_text())
        print(
            f"worst deviation from the linear model: "
            f"{result.worst_ratio_error * 100:.0f}%\n"
        )
    print(
        "Figure 2 models total time as maxcck + cycle × delay; these runs "
        "realize the delay on an actual fixed-delay network and compare "
        "measured cycles against the model's cycle × delay term."
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    scale = _resolve_scale(args.scale)
    result = generate_report(
        scale=scale, seed=args.seed, include_extensions=args.extensions
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(result.text)
        print(
            f"wrote {args.output}: shape checks {result.passed}/"
            f"{result.total} passed"
        )
    else:
        print(result.text)
    return 0 if result.passed == result.total else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    from .algorithms.registry import algorithm_by_name
    from .experiments.runner import run_trial
    from .problems.sat.dimacs import read_dimacs
    from .problems.sat.to_discsp import sat_to_discsp

    formula = read_dimacs(args.path)
    problem = sat_to_discsp(formula)
    print(f"loaded {formula} from {args.path}")
    tracer = None
    if args.trace_jsonl:
        from .runtime.trace import TraceRecorder

        tracer = TraceRecorder()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run_trial(
        problem,
        algorithm_by_name(args.algorithm),
        seed=args.seed,
        max_cycles=args.max_cycles,
        backend=args.backend,
        tracer=tracer,
        store=args.store,
        retention=args.retention,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        if args.profile == "-":
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(30)
        else:
            profiler.dump_stats(args.profile)
            print(
                f"wrote cProfile stats to {args.profile} "
                "(inspect with python -m pstats, or snakeviz)"
            )
    if tracer is not None:
        count = tracer.write_jsonl(args.trace_jsonl)
        print(f"wrote {count} trace records to {args.trace_jsonl}")
    if result.solved:
        literals = " ".join(
            str(variable if value else -variable)
            for variable, value in sorted(result.assignment.items())
        )
        print(f"s SATISFIABLE ({result.cycles} cycles, maxcck {result.maxcck})")
        print(f"v {literals} 0")
        return 0
    if result.unsolvable:
        print(f"s UNSATISFIABLE ({result.cycles} cycles)")
        return 0
    print(f"s UNKNOWN (stopped after {result.cycles} cycles)")
    return 2


def _cmd_generate(args: argparse.Namespace) -> int:
    from pathlib import Path

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        seed = f"{args.seed}-{index}"
        if args.family == "d3c":
            from .problems.coloring import random_coloring_instance
            from .problems.graphs import format_dimacs_graph

            instance = random_coloring_instance(args.n, seed=seed)
            path = out / f"coloring-n{args.n}-{index}.col"
            path.write_text(
                format_dimacs_graph(
                    instance.graph,
                    comment=(
                        f"planted 3-colorable graph, n={args.n}, "
                        f"m={instance.graph.num_edges}, seed={seed}"
                    ),
                )
            )
        else:
            from .problems.sat.dimacs import write_dimacs
            from .problems.sat.generators import (
                planted_3sat,
                unique_solution_3sat,
            )

            if args.family == "d3s":
                instance = planted_3sat(args.n, seed=seed)
                stem = "3sat"
            else:
                instance = unique_solution_3sat(args.n, seed=seed)
                stem = "3onesat"
            path = out / f"{stem}-n{args.n}-{index}.cnf"
            write_dimacs(
                instance.formula,
                path,
                comment=f"{stem} instance, n={args.n}, seed={seed}",
            )
        print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    forwarded: List[str] = list(args.paths)
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.write_baseline:
        forwarded.append("--write-baseline")
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.format != "text":
        forwarded += ["--format", args.format]
    if args.output:
        forwarded += ["--output", args.output]
    for pattern in args.exclude or ():
        forwarded += ["--exclude", pattern]
    if args.check_trace:
        forwarded += ["--check-trace", args.check_trace]
    if args.no_fifo_check:
        forwarded.append("--no-fifo-check")
    return lint_main(forwarded)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify.cli import main as verify_main

    forwarded: List[str] = []
    if args.explore:
        forwarded.append("--explore")
    for entry in args.only or ():
        forwarded += ["--only", entry]
    if args.budget is not None:
        forwarded += ["--budget", str(args.budget)]
    if args.naive_budget is not None:
        forwarded += ["--naive-budget", str(args.naive_budget)]
    if args.no_prune:
        forwarded.append("--no-prune")
    if args.no_naive:
        forwarded.append("--no-naive")
    if args.format != "text":
        forwarded += ["--format", args.format]
    if args.output:
        forwarded += ["--output", args.output]
    return verify_main(forwarded)


def _cmd_soak(args: argparse.Namespace) -> int:
    from .experiments.soak import (
        DEFAULT_BUDGET,
        DEFAULT_EPISODE_CYCLES,
        DEFAULT_EPISODES,
        DEFAULT_POLICIES,
        DEFAULT_POOL,
        run_soak,
    )

    if args.policy is None:
        policies = DEFAULT_POLICIES
    else:
        policies = tuple(
            name.strip() for name in args.policy.split(",") if name.strip()
        )
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    report = run_soak(
        policies=policies,
        budget=budget,
        episodes=(
            args.episodes if args.episodes is not None else DEFAULT_EPISODES
        ),
        pool=args.pool if args.pool is not None else DEFAULT_POOL,
        family=args.family,
        n=args.n,
        learning=args.learning,
        store=args.store,
        seed=args.seed,
        max_cycles=(
            args.max_cycles
            if args.max_cycles is not None
            else DEFAULT_EPISODE_CYCLES
        ),
    )
    print(report.format_text())
    if args.output:
        report.write_json(args.output)
        print(f"wrote {args.output}")
    if not report.all_verified:
        print("FATAL: a solved episode failed solution re-verification")
        return 1
    if not report.all_within_budget:
        print(
            f"FATAL: a bounded policy exceeded the {budget}-nogood budget"
        )
        return 1
    return 0


def _cmd_bench(argv: List[str]) -> int:
    from .experiments.bench import main as bench_main

    return bench_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'The Effect of Nogood Learning in "
            "Distributed Constraint Satisfaction' (Hirayama & Yokoo, ICDCS "
            "2000)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="run one of the paper's tables")
    table.add_argument(
        "number", type=int, choices=sorted(set(TABLE_SPECS) | {4})
    )
    _add_common(table)
    table.set_defaults(func=_cmd_table)

    tables = sub.add_parser("tables", help="run every table")
    _add_common(tables)
    tables.set_defaults(func=_cmd_tables)

    figure = sub.add_parser("figure2", help="run the Figure 2 efficiency model")
    _add_common(figure)
    figure.set_defaults(func=_cmd_figure2)

    sweep = sub.add_parser(
        "sweep",
        help="size-bound (k) sweep: the paper's 'set k empirically' "
        "procedure",
    )
    sweep.add_argument(
        "families",
        nargs="*",
        default=["d3c", "d3s", "d3s1"],
        choices=("d3c", "d3s", "d3s1"),
        help="problem families to sweep (default: all three)",
    )
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser(
        "validate",
        help="empirically validate Figure 2's linear delay model on a "
        "fixed-delay network",
    )
    validate.add_argument(
        "--algorithms",
        nargs="*",
        default=["AWC+Rslv", "DB"],
        help="algorithm labels to validate (default: AWC+Rslv and DB)",
    )
    validate.add_argument(
        "--delays",
        nargs="*",
        type=int,
        default=[2, 3, 4],
        help="fixed per-message delays to measure (default: 2 3 4)",
    )
    _add_common(validate)
    validate.set_defaults(func=_cmd_validate)

    asynchrony = sub.add_parser(
        "asynchrony",
        help="extension experiment: the algorithms on delayed/asynchronous "
        "network models",
    )
    _add_common(asynchrony)
    asynchrony.set_defaults(func=_cmd_asynchrony)

    report = sub.add_parser(
        "report",
        help="run every experiment and render the Markdown report "
        "(paper vs measured, with shape checks)",
    )
    _add_common(report)
    report.add_argument(
        "-o", "--output", default=None, help="write the report to this file"
    )
    report.add_argument(
        "--extensions",
        action="store_true",
        help="also run the extension experiments (k-sweep, network models)",
    )
    report.set_defaults(func=_cmd_report)

    solve = sub.add_parser(
        "solve", help="solve a DIMACS CNF file as a distributed CSP"
    )
    solve.add_argument("path", help="path to a .cnf file")
    solve.add_argument(
        "--algorithm",
        default="AWC+Rslv",
        help="algorithm label (AWC+<learning>, DB, ABT); default AWC+Rslv",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--max-cycles", type=int, default=10_000)
    solve.add_argument(
        "--backend",
        choices=("sync", "events"),
        default="sync",
        help="what a cycle is (sync: one time unit, events: one "
        "epoch; default sync)",
    )
    solve.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="record the full message/value-change trace and write it "
        "to PATH as JSON Lines",
    )
    _add_store_option(solve)
    _add_retention_option(solve)
    solve.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the trial with cProfile and dump the stats to PATH "
        "('-' prints the top cumulative entries to stdout)",
    )
    solve.set_defaults(func=_cmd_solve)

    generate = sub.add_parser(
        "generate",
        help="generate benchmark instances to disk "
        "(DIMACS graph / CNF formats)",
    )
    generate.add_argument(
        "family", choices=("d3c", "d3s", "d3s1"),
        help="d3c: 3-coloring, d3s: 3SAT-GEN, d3s1: unique-solution 3SAT",
    )
    generate.add_argument("n", type=int, help="variables / nodes")
    generate.add_argument("--count", type=int, default=1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", default="instances")
    generate.set_defaults(func=_cmd_generate)

    lint = sub.add_parser(
        "lint",
        help="check the determinism / isolation / accounting invariants "
        "(see CONTRIBUTING.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/"],
        help="files or directories to lint (default: src/)",
    )
    lint.add_argument("--baseline", default=None)
    lint.add_argument("--write-baseline", action="store_true")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint.add_argument("--output", default=None, metavar="FILE")
    lint.add_argument("--exclude", action="append", default=None)
    lint.add_argument("--check-trace", default=None, metavar="JSONL")
    lint.add_argument("--no-fifo-check", action="store_true")
    lint.set_defaults(func=_cmd_lint)

    verify = sub.add_parser(
        "verify",
        help=(
            "interleaving verifier: handler commutativity matrix and "
            "DPOR schedule exploration of the event runtime"
        ),
    )
    verify.add_argument(
        "--explore",
        action="store_true",
        help="explore delivery schedules on the pinned corpus",
    )
    verify.add_argument(
        "--only", action="append", metavar="ENTRY",
        help="restrict to this corpus entry (repeatable)",
    )
    verify.add_argument(
        "--budget", type=int, default=None,
        help="max schedules the pruned search runs per entry",
    )
    verify.add_argument(
        "--naive-budget", type=int, default=None,
        help="max schedules the naive count runs per entry",
    )
    verify.add_argument(
        "--no-prune", action="store_true",
        help="disable commutativity pruning",
    )
    verify.add_argument(
        "--no-naive", action="store_true",
        help="skip the naive count (invariants only)",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument(
        "--output", default=None, help="also write the JSON report here"
    )
    verify.set_defaults(func=_cmd_verify)

    soak = sub.add_parser(
        "soak",
        help="stream episodes through persistent agent populations "
        "under a nogood budget, one row per retention policy",
    )
    soak.add_argument(
        "--budget",
        type=int,
        default=None,
        help="learned-nogood cap per store for bounded policies "
        "(default 64)",
    )
    soak.add_argument(
        "--policy",
        default=None,
        metavar="SPECS",
        help="comma-separated retention policies "
        "(default keep-all,lru,decay,subsume; bare lru/decay get "
        "the budget as their cap)",
    )
    soak.add_argument(
        "--episodes",
        type=int,
        default=None,
        help="stream length (default 200)",
    )
    soak.add_argument(
        "--pool",
        type=int,
        default=None,
        help="distinct instances the stream cycles through (default 10)",
    )
    soak.add_argument(
        "--family",
        choices=("d3c", "d3s", "d3s1"),
        default="d3c",
        help="problem family of the pool (default d3c)",
    )
    soak.add_argument("--n", type=int, default=20, help="problem size")
    soak.add_argument(
        "--learning",
        default="Rslv",
        help="AWC learning method for the population (default Rslv)",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        help="per-episode cycle cap (default 1000)",
    )
    soak.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="also write the JSON report here",
    )
    _add_store_option(soak)
    soak.set_defaults(func=_cmd_soak)

    # No arguments of its own: main() hands everything after "bench" to
    # repro.experiments.bench, whose parser alone decides what is valid.
    bench = sub.add_parser(
        "bench",
        add_help=False,
        help="smoke benchmarks: trial engine, sync vs events clock, lint "
        "analyzer, interleaving verifier, retention subsystem, handler "
        "allocation churn (writes BENCH_*.json; see 'repro bench --help')",
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.func is _cmd_bench:
        return _cmd_bench(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
