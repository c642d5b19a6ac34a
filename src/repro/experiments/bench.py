"""Smoke benchmarks for the trial engine, the lint analyzer and the verifier.

Runs a fixed quick-scale grid of table cells twice along one axis,
verifies the results are identical, and writes a JSON report with wall
times, the speedup, and nogood-check throughput. ``repro bench`` exposes
it as a CLI subcommand.

Six axes:

* ``--axis workers`` (default) — sequential vs the parallel engine;
  writes ``BENCH_trial_engine.json``.
* ``--axis backend`` — the simulator's sync clock vs its events clock in
  parity mode; identical results are the parity guarantee, the wall-time
  ratio is the cost of counting epochs. Writes
  ``BENCH_event_engine.json``.
* ``--axis lint`` — two full-tree runs of the whole-program repro-lint
  analyzer (``src/`` + ``tests/``); identical findings are the
  determinism guarantee, and the wall time must stay under the 10 s CI
  budget. Writes ``BENCH_lint.json``.
* ``--axis verify`` — the interleaving verifier (:mod:`repro.verify`) on
  its pinned corpus: schedule-exploration throughput, the DPOR prune
  ratio, and zero invariant violations. Writes ``BENCH_verify.json``;
  ``--gate`` fails the run if schedules/sec regressed more than 20%
  against a committed baseline report.
* ``--axis retention`` — the nogood retention subsystem
  (:mod:`repro.retention`): keep-all parity against the retention-free
  default, then the soak stream (:mod:`repro.experiments.soak`) over
  every policy, asserting solution re-verification and budget
  compliance. Writes ``BENCH_kb_memory.json``; ``--gate`` applies the
  20% rule to the soak stream's checks/sec.
* ``--axis alloc`` — per-message allocation churn of the handler hot
  paths: replays the d3c/d3s cells with a ``tracemalloc`` probe around
  every ``initialize``/``step`` call and reports transient bytes per 1k
  delivered messages (the garbage the H1-H4 lint rules police; lower is
  better). Cyclic GC is held off during the instrumented replay, which
  must match the uninstrumented reference bit-for-bit. Writes
  ``BENCH_alloc.json``; ``--gate`` applies the 20% rule as a ceiling.

Usage::

    PYTHONPATH=src python -m repro.cli bench
        [--axis workers|backend|lint|verify|retention|alloc]
        [--jobs N]
        [--output PATH] [--gate [BASELINE]]

The grid is deliberately small (quick-scale sizes, a few seconds per leg)
so CI can afford it; the JSON records the machine's core count, so a
1-core runner reporting speedup ≈ 1/overhead is expected and honest.

This module lives under ``experiments/`` (not ``runtime/`` or
``algorithms/``) deliberately: benchmarking needs wall clocks, which the
repro-lint determinism rules ban inside the simulation layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..algorithms.registry import algorithm_by_name
from ..runtime.metrics import MetricsCollector
from ..runtime.simulator import Simulator
from .paper import instances_for
from .parallel import run_cell_parallel
from .runner import (
    CellResult,
    random_initial_assignment,
    run_cell,
    trial_parameters,
)

#: (family, n, instances, inits, algorithm label) — fixed quick-scale grid.
GRID = (
    ("d3c", 15, 2, 2, "AWC+Rslv"),
    ("d3c", 15, 2, 2, "AWC+No"),
    ("d3s", 12, 2, 2, "AWC+Rslv"),
    ("d3s", 12, 2, 2, "AWC+No"),
    ("d3s1", 10, 2, 2, "AWC+Rslv"),
    ("d3s1", 10, 2, 2, "DB"),
)

MAX_CYCLES = 3_000
MASTER_SEED = 0

#: CI wall-time budget (seconds) for one full-tree lint pass.
LINT_BUDGET_SECONDS = 10.0

#: Maximum tolerated checks/sec regression for ``--gate`` (fraction).
GATE_TOLERANCE = 0.20

#: Fields that must agree between the two legs of an axis.
MEASURE_FIELDS = (
    "solved",
    "cycles",
    "maxcck",
    "total_checks",
    "messages_sent",
    "assignment",
)


def _repo_root() -> Path:
    """The repository root (this file lives at src/repro/experiments/)."""
    return Path(__file__).resolve().parents[3]


def cell_measures(cell):
    return [
        tuple(
            sorted(getattr(trial, name).items())
            if name == "assignment"
            else getattr(trial, name)
            for name in MEASURE_FIELDS
        )
        for trial in cell.trials
    ]


def run_grid(workers: int, backend: str = "sync"):
    """One pass over the grid; returns (per-cell rows, totals)."""
    rows = []
    total_seconds = 0.0
    total_checks = 0
    total_trials = 0
    for family, n, num_instances, inits, label in GRID:
        instances = instances_for(family, n, num_instances, MASTER_SEED)
        spec = algorithm_by_name(label)
        started = time.perf_counter()
        if workers > 1:
            cell = run_cell_parallel(
                instances,
                spec,
                inits_per_instance=inits,
                master_seed=MASTER_SEED,
                n=n,
                max_cycles=MAX_CYCLES,
                workers=workers,
                backend=backend,
            )
        else:
            cell = run_cell(
                instances,
                spec,
                inits_per_instance=inits,
                master_seed=MASTER_SEED,
                n=n,
                max_cycles=MAX_CYCLES,
                workers=1,
                backend=backend,
            )
        elapsed = time.perf_counter() - started
        checks = sum(trial.total_checks for trial in cell.trials)
        rows.append(
            {
                "family": family,
                "n": n,
                "algorithm": label,
                "trials": cell.num_trials,
                "wall_seconds": round(elapsed, 4),
                "mean_cycle": round(cell.mean_cycle, 2),
                "mean_maxcck": round(cell.mean_maxcck, 2),
                "percent_solved": round(cell.percent_solved, 1),
                "total_checks": checks,
                "checks_per_second": round(checks / elapsed) if elapsed else 0,
                "cell": cell,
            }
        )
        total_seconds += elapsed
        total_checks += checks
        total_trials += cell.num_trials
    return rows, {
        "wall_seconds": round(total_seconds, 4),
        "total_checks": total_checks,
        "trials": total_trials,
        "checks_per_second": (
            round(total_checks / total_seconds) if total_seconds else 0
        ),
    }


def run_lint_bench(
    repo_root: Path, output: str, gate: Optional[str] = None
) -> int:
    """Two full-tree lint passes: determinism check + CI wall-time budget.

    A third, selector-driven pass times the distribution-safety rules
    (S1-S5) alone — the pass CI's ``s-rules`` leg runs via ``--only`` —
    so the report carries its analysis time next to the full pass.
    ``--gate`` applies the 20% regression rule to the full-pass wall time
    (a "min" metric: lint getting slower fails the gate).
    """
    from ..lint.engine import DEFAULT_EXCLUDES, iter_python_files, lint_paths
    from ..lint.rules_dist import DIST_RULES

    paths = [str(repo_root / "src"), str(repo_root / "tests")]
    files = list(iter_python_files(paths, excludes=list(DEFAULT_EXCLUDES)))
    passes = []
    findings_per_pass = []
    for _ in range(2):
        started = time.perf_counter()
        findings = lint_paths(
            paths, baseline=None, excludes=list(DEFAULT_EXCLUDES)
        )
        elapsed = time.perf_counter() - started
        passes.append(round(elapsed, 4))
        findings_per_pass.append(
            [finding.format(show_hint=False) for finding in findings]
        )
    if findings_per_pass[0] != findings_per_pass[1]:
        print("FATAL: lint findings diverge between identical passes")
        return 1
    started = time.perf_counter()
    s_findings = lint_paths(
        paths,
        baseline=None,
        excludes=list(DEFAULT_EXCLUDES),
        rules=DIST_RULES,
    )
    s_rules_seconds = round(time.perf_counter() - started, 4)

    # Dynamic half of S1: replay the pinned verify corpus, pickle-round-
    # trip every payload actually sent, and check the observation against
    # the static closure. Both failure modes are hard failures — a payload
    # that does not pickle would only have surfaced on a remote shard.
    from ..verify.boundary_audit import audit_corpus, static_payload_types

    started = time.perf_counter()
    audit = audit_corpus()
    static_types = static_payload_types(str(repo_root / "src"))
    unseen = sorted(audit.observed_types - static_types)
    audit_seconds = round(time.perf_counter() - started, 4)

    slowest = max(passes)
    budget_met = slowest <= LINT_BUDGET_SECONDS
    report = {
        "benchmark": "lint_smoke",
        "paths": ["src/", "tests/"],
        "files_linted": len(files),
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "pass_wall_seconds": passes,
        "pass_wall_max_seconds": slowest,
        "files_per_second": round(len(files) / slowest) if slowest else 0,
        "findings": len(findings_per_pass[0]),
        "s_rules": {
            "rules": [rule.id for rule in DIST_RULES],
            "pass_wall_seconds": s_rules_seconds,
            "findings": len(s_findings),
        },
        "s1_cross_validation": {
            "corpus_entries": audit.entries_run,
            "payloads_round_tripped": audit.payloads_sent,
            "round_trip_failures": len(audit.failures),
            "observed_types": sorted(audit.observed_types),
            "observed_not_in_static_closure": unseen,
            "wall_seconds": audit_seconds,
        },
        "budget_seconds": LINT_BUDGET_SECONDS,
        "budget_met": budget_met,
        "results_identical": True,
        "note": (
            "one whole-program pass parses every file once into a shared "
            "ProjectGraph, then runs the file-local and inter-procedural "
            "rules against it; the budget keeps full-tree linting viable "
            "as a pre-commit hook and a CI gate; s_rules times the "
            "distribution-safety subset CI runs separately via --only; "
            "s1_cross_validation pickle-round-trips every payload the "
            "pinned verify corpus sends and checks it against the static "
            "S1 payload closure"
        ),
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"lint: {len(files)} files, passes {passes[0]:.2f}s / "
        f"{passes[1]:.2f}s (S-rules alone {s_rules_seconds:.2f}s), "
        f"{report['findings']} finding(s), "
        f"budget {LINT_BUDGET_SECONDS:.0f}s "
        f"{'met' if budget_met else 'EXCEEDED'}"
    )
    print(
        f"lint: S1 cross-validation round-tripped {audit.payloads_sent} "
        f"payload(s) over {audit.entries_run} pinned entries, "
        f"{len(audit.failures)} failure(s)"
    )
    print(f"wrote {output}")
    if audit.failures or unseen:
        if audit.failures:
            for failure in audit.failures:
                print(
                    f"FATAL: payload {failure.message_type} from corpus "
                    f"entry '{failure.entry}' failed the pickle "
                    f"round-trip: {failure.error}"
                )
        if unseen:
            print(
                "FATAL: runtime sent payload types outside the static S1 "
                f"closure: {', '.join(unseen)}"
            )
        return 1
    if not budget_met:
        print(
            f"FATAL: full-tree lint took {slowest:.2f}s, over the "
            f"{LINT_BUDGET_SECONDS:.0f}s budget"
        )
        return 1
    if gate is not None:
        metric_path, label, direction = GATE_METRICS["lint"]
        return check_gate(gate, slowest, metric_path, label, direction)
    return 0


# -- the retention axis ---------------------------------------------------------

#: Soak-stream shape for ``--axis retention`` (kept small for CI).
RETENTION_SOAK_EPISODES = 40
RETENTION_SOAK_POOL = 4
RETENTION_SOAK_N = 15
RETENTION_SOAK_BUDGET = 32
RETENTION_SOAK_CYCLES = 500

#: Grid cells re-run for the keep-all parity leg (a subset of GRID).
RETENTION_PARITY_GRID = GRID[:2] + GRID[2:3]


def run_retention_bench(output: str, gate: Optional[str]) -> int:
    """The ``--axis retention`` benchmark: policy parity + the soak stream.

    Two load-bearing properties, asserted rather than merely reported:

    * ``retention=None`` and ``retention="keep-all"`` reproduce each
      other bit-identically on real table cells (the paper's
      record-forever behaviour is the literal default code path);
    * the soak stream solves with every solution re-verified against the
      original constraints, and bounded policies never exceed the
      nogood budget.

    The gated throughput metric is the soak stream's counted checks per
    second — the end-to-end cost of consulting bounded knowledge bases.
    """
    from .soak import DEFAULT_POLICIES, run_soak

    print(
        f"bench: retention axis — {len(RETENTION_PARITY_GRID)} "
        "parity cells, then the soak stream over "
        f"{len(DEFAULT_POLICIES)} policies"
    )
    parity_cells = []
    for family, n, num_instances, inits, label in RETENTION_PARITY_GRID:
        instances = instances_for(family, n, num_instances, MASTER_SEED)
        spec = algorithm_by_name(label)
        legs = {}
        for leg, retention in (("default", None), ("keep-all", "keep-all")):
            cell = run_cell(
                instances,
                spec,
                inits_per_instance=inits,
                master_seed=MASTER_SEED,
                n=n,
                max_cycles=MAX_CYCLES,
                workers=1,
                retention=retention,
            )
            legs[leg] = cell_measures(cell)
        name = f"{family}-n{n}-{label}"
        if legs["default"] != legs["keep-all"]:
            print(f"FATAL: keep-all diverges from the default on {name}")
            return 1
        parity_cells.append(name)
    print(
        f"parity: keep-all == default on {len(parity_cells)} cells"
    )

    started = time.perf_counter()
    soak = run_soak(
        policies=DEFAULT_POLICIES,
        budget=RETENTION_SOAK_BUDGET,
        episodes=RETENTION_SOAK_EPISODES,
        pool=RETENTION_SOAK_POOL,
        n=RETENTION_SOAK_N,
        max_cycles=RETENTION_SOAK_CYCLES,
        seed=MASTER_SEED,
    )
    elapsed = time.perf_counter() - started
    if not soak.all_verified:
        print("FATAL: a solved soak episode failed solution re-verification")
        return 1
    if not soak.all_within_budget:
        print(
            f"FATAL: a bounded policy exceeded the "
            f"{RETENTION_SOAK_BUDGET}-nogood budget"
        )
        return 1
    total_checks = sum(row.total_checks for row in soak.policies)
    checks_per_second = round(total_checks / elapsed) if elapsed else 0

    report = {
        "benchmark": "kb_memory",
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "parity": {
            "cells": parity_cells,
            "legs": ["default", "keep-all"],
            "results_identical": True,
        },
        "soak": {
            **soak.to_json(),
            "wall_seconds": round(elapsed, 4),
            "total_checks": total_checks,
            "checks_per_second": checks_per_second,
        },
        "results_identical": True,
        "note": (
            "parity reruns real table cells asserting keep-all == the "
            "retention-free default (bit-identical); the soak leg streams "
            "episodes through persistent agent populations "
            "under a nogood budget, re-verifying every solution and "
            "asserting bounded policies stay within budget — "
            "checks_per_second is the gated end-to-end throughput"
        ),
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(soak.format_text())
    print(
        f"soak: {elapsed:.2f}s, {total_checks:,} checks "
        f"({checks_per_second:,} checks/s)"
    )
    print(f"wrote {output}")
    if gate is not None:
        metric_path, label, direction = GATE_METRICS["retention"]
        return check_gate(
            gate, checks_per_second, metric_path, label, direction
        )
    return 0


def run_verify_bench(output: str, gate: Optional[str]) -> int:
    """``--axis verify``: the interleaving verifier as a benchmark.

    Explores the pinned corpus (pruned DFS + capped naive count) and
    reports schedule throughput and the prune ratio. Two properties are
    load-bearing and asserted here rather than merely reported: zero
    invariant violations, and at least a 10x prune ratio (the static
    commutativity matrix must keep paying for itself as the corpus and
    the agent code evolve).
    """
    from ..verify.explorer import explore_corpus

    report_data = explore_corpus()
    schedules_per_second = report_data.schedules_per_second
    report = {
        "benchmark": "verify_smoke",
        "python": platform.python_version(),
        "cores": os.cpu_count() or 1,
        "verify": {
            "schedules_per_second": round(schedules_per_second, 1),
            "prune_ratio": round(report_data.prune_ratio, 2),
            "explored": report_data.explored,
            "naive": report_data.naive,
            "total_runs": report_data.total_runs,
            "violations": report_data.violations,
            "entries": [entry.as_dict() for entry in report_data.entries],
        },
        "note": (
            "DPOR exploration of the pinned n<=8 corpus: 'explored' counts "
            "schedules the pruned search ran, 'naive' the unpruned "
            "enumeration (capped at 15x explored, so a capped prune_ratio "
            "is a lower bound); schedules_per_second counts every "
            "simulation run, including the naive walk"
        ),
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"verify: {report_data.explored} schedules explored "
        f"({report_data.total_runs} runs), prune ratio "
        f"{report_data.prune_ratio:.1f}x, "
        f"{schedules_per_second:,.0f} schedules/s"
    )
    print(f"wrote {output}")
    if report_data.violations:
        for violation in report_data.violations:
            print(f"FATAL: invariant violation: {violation}")
        return 1
    if report_data.prune_ratio < 10.0:
        print(
            f"FATAL: prune ratio {report_data.prune_ratio:.1f}x fell "
            "below the 10x bar — the commutativity matrix is no longer "
            "pruning effectively"
        )
        return 1
    if gate is not None:
        metric_path, label, direction = GATE_METRICS["verify"]
        return check_gate(
            gate, schedules_per_second, metric_path, label, direction
        )
    return 0


# -- the alloc axis -------------------------------------------------------------

#: The d3c/d3s cells replayed for per-message allocation accounting.
ALLOC_GRID = GRID[:4]

#: Pre-remediation reference for the alloc axis, measured on this tree
#: immediately before the H1-H4 fixes (same grid, same seeds, same
#: probe). Committed so ``BENCH_alloc.json`` can report the reduction the
#: fixes bought without needing to check out the old tree.
ALLOC_PRE_FIX_REFERENCE = {
    "transient_bytes_per_1k_messages": 391277.0,
    "python": "3.11.7",
    "note": (
        "measured before the H1-H4 remediation: hoisted hot-path lambdas, "
        "cached domain/recipient/nogood-variable views, count-based store "
        "consultation instead of throwaway violation lists, reusable "
        "candidate scratch buffers, and a tuple-free priority-key miss path"
    ),
}


class _AllocProbe:
    """Accumulates transient allocation across instrumented handler calls.

    ``wrap()`` shadows an agent's ``initialize``/``step`` bound methods
    with closures that bracket the call in ``tracemalloc.reset_peak()`` /
    ``get_traced_memory()``. ``peak - current`` after the call is the
    memory that existed at some point during the handler but not at its
    end — i.e. the per-message garbage H1-H4 police. Retained allocation
    (nogoods entering the store) appears in both terms and cancels out.
    """

    def __init__(self) -> None:
        self.handler_calls = 0
        self.delivered_messages = 0
        self.transient_bytes = 0

    def wrap(self, agent) -> None:
        probe = self
        inner_initialize = agent.initialize
        inner_step = agent.step

        def initialize():
            probe.handler_calls += 1
            tracemalloc.reset_peak()
            result = inner_initialize()
            current, peak = tracemalloc.get_traced_memory()
            probe.transient_bytes += peak - current
            return result

        def step(messages):
            probe.handler_calls += 1
            probe.delivered_messages += len(messages)
            tracemalloc.reset_peak()
            result = inner_step(messages)
            current, peak = tracemalloc.get_traced_memory()
            probe.transient_bytes += peak - current
            return result

        agent.initialize = initialize
        agent.step = step


def _run_alloc_trial(problem, spec, seed, probe: _AllocProbe):
    """One instrumented trial; mirrors ``runner.run_trial`` (sync/dict)."""
    metrics = MetricsCollector()
    initial = random_initial_assignment(problem, seed)
    agents = spec.build(problem, metrics, seed, initial)
    for agent in agents:
        probe.wrap(agent)
    simulator = Simulator(
        problem,
        agents,
        max_cycles=MAX_CYCLES,
        metrics=metrics,
    )
    return simulator.run()


def _run_alloc_leg(instances, spec, num_instances: int, inits: int):
    """The instrumented replay of one cell: ``(probe, trial results)``.

    Cyclic garbage collection is flushed, then held off for the whole leg.
    A collection pass that lands inside a handler frees garbage left by
    earlier handlers, so the handler's ``peak - current`` would count
    memory it never allocated — and where the passes land depends on
    allocation anywhere else in the process, not on the handler.
    """
    probe = _AllocProbe()
    trials = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for instance_index, _init_index, seed in trial_parameters(
            num_instances, inits, MASTER_SEED
        ):
            trials.append(
                _run_alloc_trial(instances[instance_index], spec, seed, probe)
            )
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    return probe, trials


def run_alloc_bench(output: str, gate: Optional[str]) -> int:
    """``--axis alloc``: allocation churn per 1k delivered messages.

    Replays the d3c/d3s cells twice: once uninstrumented (the reference),
    once with every handler call bracketed by a :class:`_AllocProbe`. The
    probe is purely observational, so the instrumented leg must reproduce
    the reference results bit-for-bit — a divergence means the probe (or
    an allocation "fix") changed behaviour, and the run fails. The
    headline metric is transient bytes per 1k delivered messages (lower
    is better); the committed :data:`ALLOC_PRE_FIX_REFERENCE` turns it
    into the reduction the H1-H4 remediation bought.
    """
    print(
        f"bench: alloc axis — {len(ALLOC_GRID)} d3c/d3s cells, "
        "tracemalloc transient probe around every handler call"
    )
    rows = []
    mismatches = []
    totals = {
        "handler_calls": 0,
        "delivered_messages": 0,
        "transient_bytes": 0,
    }
    for family, n, num_instances, inits, label in ALLOC_GRID:
        instances = instances_for(family, n, num_instances, MASTER_SEED)
        spec = algorithm_by_name(label)
        reference_cell = run_cell(
            instances,
            spec,
            inits_per_instance=inits,
            master_seed=MASTER_SEED,
            n=n,
            max_cycles=MAX_CYCLES,
            workers=1,
        )
        probe, trials = _run_alloc_leg(instances, spec, num_instances, inits)
        instrumented_cell = CellResult(label=label, n=n, trials=trials)
        if cell_measures(reference_cell) != cell_measures(instrumented_cell):
            mismatches.append(f"{family}-n{n}-{label}")
        per_1k = (
            probe.transient_bytes * 1000.0 / probe.delivered_messages
            if probe.delivered_messages
            else 0.0
        )
        rows.append(
            {
                "family": family,
                "n": n,
                "algorithm": label,
                "trials": len(trials),
                "handler_calls": probe.handler_calls,
                "delivered_messages": probe.delivered_messages,
                "transient_bytes": probe.transient_bytes,
                "transient_bytes_per_1k_messages": round(per_1k, 1),
            }
        )
        for key in totals:
            totals[key] += getattr(probe, key)
    if mismatches:
        print(
            "FATAL: instrumented replay diverges from the reference run: "
            f"{mismatches}"
        )
        return 1
    bytes_per_1k = (
        totals["transient_bytes"] * 1000.0 / totals["delivered_messages"]
        if totals["delivered_messages"]
        else 0.0
    )
    reference_per_1k = ALLOC_PRE_FIX_REFERENCE[
        "transient_bytes_per_1k_messages"
    ]
    reduction = (
        1.0 - bytes_per_1k / reference_per_1k if reference_per_1k else 0.0
    )
    report = {
        "benchmark": "alloc_smoke",
        "grid": [
            {
                "family": family,
                "n": n,
                "instances": instances,
                "inits": inits,
                "algorithm": label,
            }
            for family, n, instances, inits, label in ALLOC_GRID
        ],
        "max_cycles": MAX_CYCLES,
        "master_seed": MASTER_SEED,
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "cells": rows,
        "alloc": {
            **totals,
            "transient_bytes_per_1k_messages": round(bytes_per_1k, 1),
        },
        "pre_fix_reference": ALLOC_PRE_FIX_REFERENCE,
        "reduction_vs_pre_fix": round(reduction, 3),
        "results_identical": True,
        "note": (
            "transient bytes = tracemalloc peak minus surviving bytes per "
            "handler call, summed over the replay and normalised per 1k "
            "delivered messages; it counts per-message garbage (temporary "
            "containers, sort copies, closures) while retained state "
            "(nogoods entering the store) cancels out. Deterministic for "
            "a fixed Python version; lower is better"
        ),
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"alloc: {totals['delivered_messages']:,} messages over "
        f"{totals['handler_calls']:,} handler calls, "
        f"{bytes_per_1k:,.0f} transient bytes/1k msgs "
        f"({reduction:.1%} below the pre-fix reference)"
    )
    print(f"wrote {output}")
    if gate is not None:
        metric_path, metric_label, direction = GATE_METRICS["alloc"]
        return check_gate(gate, bytes_per_1k, metric_path, metric_label,
                          direction)
    return 0


#: Where each gated axis keeps its metric in its report, and which
#: direction is "better" ("max": higher, gate is a floor; "min": lower,
#: gate is a ceiling).
GATE_METRICS: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "lint": (
        ("pass_wall_max_seconds",),
        "full-tree lint wall seconds",
        "min",
    ),
    "verify": (
        ("verify", "schedules_per_second"),
        "verify schedules/sec",
        "max",
    ),
    "retention": (
        ("soak", "checks_per_second"),
        "retention soak checks/sec",
        "max",
    ),
    "alloc": (
        ("alloc", "transient_bytes_per_1k_messages"),
        "transient bytes/1k messages",
        "min",
    ),
}


def check_gate(
    baseline_path: str,
    measured: float,
    metric_path: Tuple[str, ...],
    label: str,
    direction: str,
) -> int:
    """Fail if *measured* regressed >20% against the committed baseline.

    ``direction`` says which way is better: ``"max"`` metrics (throughput)
    gate on a floor 20% below the baseline, ``"min"`` metrics (allocation
    churn) on a ceiling 20% above it.

    A gate was explicitly requested, so a baseline that cannot be read is
    an error, never a silent skip — one line, no traceback.
    """
    path = Path(baseline_path)
    if not path.exists():
        print(f"FATAL: gate baseline {baseline_path} does not exist")
        return 1
    try:
        baseline = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        print(f"FATAL: gate baseline {baseline_path} is unreadable: {error}")
        return 1
    try:
        value: object = baseline
        for key in metric_path:
            value = value[key]  # type: ignore[index]
        baseline_value = float(value)  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError):
        print(
            f"FATAL: gate baseline {baseline_path} has no "
            f"{'.'.join(metric_path)} metric"
        )
        return 1
    if direction == "min":
        bound = baseline_value * (1.0 + GATE_TOLERANCE)
        bound_name = "ceiling"
        regressed = measured > bound
    else:
        bound = baseline_value * (1.0 - GATE_TOLERANCE)
        bound_name = "floor"
        regressed = measured < bound
    print(
        f"gate: measured {measured:,.0f} vs baseline "
        f"{baseline_value:,.0f} {label} ({bound_name} {bound:,.0f})"
    )
    if regressed:
        print(
            f"FATAL: {label} regressed more than "
            f"{GATE_TOLERANCE:.0%} vs {baseline_path}"
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--axis",
        choices=(
            "workers", "backend", "lint", "verify", "retention", "alloc",
        ),
        default="workers",
        help="what to compare: sequential vs parallel execution, the "
        "sync vs events clocks (both legs sequential), two "
        "passes of the whole-program lint analyzer, the interleaving "
        "verifier's schedule-exploration throughput, the nogood "
        "retention subsystem's parity and soak stream, or the "
        "per-message allocation churn of the handler hot paths",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for the parallel leg of --axis workers "
        "(default: min(4, cores))",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report (default: "
        "BENCH_trial_engine.json / BENCH_event_engine.json / "
        "BENCH_lint.json / BENCH_verify.json / BENCH_kb_memory.json / "
        "BENCH_alloc.json by axis)",
    )
    parser.add_argument(
        "--gate",
        nargs="?",
        const="",
        default=None,
        metavar="BASELINE",
        help="(--axis lint/verify/retention/alloc) fail if the "
        "axis's metric regresses more than 20%% against the BASELINE "
        "report (default: the committed BENCH_lint.json / "
        "BENCH_verify.json / BENCH_kb_memory.json / BENCH_alloc.json)",
    )
    args = parser.parse_args(argv)
    cores = os.cpu_count() or 1
    jobs = args.jobs if args.jobs is not None else min(4, cores)
    repo_root = _repo_root()

    if args.axis == "lint":
        output = args.output or str(repo_root / "BENCH_lint.json")
        gate = args.gate
        if gate == "":
            gate = str(repo_root / "BENCH_lint.json")
        return run_lint_bench(repo_root, output, gate)

    if args.axis == "verify":
        output = args.output or str(repo_root / "BENCH_verify.json")
        gate = args.gate
        if gate == "":
            gate = str(repo_root / "BENCH_verify.json")
        return run_verify_bench(output, gate)

    if args.axis == "alloc":
        output = args.output or str(repo_root / "BENCH_alloc.json")
        gate = args.gate
        if gate == "":
            gate = str(repo_root / "BENCH_alloc.json")
        return run_alloc_bench(output, gate)

    if args.axis == "retention":
        output = args.output or str(repo_root / "BENCH_kb_memory.json")
        gate = args.gate
        if gate == "":
            gate = str(repo_root / "BENCH_kb_memory.json")
        return run_retention_bench(output, gate)

    if args.axis == "backend":
        output = args.output or str(repo_root / "BENCH_event_engine.json")
        print(
            f"bench: {len(GRID)} cells, sync clock vs "
            "events clock (parity mode, sequential)"
        )
        baseline_name, candidate_name = "sync", "events"
        baseline_rows, baseline_totals = run_grid(workers=1, backend="sync")
        candidate_rows, candidate_totals = run_grid(
            workers=1, backend="events"
        )
        benchmark = "event_engine_smoke"
        diverge_message = "events-clock results diverge from sync (parity)"
        note = (
            "both legs are sequential; identical results are the parity "
            "guarantee of the unit-latency medium, and the speedup "
            "(sync wall time / events wall time) is the events clock's "
            "overhead relative to lockstep cycles"
        )
        extra = {}
    else:
        output = args.output or str(repo_root / "BENCH_trial_engine.json")
        print(
            f"bench: {len(GRID)} cells, sequential vs {jobs} workers "
            f"({cores} cores available)"
        )
        baseline_name, candidate_name = "sequential", "parallel"
        baseline_rows, baseline_totals = run_grid(workers=1)
        candidate_rows, candidate_totals = run_grid(workers=jobs)
        benchmark = "trial_engine_smoke"
        diverge_message = "parallel results diverge from sequential"
        note = (
            "speedup is bounded by physical cores: with "
            f"{cores} core(s) available, {jobs} workers can at best "
            f"approach {min(jobs, cores)}x minus pool overhead"
        )
        extra = {"workers": jobs}

    mismatches = [
        f"{s['family']}-n{s['n']}-{s['algorithm']}"
        for s, p in zip(baseline_rows, candidate_rows)
        if cell_measures(s.pop("cell")) != cell_measures(p.pop("cell"))
    ]
    if mismatches:
        print(f"FATAL: {diverge_message}: {mismatches}")
        return 1

    speedup = (
        baseline_totals["wall_seconds"] / candidate_totals["wall_seconds"]
        if candidate_totals["wall_seconds"]
        else 0.0
    )
    report = {
        "benchmark": benchmark,
        "grid": [
            {
                "family": family,
                "n": n,
                "instances": instances,
                "inits": inits,
                "algorithm": label,
            }
            for family, n, instances, inits, label in GRID
        ],
        "max_cycles": MAX_CYCLES,
        "master_seed": MASTER_SEED,
        "machine": {
            "cpu_count": cores,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        **extra,
        baseline_name: {"cells": baseline_rows, "totals": baseline_totals},
        candidate_name: {"cells": candidate_rows, "totals": candidate_totals},
        "speedup": round(speedup, 3),
        "results_identical": True,
        "note": note,
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"{baseline_name} {baseline_totals['wall_seconds']:.2f}s "
        f"({baseline_totals['checks_per_second']:,} checks/s), "
        f"{candidate_name} {candidate_totals['wall_seconds']:.2f}s "
        f"({candidate_totals['checks_per_second']:,} checks/s), "
        f"speedup {speedup:.2f}x"
    )
    print(f"wrote {output}")
    return 0
