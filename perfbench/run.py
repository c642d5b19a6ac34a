#!/usr/bin/env python3
"""Paper-scale end-to-end benchmark of the repro package, one workload a run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload d3c-awc-rslv [--seed 0] \
        [--seconds 20] [--trace 0|1]

A run sets up the workload (``import repro`` plus instance generation into
an empty cache, in a fresh interpreter, several times), warms up, then runs
the workload's pinned trial list, in an order drawn from the seed, through
``repro.experiments.runner.run_trial`` pass after pass for ``--seconds``,
one trial at a time in this process. Every trial is checked (see ``checks.py``). ``--trace 1`` adds one
traced pass that reports the per-layer split (see ``spans.py``). The
end-to-end times are in seconds at a reference speed of the machine (see
``reference.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer ones with ``--trace 1``). The lines before it print every metric
with its unit and the run manifest; the full report goes to
``.perfbench-out/``. The exit code is 0 only when every check passed.

The workload names, the metrics' names and units and the default
``--seconds`` come from the root ``BENCHMARK.json``; how each workload runs
is in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from checks import (
    Invariants,
    describe_mismatch,
    invariants_of,
    load_pins,
    mismatched_trials,
)
from reference import SpeedSampler, Stopwatch, reference_work, scaled
from spans import SpanAggregator, layer_targets, traced_layers
from summary import median
from workloads import CORPUS_SEED, DEFAULT_SEED, STORE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh REPRO_CACHE_DIRs live here for the length of one run.
SCRATCH = ROOT / ".perfbench-tmp"
OUTPUT = ROOT / ".perfbench-out"

#: The benchmark's declaration: workloads, metrics, units and bounds.
DEFINITION: Dict[str, Any] = json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
)
RUN_SECONDS = DEFINITION["run_seconds"]
END_TO_END = [metric["name"] for metric in DEFINITION["end_to_end"]]
PER_LAYER = [metric["name"] for metric in DEFINITION["per_layer"]]
UNITS = {
    metric["name"]: metric["unit"]
    for metric in DEFINITION["end_to_end"] + DEFINITION["per_layer"]
}

#: Fresh-interpreter set-ups per run, one before the passes and one after
#: each pass until all are taken; setup_s is their median (see README.md,
#: "Steadiness").
SETUP_REPEATS = 10
#: Allowed |traced wall - sum of per-layer self times|, as a share of the
#: traced wall time: only the benchmark's own loop runs outside the spans.
UNATTRIBUTED_TOLERANCE = 0.01


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


# -- trial lists ----------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    """One pass over (part of) a workload's trial list."""

    label: str
    #: Stream index -> the trial's invariants / wall seconds.
    invariants: Dict[int, Invariants] = dataclasses.field(default_factory=dict)
    walls: Dict[int, float] = dataclasses.field(default_factory=dict)
    #: Stream index -> the mean time of a reference slice during the trial
    #: (see ``reference.py``); empty for a pass timed without slices.
    references: Dict[int, float] = dataclasses.field(default_factory=dict)
    #: Stream index -> why the trial failed: it raised, its ``solved``
    #: disagreed with ``DisCSP.is_solution``, or it broke a pinned invariant.
    failed: Dict[int, str] = dataclasses.field(default_factory=dict)
    #: Untimed seconds: collecting garbage between trials, and the
    #: reference slices.
    untimed_s: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def scaled_walls(self) -> Dict[int, float]:
        """Each trial's wall time at the reference speed."""
        return {
            index: scaled(wall, self.references[index])
            for index, wall in self.walls.items()
        }

    @property
    def cycles(self) -> int:
        return sum(trial[1] for trial in self.invariants.values())

    def compare(self, reference: Sequence[Invariants], what: str) -> None:
        observed = [self.invariants.get(index) for index in range(len(reference))]
        for index in mismatched_trials(observed, reference):
            got = observed[index]
            detail = (
                describe_mismatch(got, reference[index])
                if got is not None
                else "not run"
            )
            self.failed.setdefault(index, f"{what}: {detail}")


def generate_instances(workload: Workload) -> Sequence[Any]:
    from repro.experiments.paper import instances_for

    return instances_for(
        workload.family, workload.n, workload.instances, CORPUS_SEED
    )


def run_pass(
    label: str,
    workload: Workload,
    instances: Sequence[Any],
    order: Sequence[int],
    cap: Optional[int] = None,
    algorithm: Any = None,
    trial: Optional[Callable[..., Any]] = None,
    timer: Callable[[], Stopwatch] = SpeedSampler,
) -> Pass:
    """Run trials of the workload's stream in *order*, checking each.

    Trial ``k`` solves instance ``k % len(instances)`` from the initial
    values of ``derive_seed(master, "trial", k)`` (see ``workloads.py``),
    cut at *cap* cycles (default: the workload's ``trial_cycles``). Each
    trial starts from a collected heap, so the garbage of the trials before
    it does not decide when its own collections run. Each trial is timed
    with *timer*: by default, interleaved with reference slices that
    measure the machine's speed (see ``reference.py``).
    """
    from repro.algorithms.registry import algorithm_by_name
    from repro.experiments.runner import run_trial
    from repro.runtime.random_source import derive_seed

    algorithm = algorithm or algorithm_by_name(workload.algorithm)
    trial = trial or run_trial
    master = derive_seed(
        CORPUS_SEED, workload.family, workload.n, workload.algorithm
    )
    cap = cap or workload.trial_cycles
    result = Pass(label)
    for index in order:
        problem = instances[index % len(instances)]
        collecting = time.perf_counter()
        gc.collect()
        result.untimed_s += time.perf_counter() - collecting
        try:
            with timer() as watch:
                outcome = trial(
                    problem,
                    algorithm,
                    derive_seed(master, "trial", index),
                    max_cycles=cap,
                    backend=workload.backend,
                    store=STORE,
                    retention=workload.retention,
                )
        except Exception:  # a raising trial is a failed trial; report it
            traceback.print_exc(file=sys.stderr)
            result.failed[index] = "raised"
            break
        result.untimed_s += watch.spent
        if watch.slices:
            result.references[index] = watch.spent / watch.slices
        result.walls[index] = watch.work_s
        result.invariants[index] = invariants_of(outcome)
        # The run's own detector said whether its final assignment solves
        # the problem; the problem's full check must agree, cut or not.
        if problem.is_solution(outcome.assignment) != outcome.solved:
            result.failed[index] = (
                f"solved={outcome.solved} but DisCSP.is_solution disagrees"
            )
    return result


def median_trials(passes: Sequence[Pass]) -> Dict[int, float]:
    """Each trial's median time at the reference speed over the passes.

    The reference slices cancel how fast the shared machine ran during the
    trial; the median over passes drops what they miss (see README.md,
    "Steadiness").
    """
    times: Dict[int, List[float]] = {}
    for measured in passes:
        for index, wall in measured.scaled_walls.items():
            times.setdefault(index, []).append(wall)
    return {index: median(walls) for index, walls in times.items()}


# -- set-up ----------------------------------------------------------------------


@contextmanager
def scratch_directory(prefix: str) -> Iterator[Path]:
    """A fresh directory under SCRATCH, removed with everything in it."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def fresh_cache(directory: Path) -> None:
    """Point instance generation at an empty cache, in memory and on disk."""
    from repro.experiments import paper

    for generator in (
        paper.coloring_instances,
        paper.sat_instances,
        paper.onesat_instances,
    ):
        generator.cache_clear()
    os.environ["REPRO_CACHE_DIR"] = str(directory)


def setup_probe(workload: Workload) -> int:
    """Child mode: time ``import repro`` plus instance generation, and
    print it at the reference speed."""
    reference_work()  # the first run in a fresh interpreter is slower
    with SpeedSampler() as watch:
        sys.path.insert(0, str(SRC))
        import repro  # noqa: F401  (the import is what is timed)

        generate_instances(workload)
    print(watch.scaled_s)
    return 0


def measure_setup(workload: Workload, scratch: Path, repeats: int) -> List[float]:
    """*repeats* set-ups, each in a fresh interpreter and an empty cache,
    in seconds at the reference speed."""
    times = []
    for _ in range(repeats):
        cache = tempfile.mkdtemp(prefix="setup-", dir=scratch)
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload.name,
            ],
            env=env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if completed.returncode != 0:
            raise BenchmarkError(
                f"set-up probe failed:\n{completed.stderr.strip()}"
            )
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return times


# -- the traced pass -------------------------------------------------------------


def traced_pass(
    workload: Workload, order: Sequence[int], scratch: Path
) -> Dict[str, Any]:
    """Regenerate the instances and run one pass with every layer wrapped."""
    from repro.algorithms.registry import algorithm_by_name
    from repro.experiments.runner import run_trial

    fresh_cache(scratch / "traced")
    algorithm = algorithm_by_name(workload.algorithm)
    aggregator = SpanAggregator()
    built: List[Sequence[Any]] = []

    def build(*args: Any) -> Sequence[Any]:
        agents = algorithm.build(*args)
        built.append(agents)
        return agents

    traced_algorithm = dataclasses.replace(
        algorithm, build=aggregator.wrap(build, "algorithms.build")
    )
    with traced_layers(aggregator, layer_targets()):
        started = time.perf_counter()
        instances = aggregator.wrap(generate_instances, "problems.generate")(
            workload
        )
        # No reference slices: their time would land inside the spans.
        result = run_pass(
            "traced",
            workload,
            instances,
            order,
            algorithm=traced_algorithm,
            trial=aggregator.wrap(run_trial, "experiments.run_trial"),
            timer=Stopwatch,
        )
        finished = time.perf_counter()
    return {
        "pass": result,
        "aggregator": aggregator,
        "agents": built,
        # The work between trials is the benchmark's, not a layer's.
        "wall": finished - started - result.untimed_s,
    }


def layer_metrics(
    traced: Dict[str, Any], untraced_wall: float
) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.

    *untraced_wall* is the median untraced pass wall of the same trial list,
    timed as the traced pass's trials are (the sum of the ``run_trial``
    calls), so ``trace.overhead_s`` compares like with like.
    """
    spans: SpanAggregator = traced["aggregator"]
    self_time, calls = spans.self_time, spans.calls
    stores = [agent.store for agents in traced["agents"] for agent in agents]
    hits = sum(store.key_cache_hits for store in stores)
    misses = sum(store.key_cache_misses for store in stores)
    interners = {
        id(store.interner): store.interner
        for store in stores
        if store.interner is not None
    }.values()
    interned = [interner.stats() for interner in interners]
    intern_hits = sum(stats["hits"] for stats in interned)
    intern_total = intern_hits + sum(stats["misses"] for stats in interned)
    trials = traced["pass"].invariants.values()
    generated = sum(trial[5] for trial in trials)
    redundant = sum(trial[6] for trial in trials)
    return {
        "store.consult_s": self_time["store.read"]
        + self_time["store.read_keyed"],
        "store.consult_calls": calls["store.read"] + calls["store.read_keyed"],
        "store.keyed_calls": calls["store.read_keyed"],
        "store.key_cache_hit_rate": hits / (hits + misses)
        if hits + misses
        else 0.0,
        "store.write_s": self_time["store.add"] + self_time["store.remove"],
        "store.adds": calls["store.add"],
        "store.removes": calls["store.remove"],
        "store.nogoods_peak": max((len(store) for store in stores), default=0),
        "store.checks": sum(store.counter.total for store in stores),
        "retention.policy_s": self_time["retention.on_add"],
        "retention.evictions": sum(store.evictions for store in stores),
        "retention.interner_hit_rate": intern_hits / intern_total
        if intern_total
        else 0.0,
        "learning.make_nogood_s": self_time["learning.make_nogood"],
        "learning.nogoods": generated,
        "learning.useful_ratio": 1 - redundant / generated if generated else 0.0,
        "algorithms.step_self_s": self_time["algorithms.step"],
        "algorithms.steps": calls["algorithms.step"],
        "algorithms.build_s": self_time["algorithms.build"],
        "runtime.route_s": self_time["runtime.send"]
        + self_time["runtime.deliver"],
        "runtime.messages": calls["runtime.send"],
        "runtime.detect_s": self_time["runtime.detect"],
        "runtime.loop_self_s": self_time["runtime.loop"],
        "events.transport_s": self_time["events.send"]
        + self_time["events.pop_due"],
        "events.epochs": calls["events.pop_due"],
        "events.loop_self_s": self_time["events.loop"],
        "problems.generate_s": self_time["problems.generate"],
        "solvers.certify_s": self_time["solvers.certify"],
        "experiments.trial_self_s": self_time["experiments.run_trial"],
        "trace.wall_s": traced["wall"],
        "trace.overhead_s": traced["pass"].wall - untraced_wall,
        "trace.unattributed_s": traced["wall"] - sum(self_time.values()),
    }


def trace_self_checks(
    traced: Dict[str, Any], metrics: Dict[str, float]
) -> List[str]:
    """The trace must account for the time and counts the program reports."""
    problems = []
    if abs(metrics["trace.unattributed_s"]) > UNATTRIBUTED_TOLERANCE * (
        metrics["trace.wall_s"]
    ):
        problems.append(
            f"per-layer self times miss {metrics['trace.unattributed_s']:.4f} s"
            f" of {metrics['trace.wall_s']:.4f} s traced"
        )
    trials = traced["pass"].invariants.values()
    sent = sum(trial[4] for trial in trials)
    spanned = metrics["runtime.messages"] + traced["aggregator"].calls[
        "events.send"
    ]
    if spanned != sent:
        problems.append(f"{spanned} send spans for {sent} messages sent")
    checks = sum(trial[3] for trial in trials)
    if metrics["store.checks"] != checks:
        problems.append(
            f"store counters total {metrics['store.checks']} checks, "
            f"trials report {checks}"
        )
    return problems


# -- reporting -------------------------------------------------------------------


def git_sha() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            # Never read a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def manifest(
    workload: Workload, seed: int, order: Sequence[int], passes: int
) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "corpus_seed": CORPUS_SEED,
        "workload": workload.name,
        **workload.manifest(),
        "passes": passes,
        "trial_order": [
            {"trial": index, "instance": index % workload.instances}
            for index in order
        ],
    }


# -- the run ---------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (compiles bytecode before the set-up probes)

    try:
        reference = load_pins()[workload.pin_key]
    except (OSError, KeyError) as error:
        raise BenchmarkError(f"no pinned trial list: {error!r}") from error
    if len(reference) != workload.trials:
        raise BenchmarkError(
            f"pins.json holds {len(reference)} trials of {workload.pin_key}, "
            f"the workload runs {workload.trials}: re-run pin.py"
        )
    order = list(range(workload.trials))
    random.Random(seed).shuffle(order)
    with scratch_directory(workload.name) as scratch:
        setup_times = measure_setup(workload, scratch, 1)
        fresh_cache(scratch / "main")
        instances = generate_instances(workload)
        warmup = run_pass(
            "warm-up", workload, instances, order[:1], workload.warmup_cycles
        )
        # Passes continue while the next one, as long as the last, still
        # ends within --seconds of pass time: a run measures about
        # --seconds, and at least one pass. A set-up probe follows each
        # pass, outside that budget, so the probes spread over the run.
        passes: List[Pass] = []
        pass_time = last = 0.0
        while not passes or pass_time + last <= seconds:
            started = time.perf_counter()
            passes.append(
                run_pass(f"pass {len(passes) + 1}", workload, instances, order)
            )
            last = time.perf_counter() - started
            pass_time += last
            if len(setup_times) < SETUP_REPEATS:
                setup_times += measure_setup(workload, scratch, 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += measure_setup(
            workload, scratch, SETUP_REPEATS - len(setup_times)
        )
        for measured in passes:
            measured.compare(reference, "pinned")
        trial_times = median_trials(passes)
        wall = sum(trial_times.values())
        metrics: Dict[str, float] = {
            "wall_s": wall,
            "cycles_per_s": passes[0].cycles / wall,
            "trial_s_max": max(trial_times.values()),
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        checked = [warmup, *passes]
        notes: List[str] = []
        if trace:
            # Equal to the pins, as every untraced pass must be: the
            # tracing only observes.
            traced = traced_pass(workload, order, scratch)
            traced["pass"].compare(reference, "pinned, traced")
            checked.append(traced["pass"])
            metrics = layer_metrics(
                traced, median([measured.wall for measured in passes])
            )
            notes = trace_self_checks(traced, metrics)
    return report(
        workload,
        seed,
        order,
        setup_times,
        passes,
        checked,
        metrics,
        notes,
        trace,
    )


def report(
    workload: Workload,
    seed: int,
    order: Sequence[int],
    setup_times: List[float],
    passes: List[Pass],
    checked: List[Pass],
    metrics: Dict[str, float],
    notes: List[str],
    trace: bool,
) -> int:
    """Print every metric, the manifest and the result line; save the report."""
    declared = PER_LAYER if trace else END_TO_END
    if sorted(metrics) != sorted(declared):
        raise BenchmarkError(
            f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}"
        )
    attempted = sum(len(measured.invariants) for measured in checked)
    failed = sum(len(measured.failed) for measured in checked)
    correct = failed == 0 and not notes
    details = {
        "manifest": manifest(workload, seed, order, len(passes)),
        "setup_s": setup_times,
        "passes": [
            {
                "label": measured.label,
                "wall_s": measured.wall,
                "trial_walls_s": measured.walls,
                "trial_references_s": measured.references,
                "invariants": measured.invariants,
                "failed": measured.failed,
            }
            for measured in checked
        ],
        "failed_trials": failed,
        "trace_problems": notes,
        "metrics": metrics,
    }
    for measured in checked:
        for index, reason in sorted(measured.failed.items()):
            print(f"FAILED {measured.label} trial {index}: {reason}")
    for problem in notes:
        print(f"FAILED trace check: {problem}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {UNITS[name]}")
    print(
        f"{workload.name} failed_trials = {failed} trials, of {attempted} "
        "attempted"
    )
    print("manifest " + json.dumps(details["manifest"], sort_keys=True))
    OUTPUT.mkdir(exist_ok=True)
    out_file = OUTPUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in DEFINITION["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    for variable in ("REPRO_JOBS", "REPRO_SCALE"):
        os.environ.pop(variable, None)
    # On SIGTERM, unwind: set-up probes are killed and scratch is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: workloads.py does not define {args.workload}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(workload)
    try:
        return run(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
