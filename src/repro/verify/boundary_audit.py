"""Dynamic cross-validation of the S1 serialization-closure analysis.

S1 (:mod:`repro.lint.rules_dist`) statically claims that everything
crossing a process boundary — in particular every message payload — is
free of unpicklable values. This module is the runtime half of that
claim, in the same spirit as ``--check-trace`` for traces: it
replays the verifier's pinned corpus (:data:`~repro.verify.corpus.
PINNED_CORPUS`) with an observing tracer, pickle-round-trips **every
payload actually sent**, and checks the observation against the static
analysis two ways:

* *superset* — every message type observed on the wire is in
  :func:`~repro.lint.boundary.transported_payload_types`' static closure
  (the analysis saw every crossing the runtime exercised);
* *agreement* — on an S1-clean tree no observed payload may fail the
  pickle round-trip (a failure would be a hazard the static closure
  missed, and fails CI loudly rather than on a remote shard).

The corpus is pinned (instance seed, algorithm, agent seed), so the set
of payloads audited is reproducible run-to-run and the guarantee is not
probabilistic hand-waving about "typical" traffic.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import FrozenSet, List, Sequence, Set

from ..algorithms.registry import algorithm_by_name
from ..experiments.runner import run_trial
from ..runtime.messages import Message
from .corpus import PINNED_CORPUS, CorpusEntry


class PayloadRecorder:
    """A tracer that keeps every payload routed during a trial."""

    def __init__(self) -> None:
        self.payloads: List[Message] = []

    def on_message(
        self, cycle, sender, recipient, message, sequence=None
    ) -> None:
        self.payloads.append(message)

    def on_delivery(self, cycle, sequence, sender, recipient) -> None:
        pass

    def on_cycle_end(self, cycle, assignment) -> None:
        pass


@dataclass(frozen=True)
class RoundTripFailure:
    """One payload the runtime sent that does not survive pickling."""

    entry: str
    message_type: str
    error: str


@dataclass
class AuditReport:
    """What the pinned-corpus payload audit observed."""

    entries_run: int = 0
    payloads_sent: int = 0
    observed_types: Set[str] = field(default_factory=set)
    failures: List[RoundTripFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _round_trip(entry_name: str, message: Message) -> RoundTripFailure | None:
    try:
        clone = pickle.loads(pickle.dumps(message))
    except Exception as error:  # noqa: BLE001 — any failure is the finding
        return RoundTripFailure(
            entry_name, type(message).__name__, repr(error)
        )
    if clone != message:
        return RoundTripFailure(
            entry_name,
            type(message).__name__,
            "round-trip clone compares unequal to the original",
        )
    return None


def audit_entry(entry: CorpusEntry) -> AuditReport:
    """Run one pinned trial, round-tripping every payload it sends."""
    recorder = PayloadRecorder()
    run_trial(
        entry.problem(),
        algorithm_by_name(entry.algorithm),
        entry.agent_seed,
        max_cycles=entry.max_epochs,
        tracer=recorder,
    )
    report = AuditReport(entries_run=1, payloads_sent=len(recorder.payloads))
    for message in recorder.payloads:
        report.observed_types.add(type(message).__name__)
        failure = _round_trip(entry.name, message)
        if failure is not None:
            report.failures.append(failure)
    return report


def audit_corpus(
    entries: Sequence[CorpusEntry] = PINNED_CORPUS,
) -> AuditReport:
    """Audit every pinned entry; reports are merged into one."""
    merged = AuditReport()
    for entry in entries:
        report = audit_entry(entry)
        merged.entries_run += report.entries_run
        merged.payloads_sent += report.payloads_sent
        merged.observed_types |= report.observed_types
        merged.failures.extend(report.failures)
    return merged


def static_payload_types(source_root: str = "src/") -> FrozenSet[str]:
    """S1's static view: every type name the analysis sees crossing a wire.

    Built the same way the lint engine builds its graph (one parse of the
    tree under *source_root*), then reduced to the payload-type closure of
    :mod:`repro.lint.boundary`. The audit asserts this is a superset of
    what the corpus actually put on the wire.
    """
    from ..lint.boundary import transported_payload_types
    from ..lint.engine import DEFAULT_EXCLUDES, iter_python_files
    from ..lint.graph import ProjectGraph

    files = iter_python_files([source_root], excludes=list(DEFAULT_EXCLUDES))
    graph = ProjectGraph.build(files)
    return frozenset(transported_payload_types(graph))


__all__ = [
    "AuditReport",
    "PayloadRecorder",
    "RoundTripFailure",
    "audit_corpus",
    "audit_entry",
    "static_payload_types",
]
