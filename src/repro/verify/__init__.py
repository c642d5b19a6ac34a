"""The dynamic half of the interleaving verifier: ``repro verify``.

The static half (:mod:`repro.lint.effects` + rules R1/R2/R3) predicts which
message handlers commute; this package *tests* those predictions by driving
:class:`~repro.runtime.simulator.Simulator` through systematically
chosen delivery orders on a pinned corpus of small instances.

* :mod:`repro.verify.corpus` — the pinned n≤8 coloring instances and the
  algorithms run on them;
* :mod:`repro.verify.explorer` — the DPOR-style schedule explorer: a DFS
  over scheduling decisions recorded by
  :class:`~repro.runtime.events.ScheduledTransport`, pruning reorderings
  the static commutativity matrix proves equivalent;
* :mod:`repro.verify.invariants` — what must hold on *every* explored
  interleaving: outcome agreement, no lost nogoods, termination-detector
  agreement, and bit-identical replay where the engine claims determinism
  (unit latency).

See DESIGN.md ("Interleaving verification") for the equivalence-class
argument and the soundness caveats of the pruning.
"""

from .corpus import PINNED_CORPUS, CorpusEntry, corpus_by_name
from .explorer import (
    EntryReport,
    ExplorationReport,
    ScheduleRun,
    explore_corpus,
    explore_entry,
    repo_commutativity_matrix,
)
from .boundary_audit import (
    AuditReport,
    PayloadRecorder,
    audit_corpus,
    audit_entry,
    static_payload_types,
)
from .invariants import check_determinism, check_run

__all__ = [
    "AuditReport",
    "PINNED_CORPUS",
    "CorpusEntry",
    "EntryReport",
    "ExplorationReport",
    "PayloadRecorder",
    "ScheduleRun",
    "audit_corpus",
    "audit_entry",
    "check_determinism",
    "check_run",
    "corpus_by_name",
    "explore_corpus",
    "explore_entry",
    "repo_commutativity_matrix",
    "static_payload_types",
]
