"""Trace cross-validation: --check-trace on real and corrupted traces."""

import json
from pathlib import Path

from repro.algorithms.registry import algorithm_by_name
from repro.cli import main as repro_main
from repro.experiments.runner import random_initial_assignment
from repro.lint.cli import main as lint_main
from repro.lint.trace_check import check_trace_file, check_trace_records
from repro.problems.coloring import random_coloring_instance
from repro.problems.sat.dimacs import write_dimacs
from repro.problems.sat.generators import planted_3sat
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import Simulator
from repro.runtime.trace import TraceRecorder

TRACES = Path(__file__).parent / "fixtures" / "traces"


def record_events_run(tmp_path, seed=6):
    """Run a small events-backend trial and write its trace to disk."""
    problem = random_coloring_instance(12, seed=8).to_discsp()
    metrics = MetricsCollector()
    agents = algorithm_by_name("AWC+Rslv").build(
        problem, metrics, seed, random_initial_assignment(problem, seed)
    )
    tracer = TraceRecorder()
    result = Simulator(
        problem, agents, metrics=metrics, tracer=tracer, clock="events"
    ).run()
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in tracer.to_jsonl_records():
            handle.write(json.dumps(record) + "\n")
    return path, result


class TestRoundTrip:
    def test_fresh_events_backend_trace_validates(self, tmp_path):
        path, result = record_events_run(tmp_path)
        assert result.solved
        assert check_trace_file(str(path)) == []

    def test_corrupting_the_fresh_trace_fails(self, tmp_path):
        path, _result = record_events_run(tmp_path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        # Push a mid-trace message back to cycle 0: clock regression.
        victim = next(
            record
            for record in records
            if record["event"] == "message" and record["cycle"] >= 2
        )
        victim["cycle"] = 0
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        violations = check_trace_file(str(corrupted))
        assert any("clock went backwards" in v for v in violations)

    def test_cli_exit_codes(self, tmp_path, capsys):
        path, _result = record_events_run(tmp_path)
        assert lint_main(["--check-trace", str(path)]) == 0
        assert "upholds every recorded invariant" in capsys.readouterr().out
        bad = TRACES / "bad_clock.jsonl"
        assert lint_main(["--check-trace", str(bad)]) == 1
        assert "clock went backwards" in capsys.readouterr().out


class TestSyncBackendTrace:
    """``repro solve --trace-jsonl`` on the lockstep clock records every
    send's sequence and every delivery, so the causal-delivery and FIFO
    checks run on real evidence instead of passing vacuously."""

    def record(self, tmp_path, capsys):
        cnf = tmp_path / "planted.cnf"
        write_dimacs(planted_3sat(12, seed=5).formula, cnf)
        path = tmp_path / "sync.jsonl"
        assert repro_main(
            ["solve", str(cnf), "--backend", "sync",
             "--trace-jsonl", str(path)]
        ) == 0
        assert "s SATISFIABLE" in capsys.readouterr().out
        return path, [
            json.loads(line) for line in path.read_text().splitlines()
        ]

    def test_trace_carries_sequences_and_deliveries(self, tmp_path, capsys):
        path, records = self.record(tmp_path, capsys)
        messages = [r for r in records if r["event"] == "message"]
        deliveries = [r for r in records if r["event"] == "delivery"]
        assert messages and deliveries
        assert all("sequence" in record for record in messages)
        sent = {record["sequence"]: record["cycle"] for record in messages}
        # Unit latency: each delivery lands one cycle after its send.
        assert all(
            record["cycle"] == sent[record["sequence"]] + 1
            for record in deliveries
        )
        assert records[-1]["deliveries"] == len(deliveries)
        assert check_trace_file(str(path)) == []

    def test_delivery_checks_are_live(self, tmp_path, capsys):
        path, records = self.record(tmp_path, capsys)
        deliveries = [r for r in records if r["event"] == "delivery"]
        # A delivery that names no send breaks causal delivery.
        unsent = json.loads(json.dumps(records))
        next(r for r in unsent if r["event"] == "delivery")["sequence"] = -1
        assert any(
            "delivery" in violation
            for violation in self.violations(tmp_path, unsent)
        )
        # Two same-channel deliveries in swapped order break FIFO.
        by_channel = {}
        for record in deliveries:
            by_channel.setdefault(
                (record["sender"], record["recipient"]), []
            ).append(record)
        first, second = next(
            pair[:2] for pair in by_channel.values() if len(pair) > 1
        )
        first["sequence"], second["sequence"] = (
            second["sequence"], first["sequence"],
        )
        assert any(
            "FIFO violation" in violation
            for violation in self.violations(tmp_path, records)
        )

    @staticmethod
    def violations(tmp_path, records):
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        return check_trace_file(str(corrupted))


class TestCorruptedFixtures:
    def test_valid_small_trace_is_clean(self):
        assert check_trace_file(str(TRACES / "valid_small.jsonl")) == []

    def test_clock_regression(self):
        violations = check_trace_file(str(TRACES / "bad_clock.jsonl"))
        assert len(violations) == 1
        assert "clock went backwards" in violations[0]

    def test_fifo_overtaking_flagged_unless_disabled(self):
        violations = check_trace_file(str(TRACES / "bad_fifo.jsonl"))
        assert any("FIFO violation" in v for v in violations)
        relaxed = check_trace_file(str(TRACES / "bad_fifo.jsonl"), fifo=False)
        assert relaxed == []

    def test_truncated_trace_has_no_summary(self):
        violations = check_trace_file(str(TRACES / "missing_summary.jsonl"))
        assert any("no summary record" in v for v in violations)

    def test_summary_count_mismatch(self):
        violations = check_trace_file(str(TRACES / "bad_counts.jsonl"))
        assert any("counts must conserve" in v for v in violations)

    def test_broken_value_chain(self):
        violations = check_trace_file(str(TRACES / "bad_chain.jsonl"))
        assert any("value chain broken" in v for v in violations)

    def test_zero_latency_delivery(self):
        violations = check_trace_file(str(TRACES / "bad_latency.jsonl"))
        assert any("strictly after its send" in v for v in violations)


class TestRecordChecks:
    def test_empty_trace_is_a_violation(self):
        assert check_trace_records([]) == [
            "trace is empty — a recorded run always has a summary"
        ]

    def test_unknown_event_type(self):
        violations = check_trace_records(
            [(1, {"event": "teleport", "cycle": 0})]
        )
        assert "unknown event type" in violations[0]

    def test_unreadable_file(self, tmp_path):
        violations = check_trace_file(str(tmp_path / "absent.jsonl"))
        assert violations and "cannot read trace" in violations[0]

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"event": "summary", "messages": 0}\nnot json\n')
        violations = check_trace_file(str(path))
        assert any("not valid JSON" in v for v in violations)

    def test_sync_backend_trace_remains_valid(self):
        # A trace without sequences or deliveries still validates: those
        # checks are vacuous, the remaining invariants hold.
        records = [
            (1, {"event": "message", "cycle": 0, "sender": 1, "recipient": 2}),
            (2, {"event": "summary", "messages": 1, "value_changes": 0,
                 "dropped": 0}),
        ]
        assert check_trace_records(records) == []
