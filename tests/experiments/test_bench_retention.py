"""``repro bench --axis retention``: keep-all must reproduce the default.

The parity leg is a hard failure, not a report line: if the keep-all
policy and the retention-free default ever measure differently on a
parity cell, the axis exits 1 before the soak stream runs.
"""

from repro.experiments import bench


def test_keep_all_divergence_is_fatal(tmp_path, monkeypatch, capsys):
    def fake_run_cell(instances, spec, **kwargs):
        return kwargs["retention"]

    def fake_measures(cell):
        # The keep-all leg measures differently from the default leg.
        return [("measured under", cell)]

    monkeypatch.setattr(bench, "instances_for", lambda *args: [])
    monkeypatch.setattr(bench, "run_cell", fake_run_cell)
    monkeypatch.setattr(bench, "cell_measures", fake_measures)
    output = tmp_path / "kb.json"
    assert bench.run_retention_bench(str(output), gate=None) == 1
    assert "FATAL: keep-all diverges from the default" in capsys.readouterr().out
    assert not output.exists()
