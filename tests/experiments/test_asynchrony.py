"""The asynchrony extension experiment."""

import pytest

from repro.core.exceptions import ModelError
from repro.experiments.asynchrony import (
    DEFAULT_MEDIA,
    delay_response,
    medium_model,
    run_asynchrony_table,
)
from repro.experiments.paper import QUICK_SCALE
from repro.runtime.network import (
    FixedLatency,
    InProcessTransport,
    LossyLatency,
    UniformLatency,
    UnitLatency,
)


class TestNetworkModelParsing:
    def test_sync(self):
        model = medium_model("sync")
        assert model.name == "sync"
        medium = model.factory(0)
        assert isinstance(medium, InProcessTransport)
        assert isinstance(medium.latency, UnitLatency)

    def test_fixed_with_delay(self):
        model = medium_model("fixed:5")
        latency = model.factory(0).latency
        assert isinstance(latency, FixedLatency)
        assert latency.constant == 5
        assert model.name == "fixed(5)"

    def test_random_fifo_default(self):
        model = medium_model("random:4")
        medium = model.factory(0)
        assert isinstance(medium.latency, UniformLatency)
        assert medium.fifo is True
        assert medium.latency.max_delay == 4

    def test_random_reorder(self):
        model = medium_model("random:4:reorder")
        assert model.factory(0).fifo is False
        assert model.name == "random(4)/reorder"

    def test_uniform_and_lossy(self):
        assert medium_model("uniform:4:reorder").name == "uniform(4)/reorder"
        lossy = medium_model("lossy:30")
        assert lossy.name == "lossy(30%)"
        assert isinstance(lossy.factory(0).latency, LossyLatency)
        assert lossy.factory(0).latency.loss_rate == 0.3

    def test_defaults(self):
        assert medium_model("fixed").name == "fixed(2)"
        assert medium_model("random").name == "random(3)"
        assert medium_model("uniform").name == "uniform(4)"
        assert medium_model("lossy").name == "lossy(30%)"

    @pytest.mark.parametrize(
        "spec",
        [
            "carrier-pigeon",
            "fixed:x",
            "fixed:0",
            "random:0",
            "uniform:0",
            "lossy:100",
            "lossy:-5",
            "random:3:bogus",
            "sync:7",
            "unit:1",
            "fixed:2:reorder",
            "lossy:30:reorder",
            "random:3:reorder:again",
        ],
    )
    def test_unknown_rejected(self, spec):
        with pytest.raises(ModelError) as caught:
            medium_model(spec)
        message = str(caught.value)
        assert spec in message
        assert "\n" not in message


class TestAsynchronyTable:
    @pytest.fixture(scope="class")
    def table(self):
        return run_asynchrony_table(scale=QUICK_SCALE, seed=0)

    def test_all_rows_present(self, table):
        assert len(table.rows) == 2 * len(DEFAULT_MEDIA["sync"])

    def test_everything_solves(self, table):
        assert all(row.percent == 100.0 for row in table.rows)

    def test_delay_increases_cycles(self, table):
        for algorithm in ("AWC+Rslv", "DB"):
            series = dict(delay_response(table, algorithm))
            assert series["fixed(2)"] > series["sync"]
            assert series["fixed(4)"] > series["fixed(2)"]

    def test_delay_response_extraction(self, table):
        series = delay_response(table, "DB")
        assert [network for network, _ in series] == [
            medium_model(spec).name for spec in DEFAULT_MEDIA["sync"]
        ]

    def test_any_spec_runs_on_either_engine(self):
        table = run_asynchrony_table(
            scale=QUICK_SCALE,
            seed=0,
            algorithms=("AWC+Rslv",),
            media=("fixed:2", "lossy:30"),
            backend="events",
        )
        assert [row.label for row in table.rows] == [
            "AWC+Rslv @ fixed(2)",
            "AWC+Rslv @ lossy(30%)",
        ]
        assert all(row.percent == 100.0 for row in table.rows)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError):
            run_asynchrony_table(scale=QUICK_SCALE, backend="carrier-pigeon")
