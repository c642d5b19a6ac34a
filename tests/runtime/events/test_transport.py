"""The in-process medium seen from the simulator: ordering, FIFO clamp,
latency models, the per-trial factory."""

import pickle

import pytest

from repro.core.exceptions import ModelError, SimulationError
from repro.runtime.events.transport import (
    FixedLatency,
    InProcessTransport,
    LossyLatency,
    MediumFactory,
    UniformLatency,
    UnitLatency,
)
from repro.runtime.messages import OkMessage


def ok(sender, value=0):
    return OkMessage(sender=sender, variable=sender, value=value)


class ScriptedLatency:
    """Test double: a scripted per-send delay sequence."""

    constant = None

    def __init__(self, delays):
        self._delays = list(delays)

    def delay(self, sender, recipient):
        return self._delays.pop(0)


class TestInProcessTransport:
    def test_unit_latency_delivers_next_timestamp(self):
        transport = InProcessTransport()
        transport.send(0, 1, ok(0), now=5)
        assert transport.next_time() == 6
        [(time, sequence, sender, recipient, message)] = transport.pop_due(6)
        assert (time, sequence, sender, recipient, message) == (
            6, 0, 0, 1, ok(0),
        )
        assert transport.next_time() is None

    def test_ties_broken_by_send_sequence(self):
        transport = InProcessTransport()
        for value in range(5):
            transport.send(0, 1, ok(0, value=value), now=0)
        due = transport.pop_due(1)
        assert [message.value for *_head, message in due] == list(range(5))

    def test_fifo_clamp_prevents_same_channel_overtaking(self):
        transport = InProcessTransport(
            latency=ScriptedLatency([10, 1]), fifo=True
        )
        transport.send(0, 1, ok(0, value=0), now=0)
        transport.send(0, 1, ok(0, value=1), now=0)
        # The second message's draw (1) would overtake; the clamp holds it
        # back to the first's arrival.
        assert transport.next_time() == 10
        due = transport.pop_due(10)
        assert [(time, message.value) for time, *_mid, message in due] == [
            (10, 0), (10, 1),
        ]

    def test_no_fifo_allows_overtaking(self):
        transport = InProcessTransport(
            latency=ScriptedLatency([10, 1]), fifo=False
        )
        transport.send(0, 1, ok(0, value=0), now=0)
        transport.send(0, 1, ok(0, value=1), now=0)
        order = []
        while transport.next_time() is not None:
            now = transport.next_time()
            order.extend(message.value for *_head, message in transport.pop_due(now))
        assert order == [1, 0]

    def test_distinct_channels_do_not_clamp_each_other(self):
        transport = InProcessTransport(
            latency=ScriptedLatency([10, 1]), fifo=True
        )
        transport.send(0, 1, ok(0), now=0)
        transport.send(2, 1, ok(2), now=0)
        assert transport.next_time() == 1

    def test_self_send_rejected(self):
        transport = InProcessTransport()
        with pytest.raises(SimulationError, match="itself"):
            transport.send(1, 1, ok(1), now=0)

    def test_non_positive_delay_rejected(self):
        transport = InProcessTransport(latency=ScriptedLatency([0]))
        with pytest.raises(SimulationError, match="non-positive"):
            transport.send(0, 1, ok(0), now=0)

    def test_counters(self):
        transport = InProcessTransport()
        transport.send(0, 1, ok(0), now=0)
        transport.send(1, 0, ok(1), now=0)
        assert (transport.sent_count, transport.pending()) == (2, 2)
        transport.pop_due(1)
        assert (transport.delivered_count, transport.pending()) == (2, 0)


class TestLatencyModels:
    def test_unit_latency_is_one(self):
        assert UnitLatency().delay(0, 1) == 1
        assert UnitLatency().constant == 1

    def test_uniform_latency_range_and_reproducibility(self):
        first = UniformLatency(max_delay=4, seed=7)
        second = UniformLatency(max_delay=4, seed=7)
        draws = [first.delay(0, 1) for _ in range(50)]
        assert draws == [second.delay(0, 1) for _ in range(50)]
        assert all(1 <= d <= 4 for d in draws)
        assert len(set(draws)) > 1
        assert first.constant is None

    def test_uniform_latency_rejects_zero(self):
        with pytest.raises(SimulationError):
            UniformLatency(max_delay=0)

    def test_constant_non_positive_delay_rejected(self):
        class Broken:
            constant = 0

            def delay(self, sender, recipient):
                return 0

        with pytest.raises(SimulationError, match="non-positive"):
            InProcessTransport(latency=Broken())


class TestFactory:
    def test_default_is_parity_mode(self):
        transport = MediumFactory()(seed=3)
        assert isinstance(transport.latency, UnitLatency)
        assert transport.fifo

    def test_delay_selects_uniform(self):
        transport = MediumFactory("uniform", delay=4, fifo=False)(seed=3)
        assert isinstance(transport.latency, UniformLatency)
        assert transport.latency.max_delay == 4
        assert not transport.fifo

    def test_kinds_select_their_models(self):
        fixed = MediumFactory("fixed", delay=3)(seed=3).latency
        assert isinstance(fixed, FixedLatency) and fixed.constant == 3
        lossy = MediumFactory("lossy", loss_rate=0.25)(seed=3).latency
        assert isinstance(lossy, LossyLatency) and lossy.loss_rate == 0.25

    def test_factory_pickles(self):
        factory = MediumFactory("uniform", delay=4)
        assert pickle.loads(pickle.dumps(factory)) == factory

    @pytest.mark.parametrize(
        "options",
        [
            {"latency": "carrier-pigeon"},
            {"latency": "fixed", "delay": 0},
            {"latency": "lossy", "loss_rate": 1.0},
        ],
        ids=["kind", "delay", "loss"],
    )
    def test_bad_recipe_rejected(self, options):
        with pytest.raises(ModelError):
            MediumFactory(**options)
