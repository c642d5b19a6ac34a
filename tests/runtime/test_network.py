"""The message medium under unit and random latency, driven cycle by cycle."""

import random

import pytest

from repro.core.exceptions import SimulationError
from repro.runtime.messages import OkMessage
from repro.runtime.network import InProcessTransport, UniformLatency

from ..conftest import Lockstep


def ok(sender, value=0):
    return OkMessage(sender=sender, variable=sender, value=value)


def random_delay(max_delay=3, rng=None, fifo=True):
    return Lockstep(
        InProcessTransport(UniformLatency(max_delay, rng=rng), fifo=fifo)
    )


class TestSynchronousNetwork:
    """The default medium: the paper's one cycle per message."""

    def test_delivers_next_cycle(self):
        net = Lockstep(InProcessTransport())
        net.send(0, 1, ok(0))
        inbox = net.deliver()
        assert inbox == {1: [ok(0)]}

    def test_messages_do_not_linger(self):
        net = Lockstep(InProcessTransport())
        net.send(0, 1, ok(0))
        net.deliver()
        assert net.deliver() == {}

    def test_batches_by_recipient(self):
        net = Lockstep(InProcessTransport())
        net.send(0, 2, ok(0))
        net.send(1, 2, ok(1))
        net.send(0, 3, ok(0, value=1))
        inbox = net.deliver()
        assert inbox[2] == [ok(0), ok(1)]
        assert inbox[3] == [ok(0, value=1)]

    def test_counts(self):
        medium = InProcessTransport()
        net = Lockstep(medium)
        net.send(0, 1, ok(0))
        net.send(0, 2, ok(0))
        assert medium.sent_count == 2
        assert medium.pending() == 2
        assert not net.is_idle()
        net.deliver()
        assert medium.delivered_count == 2
        assert net.is_idle()

    def test_rejects_self_send(self):
        net = Lockstep(InProcessTransport())
        with pytest.raises(SimulationError, match="itself"):
            net.send(1, 1, ok(1))


class TestRandomDelayNetwork:
    """Uniform per-message latency, with and without per-channel FIFO."""

    def test_every_message_is_eventually_delivered_exactly_once(self):
        net = random_delay(max_delay=4, rng=random.Random(0))
        for i in range(50):
            net.send(0, 1, ok(0, value=i))
        received = []
        for _ in range(100):
            inbox = net.deliver()
            received.extend(inbox.get(1, []))
            if net.is_idle():
                break
        assert sorted(m.value for m in received) == list(range(50))

    def test_fifo_preserves_channel_order(self):
        net = random_delay(max_delay=5, rng=random.Random(3), fifo=True)
        for i in range(30):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        assert [m.value for m in received] == list(range(30))

    def test_non_fifo_can_reorder(self):
        # With many messages and delays up to 5, some pair almost surely
        # overtakes; the seed below is checked to exhibit it.
        net = random_delay(max_delay=5, rng=random.Random(1), fifo=False)
        for i in range(30):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        values = [m.value for m in received]
        assert sorted(values) == list(range(30))
        assert values != list(range(30))

    def test_delay_of_one_behaves_synchronously(self):
        net = random_delay(max_delay=1, rng=random.Random(0))
        net.send(0, 1, ok(0))
        assert net.deliver() == {1: [ok(0)]}

    def test_deterministic_for_seed(self):
        def run(seed):
            net = random_delay(max_delay=4, rng=random.Random(seed))
            for i in range(20):
                net.send(0, 1, ok(0, value=i))
            trace = []
            while not net.is_idle():
                trace.append([m.value for m in net.deliver().get(1, [])])
            return trace

        assert run(7) == run(7)

    def test_rejects_bad_delay(self):
        with pytest.raises(SimulationError):
            UniformLatency(max_delay=0)

    def test_rejects_self_send(self):
        net = random_delay()
        with pytest.raises(SimulationError, match="itself"):
            net.send(2, 2, ok(2))
