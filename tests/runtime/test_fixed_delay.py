"""Fixed latency: Figure 2's delay axis, made concrete."""

import pytest

from repro.algorithms.registry import awc
from repro.core.exceptions import SimulationError
from repro.experiments.runner import run_trial
from repro.problems.coloring import random_coloring_instance
from repro.runtime.messages import OkMessage
from repro.runtime.network import FixedLatency, InProcessTransport, MediumFactory

from ..conftest import Lockstep


def ok(sender, value=0):
    return OkMessage(sender=sender, variable=sender, value=value)


def fixed(delay):
    return Lockstep(InProcessTransport(FixedLatency(delay)))


class TestDeliveryTiming:
    def test_delay_one_is_synchronous(self):
        net = fixed(1)
        net.send(0, 1, ok(0))
        assert net.deliver() == {1: [ok(0)]}

    def test_delay_three_takes_three_cycles(self):
        net = fixed(3)
        net.send(0, 1, ok(0))
        assert net.medium.next_time() == 3
        assert net.deliver() == {}
        assert net.deliver() == {}
        assert net.deliver() == {1: [ok(0)]}

    def test_preserves_send_order(self):
        net = fixed(2)
        for i in range(10):
            net.send(0, 1, ok(0, value=i))
        net.deliver()
        received = net.deliver()[1]
        assert [m.value for m in received] == list(range(10))

    def test_pending_and_idle(self):
        net = fixed(2)
        net.send(0, 1, ok(0))
        assert net.medium.pending() == 1
        net.deliver()
        assert not net.is_idle()
        net.deliver()
        assert net.is_idle()

    def test_validation(self):
        with pytest.raises(SimulationError):
            FixedLatency(delay=0)
        net = fixed(1)
        with pytest.raises(SimulationError, match="itself"):
            net.send(1, 1, ok(1))

    def test_constant_latency_is_never_drawn(self):
        class Counting(FixedLatency):
            draws = 0

            def delay(self, sender, recipient):
                Counting.draws += 1
                return super().delay(sender, recipient)

        medium = InProcessTransport(Counting(2))
        for i in range(5):
            medium.send(0, 1, ok(0, value=i), now=0)
        assert Counting.draws == 0
        assert medium.next_time() == 2


class TestCycleScaling:
    def test_awc_cycles_scale_roughly_with_delay(self):
        """The empirical basis of Figure 2's linear model.

        With every message taking d cycles, the same search trajectory
        consumes about d times the cycles. Exact equality is not guaranteed
        (agents act on whatever has arrived), but the growth must be
        substantial and ordered.
        """
        problem = random_coloring_instance(15, seed=3).to_discsp()
        cycles = {}
        for delay in (1, 2, 4):
            result = run_trial(
                problem,
                awc("Rslv"),
                seed=5,
                max_cycles=20000,
                medium=MediumFactory("fixed", delay=delay),
            )
            assert result.solved
            cycles[delay] = result.cycles
        assert cycles[1] < cycles[2] < cycles[4]
        assert cycles[4] >= 2 * cycles[1]
