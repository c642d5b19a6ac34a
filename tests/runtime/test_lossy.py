"""Lossy latency: loss with retransmission-based reliability."""

import random

import pytest

from repro.algorithms.registry import awc, db
from repro.core.exceptions import SimulationError
from repro.experiments.runner import run_trial
from repro.problems.coloring import random_coloring_instance
from repro.runtime.messages import OkMessage
from repro.runtime.network import InProcessTransport, LossyLatency
from repro.runtime.random_source import derive_rng

from ..conftest import Lockstep


def ok(sender, value=0):
    return OkMessage(sender=sender, variable=sender, value=value)


def lossy(**options):
    return Lockstep(InProcessTransport(LossyLatency(**options)))


class TestDeliveryGuarantee:
    def test_every_message_delivered_exactly_once(self):
        net = lossy(loss_rate=0.5, rng=random.Random(0))
        for i in range(100):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        assert sorted(m.value for m in received) == list(range(100))

    def test_channel_fifo_held_back(self):
        net = lossy(loss_rate=0.6, retransmit_after=3, rng=random.Random(5))
        for i in range(50):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        assert [m.value for m in received] == list(range(50))

    def test_zero_loss_is_synchronous(self):
        net = lossy(loss_rate=0.0)
        net.send(0, 1, ok(0))
        assert net.deliver() == {1: [ok(0)]}

    def test_loss_statistics_recorded(self):
        net = lossy(loss_rate=0.5, rng=random.Random(1))
        for i in range(200):
            net.send(0, 1, ok(0, value=i))
        retransmissions = net.medium.latency.retransmissions
        # With loss 0.5, roughly one retransmission per message on average.
        assert 100 < retransmissions < 400

    def test_retransmissions_set_the_arrival(self):
        # Each lost copy costs retransmit_after time units on top of the
        # one-unit trip, so arrival - send = 1 + retransmissions * 3.
        latency = LossyLatency(
            loss_rate=0.5, retransmit_after=3, rng=random.Random(2)
        )
        medium = InProcessTransport(latency, fifo=False)
        arrivals = []
        for i in range(20):
            before = latency.retransmissions
            medium.send(0, 1, ok(0, value=i), now=0)
            arrivals.append(1 + (latency.retransmissions - before) * 3)
        delivered = []
        while medium.pending():
            delivered.extend(
                (time, message.value)
                for time, _seq, _sender, _recipient, message in (
                    medium.pop_due(medium.next_time())
                )
            )
        assert sorted(delivered) == sorted(
            (arrival, i) for i, arrival in enumerate(arrivals)
        )

    def test_deterministic_for_seed(self):
        def run(seed):
            net = lossy(loss_rate=0.4, rng=random.Random(seed))
            for i in range(30):
                net.send(0, 1, ok(0, value=i))
            trace = []
            while not net.is_idle():
                trace.append(len(net.deliver().get(1, [])))
            return trace

        assert run(3) == run(3)

    def test_validation(self):
        with pytest.raises(SimulationError):
            LossyLatency(loss_rate=1.0)
        with pytest.raises(SimulationError):
            LossyLatency(loss_rate=-0.1)
        with pytest.raises(SimulationError):
            LossyLatency(retransmit_after=0)
        net = lossy()
        with pytest.raises(SimulationError, match="itself"):
            net.send(1, 1, ok(1))

    def test_retransmission_budget_guard(self):
        net = lossy(loss_rate=0.99, max_attempts=3, rng=random.Random(0))
        with pytest.raises(SimulationError, match="retransmission budget"):
            for i in range(200):
                net.send(0, 1, ok(0, value=i))


def lossy_medium(loss_rate, retransmit_after=1, stream="lossy"):
    def factory(seed):
        return InProcessTransport(
            LossyLatency(
                loss_rate=loss_rate,
                retransmit_after=retransmit_after,
                rng=derive_rng(seed, stream),
            )
        )

    return factory


class TestAlgorithmsOnLossyLinks:
    @pytest.mark.parametrize(
        "loss_rate,retransmit_after", [(0.2, 1), (0.5, 2)]
    )
    def test_awc_still_correct(self, loss_rate, retransmit_after):
        problem = random_coloring_instance(15, seed=8).to_discsp()
        result = run_trial(
            problem,
            awc("Rslv"),
            seed=4,
            max_cycles=20_000,
            medium=lossy_medium(loss_rate, retransmit_after),
        )
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_db_still_correct(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        result = run_trial(
            problem, db(), seed=4, max_cycles=20_000,
            medium=lossy_medium(0.3),
        )
        assert result.solved

    def test_loss_costs_cycles(self):
        problem = random_coloring_instance(15, seed=8).to_discsp()
        clean = run_trial(problem, awc("Rslv"), seed=4)
        noisy = run_trial(
            problem, awc("Rslv"), seed=4, max_cycles=20_000,
            medium=lossy_medium(0.6, retransmit_after=3),
        )
        assert noisy.solved
        assert noisy.cycles > clean.cycles
