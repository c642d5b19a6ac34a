"""Seeded latency models: schedules are a pure function of the seed.

The asynchronous-network experiments (Section 6's delay/loss variations)
only reproduce if the medium's randomness is part of the trial seed, not
process-global state. These tests pin that: the same seed always yields
the same delivery schedule, different seeds differ, and the shipped
factory survives pickling (the parallel runner ships it to workers).
"""

import pickle

from repro.runtime.network import (
    InProcessTransport,
    LossyLatency,
    MediumFactory,
    UniformLatency,
)

from ..conftest import Lockstep


def delivery_schedule(medium, num_messages=40, max_steps=200):
    """Inject messages and record which arrive at each cycle."""
    network = Lockstep(medium)
    for index in range(num_messages):
        network.send("a", "b", index)
    schedule = []
    steps = 0
    while not network.is_idle() and steps < max_steps:
        steps += 1
        inbox = network.deliver()
        schedule.append(tuple(inbox.get("b", ())))
    return tuple(schedule)


def random_delay(max_delay, **seed):
    return InProcessTransport(UniformLatency(max_delay, **seed))


def lossy(seed):
    return InProcessTransport(
        LossyLatency(loss_rate=0.4, retransmit_after=1, seed=seed)
    )


class TestRandomDelaySeeding:
    def test_same_seed_same_schedule(self):
        first = delivery_schedule(random_delay(4, seed=11))
        second = delivery_schedule(random_delay(4, seed=11))
        assert first == second

    def test_different_seed_different_schedule(self):
        first = delivery_schedule(random_delay(4, seed=11))
        second = delivery_schedule(random_delay(4, seed=12))
        assert first != second

    def test_default_construction_is_deterministic(self):
        # No seed argument means seed 0 — never the process-global RNG.
        assert delivery_schedule(random_delay(3)) == delivery_schedule(
            random_delay(3)
        )


class TestLossySeeding:
    def test_same_seed_same_schedule(self):
        assert delivery_schedule(lossy(3)) == delivery_schedule(lossy(3))

    def test_different_seed_different_schedule(self):
        assert delivery_schedule(lossy(3)) != delivery_schedule(lossy(4))


class TestFactories:
    def test_factories_are_picklable(self):
        for factory in (
            MediumFactory(),
            MediumFactory("fixed", delay=3),
            MediumFactory("uniform", delay=2, fifo=False),
            MediumFactory("uniform", delay=4, stream=("network", "delay")),
            MediumFactory("lossy", loss_rate=0.1),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert clone == factory

    def test_factory_threads_the_trial_seed(self):
        factory = MediumFactory("uniform", delay=4)
        assert delivery_schedule(factory(21)) == delivery_schedule(
            factory(21)
        )
        assert delivery_schedule(factory(21)) != delivery_schedule(
            factory(22)
        )

    def test_pickled_factory_builds_identical_networks(self):
        factory = MediumFactory("lossy", loss_rate=0.4)
        clone = pickle.loads(pickle.dumps(factory))
        assert delivery_schedule(factory(5)) == delivery_schedule(clone(5))

    def test_stream_selects_the_rng(self):
        # A random medium draws from the stream it names, so the lockstep
        # tables' "random" rows and the event tables' "uniform" rows keep
        # their own schedules.
        network = MediumFactory("uniform", delay=4, stream=("network", "delay"))
        events = MediumFactory("uniform", delay=4)
        assert delivery_schedule(network(9)) != delivery_schedule(events(9))
        assert delivery_schedule(events(9)) == delivery_schedule(
            random_delay(4, seed=9)
        )
