"""Conservation properties of the medium under every latency model.

Whatever the delivery policy — synchronous, fixed delay, random delay with
or without FIFO, lossy-with-retransmission — every sent message must be
delivered exactly once, to the right recipient, in finite time. The
algorithms' correctness proofs assume nothing more of the medium; these
properties pin that contract for every latency model at once.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms.registry import algorithm_by_name
from repro.experiments.runner import run_trial
from repro.problems.coloring import random_coloring_instance
from repro.runtime.messages import OkMessage
from repro.runtime.network import (
    FixedLatency,
    InProcessTransport,
    LossyLatency,
    MediumFactory,
    UniformLatency,
)

from ..conftest import Lockstep


def random_delay(seed, fifo):
    return InProcessTransport(
        UniformLatency(max_delay=4, rng=random.Random(seed)), fifo=fifo
    )


NETWORK_BUILDERS = [
    lambda seed: InProcessTransport(),
    lambda seed: InProcessTransport(FixedLatency(3)),
    lambda seed: random_delay(seed, fifo=True),
    lambda seed: random_delay(seed, fifo=False),
    lambda seed: InProcessTransport(
        LossyLatency(loss_rate=0.4, rng=random.Random(seed))
    ),
]

#: (sender, recipient) pairs over 4 agents, sender != recipient.
sends = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    max_size=40,
)


@st.composite
def network_and_traffic(draw):
    builder = draw(st.sampled_from(NETWORK_BUILDERS))
    seed = draw(st.integers(0, 10_000))
    traffic = draw(sends)
    return Lockstep(builder(seed)), traffic


class TestConservation:
    @given(network_and_traffic())
    @settings(max_examples=80, deadline=None)
    def test_every_message_delivered_exactly_once(self, scenario):
        network, traffic = scenario
        expected = {}
        for index, (sender, recipient) in enumerate(traffic):
            message = OkMessage(sender, sender, index, 0)
            network.send(sender, recipient, message)
            expected[index] = recipient
        received = {}
        for _round in range(500):
            inbox = network.deliver()
            for recipient, messages in inbox.items():
                for message in messages:
                    assert message.value not in received, "duplicate delivery"
                    received[message.value] = recipient
            if network.is_idle():
                break
        assert network.is_idle(), "messages still in flight after 500 cycles"
        assert received == expected

    @given(network_and_traffic())
    @settings(max_examples=40, deadline=None)
    def test_counters_are_consistent(self, scenario):
        network, traffic = scenario
        for index, (sender, recipient) in enumerate(traffic):
            network.send(sender, recipient, OkMessage(sender, sender, index, 0))
        assert network.medium.sent_count == len(traffic)
        while not network.is_idle():
            network.deliver()
        assert network.medium.delivered_count == len(traffic)
        assert network.medium.pending() == 0

    @given(network_and_traffic())
    @settings(max_examples=60, deadline=None)
    def test_event_driven_pops_arrive_in_time_and_send_order(self, scenario):
        """The event engine's view: jump to next_time(), pop what is due.

        Every message arrives once, no earlier than one unit after its
        send, stamped with the time it is popped at, and each pop is in
        send-sequence order.
        """
        network, traffic = scenario
        medium = network.medium
        for index, (sender, recipient) in enumerate(traffic):
            medium.send(
                sender, recipient, OkMessage(sender, sender, index, 0),
                now=index % 3,
            )
        seen = []
        while medium.next_time() is not None:
            now = medium.next_time()
            due = list(medium.pop_due(now))
            assert due, "next_time() named an empty time"
            sequences = [sequence for _t, sequence, *_rest in due]
            assert sequences == sorted(sequences)
            for time, sequence, sender, recipient, message in due:
                assert time == now >= sequence % 3 + 1
                assert traffic[message.value] == (sender, recipient)
                seen.append(message.value)
        assert sorted(seen) == list(range(len(traffic)))
        assert medium.pending() == 0


def channel_order(network, count=30):
    """Send *count* numbered messages down one channel; return the arrival
    order of their sequence numbers."""
    network = Lockstep(network)
    for index in range(count):
        network.send(0, 1, OkMessage(0, 0, index, 0))
    order = []
    while not network.is_idle():
        for message in network.deliver().get(1, []):
            order.append(message.value)
    return order


class TestReordering:
    """``fifo=False`` is advertised as real reordering — prove it happens.

    A same-channel overtake is a pair delivered out of send order. With
    FIFO on it must never occur; with FIFO off it must actually occur for
    some seed, otherwise the "reorder" rows of the asynchrony table would
    silently measure plain random delay.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_fifo_never_reorders_a_channel(self, seed):
        order = channel_order(random_delay(seed, fifo=True))
        assert order == sorted(order)

    def test_no_fifo_overtakes_on_some_seed(self):
        overtakes = 0
        for seed in range(50):
            order = channel_order(random_delay(seed, fifo=False))
            if order != sorted(order):
                overtakes += 1
        # With 30 messages and delays in 1..4, almost every seed reorders;
        # demand a solid majority so a FIFO regression cannot hide.
        assert overtakes > 25

    def test_awc_resolvent_solves_under_reordering(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        algorithm = algorithm_by_name("AWC+Rslv")
        solved = 0
        for seed in range(3):
            result = run_trial(
                problem,
                algorithm,
                seed,
                max_cycles=5000,
                medium=MediumFactory("uniform", delay=4, fifo=False),
            )
            if result.solved:
                assert problem.is_solution(result.assignment)
                solved += 1
        assert solved == 3
