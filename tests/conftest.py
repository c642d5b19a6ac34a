"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import CSP, DisCSP, Nogood, integer_domain
from repro.problems.coloring import coloring_discsp
from repro.problems.graphs import Graph


def triangle_graph() -> Graph:
    """K3: the smallest odd cycle."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def clique_graph(size: int) -> Graph:
    """The complete graph on *size* nodes."""
    graph = Graph(size)
    for u in range(size):
        for v in range(u + 1, size):
            graph.add_edge(u, v)
    return graph


def cycle_graph(size: int) -> Graph:
    """The cycle on *size* nodes."""
    graph = Graph(size)
    for u in range(size):
        graph.add_edge(u, (u + 1) % size)
    return graph


class Lockstep:
    """Drives a message medium the way the lockstep engine does.

    Sends happen at the current cycle; :meth:`deliver` advances one cycle
    and returns what arrives then, grouped by recipient.
    """

    def __init__(self, medium) -> None:
        self.medium = medium
        self.cycle = 0

    def send(self, sender, recipient, message) -> None:
        self.medium.send(sender, recipient, message, self.cycle)

    def deliver(self) -> dict:
        self.cycle += 1
        inbox: dict = {}
        for _time, _sequence, _sender, recipient, message in (
            self.medium.pop_due(self.cycle)
        ):
            inbox.setdefault(recipient, []).append(message)
        return inbox

    def is_idle(self) -> bool:
        return self.medium.pending() == 0


@pytest.fixture
def triangle_3col() -> DisCSP:
    """K3 with 3 colors: solvable, every solution is a permutation."""
    return coloring_discsp(triangle_graph(), 3)


@pytest.fixture
def triangle_2col() -> DisCSP:
    """K3 with 2 colors: unsolvable."""
    return coloring_discsp(triangle_graph(), 2)


@pytest.fixture
def k4_3col() -> DisCSP:
    """K4 with 3 colors: unsolvable."""
    return coloring_discsp(clique_graph(4), 3)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def tiny_csp() -> CSP:
    """Two variables over {0,1} with x0 == x1 forbidden from being (0, 0)."""
    domain = integer_domain(2)
    return CSP({0: domain, 1: domain}, [Nogood.of((0, 0), (1, 0))])
