"""Every store consultation against an uncached oracle (hypothesis).

The store answers its composite queries from one shared scan that caches
priority keys, batches its check counting and fires retention touches
inline. The oracle below does none of that: it recomputes every key from
:func:`nogood_priority_key` and tests every nogood with
:meth:`Nogood.prohibits` against a freshly built assignment. Random
interleavings of view updates/forgets/rebinds and store adds/removes
(with ``lru`` eviction on) must leave every consult method agreeing with
the oracle in its result, its check-counter delta, its retention touch
sequence, and its key-cache accounting (hits + misses = keyed lookups).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.priorities import nogood_priority_key, order_key
from repro.core.store import LinearNogoodStore, NogoodStore
from repro.retention.policy import LruPolicy

# Few variables and values, so that priority changes, violations and
# evictions hit the nogoods the next query reads.
OWN = 0
VARIABLES = range(4)
DOMAIN = (0, 1)


class RecordingLru(LruPolicy):
    """LRU eviction that also records every retention touch, in order."""

    def __init__(self, cap):
        super().__init__(cap)
        self.touched = []

    def on_use(self, nogood):
        self.touched.append(nogood)
        super().on_use(nogood)


def oracle_key(nogood, view):
    return nogood_priority_key(
        (view.priority_of(variable), variable)
        for variable in nogood.variables
        if variable != OWN
    )


def oracle_scan(store, view, own_value, own_priority, mode, first=False):
    """(violated nogoods, checks, keyed lookups) of one naive scan.

    *mode* is None (test every nogood), "higher" or "lower" (test only the
    nogoods whose key ranks above / not above the owner's).
    """
    assignment = view.as_assignment()
    assignment[OWN] = own_value
    my_key = order_key(own_priority, OWN)
    violated, checks, lookups = [], 0, 0
    for nogood in list(store.for_value(own_value)):
        if mode is not None:
            lookups += 1
            if (oracle_key(nogood, view) > my_key) != (mode == "higher"):
                continue
        checks += 1
        if nogood.prohibits(assignment):
            violated.append(nogood)
            if first:
                break
    return violated, checks, lookups


def oracle(store, view, method, values, own_priority, nogood):
    """The expected (result, checks, touches, keyed lookups) of a call."""
    if method == "priority_key_of":
        return oracle_key(nogood, view), 0, [], 1
    if method == "is_higher":
        higher = oracle_key(nogood, view) > order_key(own_priority, OWN)
        return higher, 0, [], 1
    if method == "is_violated":
        assignment = view.as_assignment()
        assignment[OWN] = values[0]
        violated = nogood.prohibits(assignment)
        return violated, 1, [nogood] if violated else [], 0
    base = method.replace("_batch", "")
    if base == method:
        values = values[:1]
    mode = {"violated_higher": "higher", "count_violated_higher": "higher",
            "count_violated_lower": "lower"}.get(base)
    results, checks, touches, lookups = [], 0, [], 0
    for value in values:
        found, scan_checks, scan_lookups = oracle_scan(
            store, view, value, own_priority, mode,
            first=base == "is_consistent",
        )
        checks += scan_checks
        lookups += scan_lookups
        touches += found
        if base == "is_consistent":
            results.append(not found)
        elif base.startswith("count_"):
            results.append(len(found))
        else:
            results.append(found)
    if method.endswith("_batch"):
        return results, checks, touches, lookups
    return results[0], checks, touches, lookups


def call(store, view, method, values, own_priority, nogood):
    if method in ("priority_key_of",):
        return store.priority_key_of(nogood, view)
    if method == "is_higher":
        return store.is_higher(nogood, view, own_priority)
    if method == "is_violated":
        return store.is_violated(nogood, view, values[0])
    keyed = "higher" in method or "lower" in method
    target = getattr(store, method)
    if method.endswith("_batch"):
        args = (view, values, own_priority) if keyed else (view, values)
    else:
        args = (view, values[0], own_priority) if keyed else (view, values[0])
    return target(*args)


METHODS = (
    "violated", "count_violated", "is_consistent", "violated_higher",
    "count_violated_higher", "count_violated_lower",
    "violated_batch", "count_violated_batch", "violated_higher_batch",
    "count_violated_higher_batch", "count_violated_lower_batch",
    "priority_key_of", "is_higher", "is_violated",
)

variables = st.sampled_from(VARIABLES)
values = st.sampled_from(DOMAIN)
nogoods = st.dictionaries(
    variables, values, min_size=1, max_size=3
).map(lambda pairs: Nogood(pairs.items()))
operations = st.one_of(
    st.tuples(st.just("update"), st.integers(1, 3), values,
              st.integers(0, 3)),
    st.tuples(st.just("forget"), st.integers(1, 3)),
    st.tuples(st.just("add"), nogoods, st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("rebind")),
    st.tuples(
        st.just("query"),
        st.sampled_from(METHODS),
        st.lists(values, min_size=1, max_size=2),
        st.integers(0, 1),
        # The single-nogood queries read a stored nogood (by index) or
        # an arbitrary one.
        st.one_of(st.integers(0, 50), nogoods),
    ),
)


@pytest.mark.parametrize("backend", [NogoodStore, LinearNogoodStore])
@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(values, st.integers(0, 3)), min_size=3, max_size=3),
    st.lists(operations, min_size=30, max_size=80),
)
def test_consults_match_the_uncached_oracle(backend, initial, program):
    store = backend(OWN)
    policy = RecordingLru(cap=4)
    store.set_retention(policy)
    view = AgentView()
    for variable, (value, priority) in enumerate(initial, start=1):
        view.update(variable, value, priority)
    for step, operation in enumerate(program):
        kind = operation[0]
        if kind == "update":
            view.update(*operation[1:])
        elif kind == "forget":
            view.forget(operation[1])
        elif kind == "add":
            store.add(operation[1], pinned=operation[2])
        elif kind == "remove":
            evictable = store.evictable_nogoods()
            if evictable:
                store.remove(evictable[operation[1] % len(evictable)])
        elif kind == "rebind":
            # An equal view in a new object: the cache must rebind cold.
            fresh = AgentView()
            for variable in view:
                fresh.update(
                    variable, view.value_of(variable),
                    view.priority_of(variable),
                )
            view = fresh
        else:
            _, method, candidates, own_priority, nogood = operation
            if isinstance(nogood, int):
                stored = list(store.nogoods())
                if not stored:
                    continue
                nogood = stored[nogood % len(stored)]
            expected = oracle(
                store, view, method, candidates, own_priority, nogood
            )
            checks = store.counter.total
            lookups = store.key_cache_hits + store.key_cache_misses
            policy.touched.clear()
            result = call(
                store, view, method, candidates, own_priority, nogood
            )
            observed = (
                result,
                store.counter.total - checks,
                list(policy.touched),
                store.key_cache_hits + store.key_cache_misses - lookups,
            )
            assert observed == expected, f"step {step}: {method}"
