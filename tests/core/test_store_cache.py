"""The priority-key cache: correctness under view changes.

The store caches the priority keys of its stored nogoods for the one view
it is bound to. A priority change drops only the keys of nogoods that
mention the changed variable (through the variable -> nogoods reverse
index and the view's per-variable priority stamps); a different view
rebinds the cache cold. These tests pin those invalidation rules so the
cache can never serve a stale key.
"""

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.priorities import order_key
from repro.core.store import NogoodStore


def fresh(entries):
    view = AgentView()
    for variable, (value, priority) in entries.items():
        view.update(variable, value, priority)
    return view


class TestPriorityVersion:
    def test_value_change_does_not_bump(self):
        view = AgentView()
        view.update(1, 0, 2)
        version = view.priority_version
        view.update(1, 1, 2)  # value only
        assert view.priority_version == version

    def test_priority_change_bumps(self):
        view = AgentView()
        view.update(1, 0, 2)
        version = view.priority_version
        view.update(1, 0, 3)
        assert view.priority_version > version

    def test_new_variable_at_zero_priority_does_not_bump(self):
        # Unknown variables already read as priority 0, so learning their
        # value at priority 0 changes no key.
        view = AgentView()
        version = view.priority_version
        view.update(5, 1, 0)
        assert view.priority_version == version

    def test_new_variable_at_nonzero_priority_bumps(self):
        view = AgentView()
        version = view.priority_version
        view.update(5, 1, 4)
        assert view.priority_version > version

    def test_stamps_hold_one_ascending_slot_per_variable(self):
        view = AgentView()
        for priority in range(1, 50):
            view.update(priority % 3 + 1, 0, priority)
        assert len(view.priority_stamps) == 3
        stamps = list(view.priority_stamps.values())
        assert stamps == sorted(stamps)
        assert stamps[-1] == view.priority_version

    def test_forget_bumps_only_for_nonzero_priority(self):
        view = AgentView()
        view.update(1, 0, 0)
        view.update(2, 0, 3)
        version = view.priority_version
        view.forget(1)
        assert view.priority_version == version
        view.forget(2)
        assert view.priority_version > version


class TestCacheCorrectness:
    def test_key_updates_after_priority_change(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        view = fresh({3: (1, 1)})
        assert store.priority_key_of(nogood, view) == order_key(1, 3)
        view.update(3, 1, 9)
        assert store.priority_key_of(nogood, view) == order_key(9, 3)

    def test_restamped_variable_is_resynced(self):
        store = NogoodStore(own_variable=0)
        on_one = Nogood.of((0, 0), (1, 1))
        on_two = Nogood.of((0, 0), (2, 1))
        store.add(on_one)
        store.add(on_two)
        view = fresh({1: (1, 1), 2: (1, 1)})
        store.violated_higher(view, 0, 0)  # synced after x2's stamp
        view.update(1, 1, 5)  # x1 re-stamped: now the newest change
        assert store.priority_key_of(on_one, view) == order_key(5, 1)
        assert store.priority_key_of(on_two, view) == order_key(1, 2)

    def test_key_stable_across_value_changes(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        view = fresh({3: (1, 2)})
        before = store.priority_key_of(nogood, view)
        view.update(3, 0, 2)
        assert store.priority_key_of(nogood, view) == before

    def test_different_view_objects_not_conflated(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        first = fresh({3: (1, 5)})
        second = fresh({3: (1, 7)})
        assert store.priority_key_of(nogood, first) == order_key(5, 3)
        assert store.priority_key_of(nogood, second) == order_key(7, 3)
        assert store.priority_key_of(nogood, first) == order_key(5, 3)

    def test_is_higher_tracks_priority_changes(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        store.add(nogood)
        view = fresh({3: (1, 0)})
        # x3 at priority 0 with larger id: ranks below x0 → nogood lower.
        assert not store.is_higher(nogood, view, own_priority=0)
        view.update(3, 1, 1)
        assert store.is_higher(nogood, view, own_priority=0)


class TestCacheHitRate:
    """Which lookups miss: exactly those whose key may have changed.

    Every keyed lookup counts as one hit or one miss, so the observational
    counters pin the invalidation scope.
    """

    def make_store(self, count=20):
        store = NogoodStore(own_variable=0)
        for peer in range(1, count + 1):
            store.add(Nogood.of((0, 0), (peer, 1)))
        return store

    def test_priority_change_re_misses_only_nogoods_mentioning_it(self):
        store = self.make_store()
        # Two nogoods mention x1; the other 19 never see its priority.
        store.add(Nogood.of((0, 0), (1, 0), (7, 1)))
        view = fresh({1: (1, 2), 7: (1, 0)})
        store.violated_higher(view, 0, 0)
        assert store.key_cache_misses == 21
        hits = store.key_cache_hits
        view.update(1, 1, 9)
        store.violated_higher(view, 0, 0)
        assert store.key_cache_misses == 21 + 2
        assert store.key_cache_hits == hits + 19
        assert store.priority_key_of(Nogood.of((0, 0), (1, 1)), view) == (
            order_key(9, 1)
        )

    def test_rebinding_to_another_view_never_serves_an_old_key(self):
        store = self.make_store()
        first = fresh({1: (1, 2)})
        second = fresh({1: (1, 3)})
        nogood = Nogood.of((0, 0), (1, 1))
        for _round in range(3):
            for view, priority in ((first, 2), (second, 3)):
                store.violated_higher(view, 0, 0)
                assert store.priority_key_of(nogood, view) == order_key(
                    priority, 1
                )
        # Same version numbers on both views must not alias their keys.
        assert first.priority_version == second.priority_version
        # Each switch rebinds cold: every scan re-misses all 20 keys, and
        # only the follow-up single lookup hits.
        assert store.key_cache_misses == 6 * 20
        assert store.key_cache_hits == 6

    def test_value_changes_do_not_invalidate(self):
        store = self.make_store()
        view = fresh({1: (1, 2)})
        store.violated_higher(view, 0, 0)
        misses = store.key_cache_misses
        for value in (0, 1, 0, 1):
            view.update(1, value, 2)  # value churn, same priority
            store.violated_higher(view, 0, 0)
        assert store.key_cache_misses == misses
